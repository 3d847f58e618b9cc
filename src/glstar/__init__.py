"""Numerical toolkit for bi-parameter square-function estimates.

Random shifted dyadic grids, Haar systems with exact expansions in
integers, kernel-assumption checkers, Whitney-region quadrature for the
weighted square function, Carleson packing tests, and the experiment drivers
tying them together.
"""

from .core import (
    Params,
    QuadratureSpec,
    StepFunction,
    default_params,
)
from .dyadic import (
    DyadicCube,
    ShiftedGrid,
    estimate_pi_good,
    is_good,
    pi_good_exact,
    strong_maximal_dyadic,
    trial_stream,
)
from .carleson import (
    CarlesonReport,
    DyadicOpenSet,
    c_ij,
    carleson_sum,
    random_open_set,
    shadow_sets,
)
from .gstar import (
    GStarValue,
    apply_theta,
    axis_grams,
    gstar_pointwise,
    gstar_sq_norm,
    k_quantity,
    q_quantity,
)
from .haar import HaarExpansion, HaarIndex, expand, haar_function, reconstruct
from .kernels import (
    AssumptionReport,
    ConvolutionFactor,
    Kernel,
    check_holder,
    check_mixed,
    check_size,
    make_broken,
    make_cancellative,
    make_mixed,
    make_size_only,
    rescale,
    weight_total,
    weight_window,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "CarlesonReport",
    "ConvolutionFactor",
    "DyadicOpenSet",
    "DyadicCube",
    "GStarValue",
    "HaarExpansion",
    "HaarIndex",
    "Kernel",
    "Params",
    "QuadratureSpec",
    "ShiftedGrid",
    "StepFunction",
    "check_holder",
    "check_mixed",
    "check_size",
    "apply_theta",
    "axis_grams",
    "c_ij",
    "carleson_sum",
    "default_params",
    "estimate_pi_good",
    "expand",
    "gstar_pointwise",
    "gstar_sq_norm",
    "haar_function",
    "is_good",
    "k_quantity",
    "make_broken",
    "make_cancellative",
    "make_mixed",
    "make_size_only",
    "pi_good_exact",
    "q_quantity",
    "random_open_set",
    "reconstruct",
    "rescale",
    "shadow_sets",
    "strong_maximal_dyadic",
    "trial_stream",
    "weight_total",
    "weight_window",
    "__version__",
]
