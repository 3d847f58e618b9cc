"""Names and units of the benchmark's workloads and metrics.

BENCHMARK.json at the repository root lists the same names; the harness
self-test checks that the two agree.
"""

WORKLOADS = ("drivers", "lattice", "opaque")

# (name, unit) of every metric a --trace 0 run prints
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "fraction"),
)


def _stats(label: str, unit_by_stat: dict) -> list[tuple[str, str]]:
    return [(f"{label}.{stat}", unit) for stat, unit in unit_by_stat.items()]


_C, _S, _F = "count", "s", "fraction"

# (name, unit) of every metric a --trace 1 run prints
PER_LAYER = tuple(
    [(f"experiments.run_{d}.s", _S) for d in
     ("lemma32", "kdecay", "carleson", "boundratio", "schur", "averaging")]
    + _stats("dyadic.is_good", {"calls": _C, "s": _S, "good_frac": _F})
    + _stats("dyadic.estimate_pi_good", {"calls": _C, "s": _S})
    + _stats("dyadic.pi_good_exact", {"calls": _C, "s": _S, "max_depth_s": _S})
    + _stats("dyadic.ShiftedGrid.random", {"calls": _C, "s": _S})
    + _stats("dyadic.schur_coeff", {"calls": _C, "s": _S})
    + [("dyadic.DyadicCube.box.calls", _C),
       ("dyadic.strong_maximal_dyadic.s", _S),
       ("haar.expand.s", _S),
       ("haar.reconstruct.s", _S),
       ("carleson.shadow_sets.s", _S)]
    + _stats("gstar.gstar_sq_norm", {"calls": _C, "s": _S})
    + _stats("gstar._axis_gram", {"calls": _C, "s": _S, "repeat_frac": _F})
    + _stats("gstar._axis_sq_profile", {"calls": _C, "s": _S})
    + [("gstar.k_quantity.s", _S), ("gstar.q_quantity.s", _S)]
    + _stats("kernels.ConvolutionFactor.cell_integral",
             {"calls": _C, "s": _S, "elements": _C})
    + [("kernels.check.s", _S)]
    + _stats("carleson.carleson_sum", {"calls": _C, "s": _S, "rects": _C})
    + _stats("gstar._theta_points_general", {"calls": _C, "s": _S, "points": _C})
    + _stats("gstar.gstar_pointwise", {"calls": _C, "s": _S})
    + _stats("kernels.ConvolutionFactor.profile",
             {"calls": _C, "s": _S, "elements": _C})
    + _stats("core.StepFunction.__call__", {"calls": _C, "s": _S, "points": _C})
    + [("core.segment_nodes.nodes", _C),
       ("core.graded_axis_edges.calls", _C),
       ("core.octave_nodes.calls", _C)]
    + _stats("carleson.c_ij", {"calls": _C, "s": _S, "repeat_frac": _F})
    + [(f"{m}.self_s", _S) for m in
       ("experiments", "dyadic", "gstar", "kernels", "carleson", "haar", "core")]
    + [("trace.overhead_frac", _F), ("trace.covered_frac", _F)]
)
