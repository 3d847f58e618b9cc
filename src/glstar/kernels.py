"""Two-scale product kernels and samplers for their decay conditions.

The built-in families are tensor products of one-dimensional convolution
factors with power-law decay.  Everything a factor needs downstream (pointwise
values, total mass, cell integrals) has a closed form, so the heavy machinery
elsewhere never quadratures the kernel itself unless it has to.

The closed forms of the Poisson-type weight (t / (t + |y|))^lam also live
here: its integral over the line (:func:`weight_total`) and over an interval
(:func:`weight_window`), which the square-function quadrature and the packing
sums use for their far fields and spatial factors.

The ``check_*`` functions are samplers, not provers: they estimate the implied
constant of a pointwise condition as a supremum of |LHS|/RHS over a
deterministic grid concentrated near the singular region (small scales, small
separations) plus ``samples`` random draws.  Each check takes its draws as
whole arrays from one counter-keyed stream, ``trial_stream(seed)``, in a fixed
order, so a draw depends on both the seed and ``samples``.  The draws are
stacked points of n + m coordinates; `_eval_kernel` splits each sample array
once into the two coordinate blocks ``Kernel.evaluate`` takes.

The module holds no quadrature: every value here is a closed form or a
kernel evaluation at sampled points.  Integrals of the kernel against step
functions live in :mod:`glstar.gstar` and :mod:`glstar.carleson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import Params
from .dyadic import trial_stream

__all__ = [
    "AssumptionReport",
    "ConvolutionFactor",
    "Kernel",
    "check_holder",
    "check_mixed",
    "check_size",
    "make_broken",
    "make_cancellative",
    "make_mixed",
    "make_size_only",
    "rescale",
    "weight_total",
    "weight_window",
]


# ---------------------------------------------------------------------------
# one-parameter factors


@dataclass(frozen=True)
class ConvolutionFactor:
    """One-parameter convolution factor ``u -> profile(t, |u|_inf)``.

    flavor "size" is the positive family  t^a / (t + s)^(dim + a);  flavor
    "cancellative" is t d/dt of it, which integrates to zero at every scale.
    Both are evaluated with one power: with v = t + s and q = t / v, size is
    scale * q^a / v^dim and cancellative is scale * q^a / v^dim *
    (a - (dim + a) q).
    Cell integrals are exact: one closed-form antiderivative (dim 1) per edge,
    also with one power; the cancellative one is formed without
    cancellation (see `antiderivative`).
    ``scale`` multiplies the whole profile (amplitude homogeneity tests).
    """

    dim: int
    exponent: float
    flavor: str = "size"
    label: str = ""
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("factor dimension must be >= 1")
        if not self.exponent > 0:
            raise ValueError("decay exponent must be positive")
        if self.flavor not in ("size", "cancellative"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not self.scale > 0:
            raise ValueError("amplitude must be positive")
        if not self.label:
            amp = "" if self.scale == 1.0 else f", x{self.scale:g}"
            object.__setattr__(
                self,
                "label",
                f"{self.flavor}(dim={self.dim}, a={self.exponent:g}{amp})",
            )

    def profile(self, t, s):
        """Radial profile at scale t and distance s >= 0 (arrays broadcast),
        in the one-power form of the class docstring.  The arithmetic runs in
        place on the arrays v and q made here, never on t or s, and a 0-d
        input runs it on a one-element array: numpy's scalar power can round
        apart from its array loop, and a value must not depend on whether it
        came alone or in an array."""
        a, d = self.exponent, self.dim
        v = np.add(t, s, dtype=float)
        alone = v.ndim == 0
        v = v.reshape(v.shape or (1,))
        q = np.divide(t, v, dtype=float)
        if d != 1:
            v **= d
        if self.flavor == "size":
            q **= a
            out = q
        else:
            # q is still needed for the factor a - (d + a) q
            out = q**a
        if self.scale != 1.0:
            out *= self.scale
        out /= v
        if self.flavor == "cancellative":
            q *= -(d + a)
            q += a
            out *= q
        return out[0] if alone else out

    def value(self, t, x, y):
        """Kernel value at points x, y with shape (..., dim); sup-norm metric."""
        u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        if u.ndim == 0:
            return self.profile(t, abs(u))
        if u.shape[-1] != self.dim:
            raise ValueError(f"a dim-{self.dim} factor takes points whose "
                             f"last axis has length {self.dim}, got shape "
                             f"{u.shape}")
        np.abs(u, out=u)
        # the sup norm of one coordinate is its modulus: no reduction
        return self.profile(t, u[..., 0] if self.dim == 1 else u.max(axis=-1))

    def mass(self, t) -> float:
        """Integral over the whole space; scale independent in both flavors."""
        if self.flavor == "cancellative":
            return 0.0
        a, d = self.exponent, self.dim
        return (
            self.scale * d * 2.0**d * math.gamma(d) * math.gamma(a) / math.gamma(d + a)
        )

    def antiderivative(self, t, s):
        """A(s) = integral of the profile over [0, s], dim 1 only, odd in s:
        with q = t/(t+|s|), sign(s) scale (1 - q^a) / a (size) or sign(s)
        scale (q^(1+a) - q^a) (cancellative).  The cancellative one is
        evaluated as -sign(s) scale q^a |s|/(t+|s|) = -scale q^a s/(t+|s|),
        one power and no difference of nearly equal terms, so it keeps its
        relative accuracy as s -> 0; the size one still subtracts q^a from
        1 there.  A 0-d input runs through the array loop, as in
        `profile`."""
        shape = np.broadcast_shapes(np.shape(t), np.shape(s))
        out = self.antiderivative_into(t, s, np.empty(shape or (1,)),
                                       np.empty(shape or (1,)))
        return out if shape else out[0]

    def antiderivative_into(self, t, s, out, scratch):
        """`antiderivative` written into ``out``, with ``scratch`` as its
        workspace: two float arrays of the broadcast shape of t and s, and
        neither of them s.  A caller evaluating many s of one shape passes
        the same two buffers each time and allocates nothing per call.  The
        arithmetic is the formula's, operation for operation, so the bits do
        not depend on where the result is written."""
        if self.dim != 1:
            raise NotImplementedError("closed-form antiderivative is 1d only")
        a = self.exponent
        if self.flavor == "size":
            q = np.abs(s, out=out)
            np.add(t, q, out=q)
            np.divide(t, q, out=q)
            q **= a
            np.subtract(1.0, q, out=q)
            if self.scale != 1.0:
                q *= self.scale
            q /= a
            q *= np.sign(s, out=scratch)
            return q
        # sign(s) scale q^a (q - 1) with sign(s) (q - 1) = -s / (t + |s|),
        # formed as that quotient: no difference of nearly equal terms as
        # s -> 0, and no separate sign pass
        v = np.abs(s, out=scratch)
        np.add(t, v, out=v)
        np.divide(s, v, out=out)
        q = np.divide(t, v, out=v)
        q **= a
        out *= q
        out *= -self.scale
        return out

    def cell_integral(self, t, x, edges):
        """Exact integrals of profile(|x - z|) over the cells z in [e_i,
        e_(i+1)] of the nondecreasing ``edges``, shape x.shape + (cells,):
        one odd antiderivative per (point, edge), shared by adjacent cells."""
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1:
            raise ValueError("cell edges must be a nondecreasing 1-d array")
        return self._row_cell_integral(t, x, edges)

    def _row_cell_integral(self, t, x, edges):
        """`cell_integral` with ``edges`` of shape (..., cells + 1), one row
        of edges broadcast against each point of ``x``, each row
        nondecreasing."""
        edges = np.asarray(edges, dtype=float)
        if np.any(edges[..., 1:] < edges[..., :-1]):
            raise ValueError("cell edges must be nondecreasing")
        odd = self.antiderivative(t, np.asarray(x, dtype=float)[..., None]
                                  - edges)
        return odd[..., :-1] - odd[..., 1:]


# ---------------------------------------------------------------------------
# bi-parameter kernels


@dataclass(frozen=True)
class Kernel:
    """A two-scale kernel (t1, t2, x, y) -> K with declared decay exponents.

    ``evaluate`` takes scales t1, t2 and points in blocks: x = (x1, x2) and
    y = (y1, y2), arrays whose last axes hold the n coordinates of the first
    parameter and the m of the second.  The four blocks broadcast over their
    leading axes independently, and the value has their broadcast shape: the
    checkers call it on whole arrays of samples, the raw quantity routes on
    point chunks against a row of z1 nodes and a column of z2 nodes, and
    both refuse a result of any other shape.
    When ``tensor_parts`` is present, ``evaluate`` must equal the product of
    the two factors, each acting on its own block.
    """

    evaluate: Callable
    alpha: float
    beta: float
    n: int = 1
    m: int = 1
    tensor_parts: Optional[tuple] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("kernel dimensions must be >= 1")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("declared exponents must be positive")
        if self.tensor_parts is not None and len(self.tensor_parts) != 2:
            raise ValueError("tensor_parts must hold exactly two factors")


def _tensor_evaluate(f1: ConvolutionFactor, f2: ConvolutionFactor):
    def evaluate(t1, t2, x, y):
        return f1.value(t1, x[0], y[0]) * f2.value(t2, x[1], y[1])

    return evaluate


def _tensor_kernel(kind: str, flavor1: str, flavor2: str, n: int, m: int,
                   alpha: float, beta: float) -> Kernel:
    f1 = ConvolutionFactor(n, alpha, flavor1)
    f2 = ConvolutionFactor(m, beta, flavor2)
    return Kernel(_tensor_evaluate(f1, f2), alpha, beta, n, m, (f1, f2),
                  label=f"{kind}(n={n},m={m},a={alpha:g},b={beta:g})")


def make_size_only(n: int, m: int, alpha: float, beta: float) -> Kernel:
    """Positive tensor kernel that saturates the size condition exactly."""
    return _tensor_kernel("size_only", "size", "size", n, m, alpha, beta)


def make_cancellative(n: int, m: int, alpha: float, beta: float) -> Kernel:
    """Tensor kernel whose factors each integrate to zero at every scale.

    Applied to the constant function it gives identically zero, so all the
    box-packing quantities vanish and the family is an easy positive control.
    """
    return _tensor_kernel("cancellative", "cancellative", "cancellative",
                          n, m, alpha, beta)


def make_mixed(n: int, m: int, alpha: float, beta: float) -> Kernel:
    """Tensor kernel with a cancellative first factor and a size-only second
    factor; applied to the constant it vanishes, so it packs like the
    cancellative family despite the one-sided positivity."""
    return _tensor_kernel("mixed", "cancellative", "size", n, m, alpha, beta)


def rescale(kernel: Kernel, c: float) -> Kernel:
    """The kernel multiplied by the constant c > 0.

    Tensor structure is preserved by folding the amplitude into the first
    factor, so every closed-form path sees the scaling exactly.
    """
    if not c > 0:
        raise ValueError("scaling constant must be positive")
    if c == 1.0:
        return kernel
    label = f"{kernel.label}*{c:g}" if kernel.label else f"x{c:g}"
    if kernel.tensor_parts is not None:
        f1, f2 = kernel.tensor_parts
        f1 = replace(f1, scale=c * f1.scale, label="")
        return replace(kernel, evaluate=_tensor_evaluate(f1, f2),
                       tensor_parts=(f1, f2), label=label)
    base_eval = kernel.evaluate

    def evaluate(t1, t2, x, y):
        return c * base_eval(t1, t2, x, y)

    return replace(kernel, evaluate=evaluate, label=label)


def make_broken(base: Kernel, defect: Union[str, Sequence[str]]) -> Kernel:
    """Negative controls: kernels deliberately violating a named condition.

    "wrong_alpha" bumps the declared first-axis exponent above the actual
    decay, so the size ratio diverges at large separations.  "holder_break"
    multiplies by a bounded jump in the first y2-coordinate, which leaves the
    size condition intact but destroys the smoothness conditions.
    An empty defect sequence returns ``base`` unchanged.
    """
    defects = (defect,) if isinstance(defect, str) else tuple(defect)
    kernel = base
    for d in defects:
        if d == "wrong_alpha":
            kernel = replace(kernel, alpha=kernel.alpha + 0.25,
                             label=kernel.label + "+wrong_alpha")
        elif d == "holder_break":
            kernel = replace(kernel, evaluate=_jump_wrap(kernel.evaluate),
                             tensor_parts=None,
                             label=kernel.label + "+holder_break")
        else:
            raise ValueError(f"unknown defect {d!r}")
    return kernel


def _jump_wrap(evaluate: Callable):
    def jumped(t1, t2, x, y):
        return evaluate(t1, t2, x, y) * (1.0 + 0.5 * (y[1][..., 0] >= 0.0))

    return jumped


# ---------------------------------------------------------------------------
# condition reports


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled estimate of the implied constant of one decay condition."""

    condition: str
    estimate: float
    samples: int
    worst: dict
    cap: float
    passed: bool

    def __post_init__(self) -> None:
        if not (self.estimate >= 0.0 or math.isnan(self.estimate)):
            raise ValueError("estimate must be nonnegative")
        if self.samples < 1:
            raise ValueError("report needs at least one sample")
        ok = math.isfinite(self.estimate) and self.estimate <= self.cap
        if self.passed != ok:
            raise ValueError("pass flag inconsistent with estimate and cap")

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.condition}: sup|LHS|/RHS = {self.estimate:.4g} "
            f"over {self.samples} samples (cap {self.cap:g}) -> {verdict}"
        )


def _mk_report(condition, ratios, worst, cap) -> AssumptionReport:
    est = float(np.max(ratios))
    return AssumptionReport(
        condition=condition,
        estimate=est,
        samples=int(np.size(ratios)),
        worst=worst,
        cap=float(cap),
        passed=bool(math.isfinite(est) and est <= cap),
    )


# ---------------------------------------------------------------------------
# sample evaluation helpers


def _eval_kernel(kernel: Kernel, t1, t2, x, y) -> np.ndarray:
    """Evaluate once on whole arrays of stacked samples, split here into
    their coordinate blocks; ``evaluate`` must broadcast."""
    n = kernel.n
    values = np.asarray(kernel.evaluate(t1, t2, (x[:, :n], x[:, n:]),
                                        (y[:, :n], y[:, n:])), dtype=float)
    if values.shape != t1.shape:
        raise ValueError(f"kernel evaluate must broadcast over the samples: "
                         f"got shape {values.shape}, expected {t1.shape}")
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite kernel value at t1={t1[i]:g}, t2={t2[i]:g}, "
            f"x={tuple(x[i])}, y={tuple(y[i])}"
        )
    return values


def _linf_blocks(kernel: Kernel, x, y):
    n = kernel.n
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return (
        np.max(np.abs(u[..., :n]), axis=-1),
        np.max(np.abs(u[..., n:]), axis=-1),
    )


def _majorant(kernel: Kernel, p1, p2, t1, t2, s1, s2):
    """p1^a / (t1 + s1)^(n + a) * p2^b / (t2 + s2)^(m + b)."""
    a, b, n, m = kernel.alpha, kernel.beta, kernel.n, kernel.m
    return p1**a / (t1 + s1) ** (n + a) * p2**b / (t2 + s2) ** (m + b)


def _splice(first, second, n: int) -> np.ndarray:
    """Rows taking their first n coordinates from ``first``, the rest from
    ``second``."""
    return np.concatenate([first[:, :n], second[:, n:]], axis=1)


def _unit_linf(rng, count: int, dim: int) -> np.ndarray:
    """``count`` rows of unit sup-norm vectors; an all-zero draw maps to e1."""
    d = rng.uniform(-1.0, 1.0, (count, dim))
    peak = np.max(np.abs(d), axis=1, keepdims=True)
    zero = peak[:, 0] == 0.0
    d[zero, 0] = 1.0
    peak[zero] = 1.0
    return d / peak


def _block_steps(rng, r1, r2, n: int, m: int) -> np.ndarray:
    """Random rows whose two coordinate blocks have sup norms r1 and r2."""
    count = r1.size
    return np.hstack([r1[:, None] * _unit_linf(rng, count, n),
                      r2[:, None] * _unit_linf(rng, count, m)])


def _worst_at(i, ratio, t1, t2, x, y, **extra) -> dict:
    return {"t1": float(t1[i]), "t2": float(t2[i]), "x": tuple(x[i]),
            "y": tuple(y[i]), **extra, "ratio": float(ratio)}


# ---------------------------------------------------------------------------
# pointwise condition checkers


def check_size(
    kernel: Kernel,
    params: Params,
    samples: int = 2000,
    seed: int = 1,
    *,
    cap: float = 8.0,
    max_radius: float = 256.0,
) -> AssumptionReport:
    """Sampled constant of the pointwise decay bound |K| <= majorant.

    Deterministic strata sweep scale pairs and separations out to
    ``max_radius`` (so a kernel whose declared exponent overstates its decay is
    caught at the far end), and ``samples`` random draws fill the gaps.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 random samples")
    n, m = kernel.n, kernel.m
    dim = n + m

    scales = 2.0 ** np.arange(-10.0, 5.0, 2.0)
    factors = np.array([0.0, 0.25, 1.0, 4.0, 32.0, np.inf])
    t1g, t2g, r1g, r2g, dg = np.meshgrid(
        scales, scales, factors, factors, np.arange(2.0), indexing="ij"
    )
    t1 = t1g.ravel()
    t2 = t2g.ravel()
    s1 = np.minimum(r1g.ravel() * t1, max_radius)
    s2 = np.minimum(r2g.ravel() * t2, max_radius)
    diag = dg.ravel() > 0.5
    count = t1.size
    u = np.zeros((count, dim))
    u[:, 0] = s1
    u[:, n] = s2
    if n > 1:
        u[diag, 1:n] = s1[diag, None]
    if m > 1:
        u[diag, n + 1 :] = s2[diag, None]
    x = np.zeros((count, dim))
    y = x - u

    rng = trial_stream(seed)
    ta = 2.0 ** rng.uniform(-12.0, 4.0, samples)
    tb = 2.0 ** rng.uniform(-12.0, 4.0, samples)
    center = rng.uniform(-4.0, 4.0, (samples, dim))
    sa = 2.0 ** rng.uniform(np.log2(ta) - 8.0, math.log2(max_radius))
    sb = 2.0 ** rng.uniform(np.log2(tb) - 8.0, math.log2(max_radius))
    t1 = np.concatenate([t1, ta])
    t2 = np.concatenate([t2, tb])
    x = np.vstack([x, center])
    y = np.vstack([y, center - _block_steps(rng, sa, sb, n, m)])

    values = _eval_kernel(kernel, t1, t2, x, y)
    s1, s2 = _linf_blocks(kernel, x, y)
    ratios = np.abs(values) / _majorant(kernel, t1, t2, t1, t2, s1, s2)
    i = int(np.argmax(ratios))
    return _mk_report("size", ratios, _worst_at(i, ratios[i], t1, t2, x, y), cap)


def _pair_samples(n: int, m: int, samples: int, seed: int):
    """Sample tuples (t1, t2, x, y, y') with per-axis gaps below t_i / 2.

    The deterministic block places the pair near the scale-t peak of the
    profile (including gaps just under the t/2 ceiling, pairs straddling the
    origin, and the near-extremal layout y = x + g, y' = x) because that is
    where smoothness ratios peak and where jump defects hide.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 random samples")
    dim = n + m
    scales = 2.0 ** np.array([-8.0, -4.0, -1.0, 2.0])
    places = np.array([0.0, 1.0, 32.0])
    gapf = np.array([0.999, 0.25, 2.0**-6, 2.0**-14])

    t1l, t2l, p1l, p2l, g1l, g2l, vl = (
        a.ravel()
        for a in np.meshgrid(
            scales, scales, places, places, gapf, gapf, np.arange(3.0), indexing="ij"
        )
    )
    keep = (vl < 0.5) | ((p1l == 0.0) & (p2l == 0.0))
    t1l, t2l, p1l, p2l, g1l, g2l, vl = (
        a[keep] for a in (t1l, t2l, p1l, p2l, g1l, g2l, vl)
    )
    count = t1l.size
    gap1 = g1l * t1l / 2.0
    gap2 = g2l * t2l / 2.0
    x = np.zeros((count, dim))
    y = np.zeros((count, dim))
    y[:, 0] = -p1l * t1l
    y[:, n] = -p2l * t2l
    straddle = vl == 1.0
    y[straddle, 0] = gap1[straddle] / 2.0
    y[straddle, n] = gap2[straddle] / 2.0
    peak = vl == 2.0
    y[peak, 0] = gap1[peak]
    y[peak, n] = gap2[peak]
    yp = y.copy()
    yp[:, 0] -= gap1
    yp[:, n] -= gap2

    rng = trial_stream(seed)
    ta = 2.0 ** rng.uniform(-10.0, 3.0, samples)
    tb = 2.0 ** rng.uniform(-10.0, 3.0, samples)
    center = rng.uniform(-4.0, 4.0, (samples, dim))
    sa = ta * 2.0 ** rng.uniform(-3.0, 6.0, samples)
    sb = tb * 2.0 ** rng.uniform(-3.0, 6.0, samples)
    ga = (ta / 2.0) * 2.0 ** -rng.uniform(0.01, 18.0, samples)
    gb = (tb / 2.0) * 2.0 ** -rng.uniform(0.01, 18.0, samples)
    yy = center - _block_steps(rng, sa, sb, n, m)
    yyp = yy - _block_steps(rng, ga, gb, n, m)
    return (
        np.concatenate([t1l, ta]),
        np.concatenate([t2l, tb]),
        np.vstack([x, center]),
        np.vstack([y, yy]),
        np.vstack([yp, yyp]),
    )


def check_holder(
    kernel: Kernel,
    params: Params,
    samples: int = 2000,
    seed: int = 2,
    *,
    cap: float = 8.0,
) -> AssumptionReport:
    """Sampled constant of the four-term second-difference smoothness bound.

    Both perturbations stay below half their scale, as the condition requires.
    """
    n = kernel.n
    t1, t2, x, y, yp = _pair_samples(n, kernel.m, samples, seed)
    second_diff = (
        _eval_kernel(kernel, t1, t2, x, y)
        - _eval_kernel(kernel, t1, t2, x, _splice(y, yp, n))
        - _eval_kernel(kernel, t1, t2, x, _splice(yp, y, n))
        + _eval_kernel(kernel, t1, t2, x, yp)
    )
    g1, g2 = _linf_blocks(kernel, y, yp)
    s1, s2 = _linf_blocks(kernel, x, y)
    ratios = np.abs(second_diff) / _majorant(kernel, g1, g2, t1, t2, s1, s2)
    i = int(np.argmax(ratios))
    worst = _worst_at(i, ratios[i], t1, t2, x, y, y_prime=tuple(yp[i]))
    return _mk_report("holder", ratios, worst, cap)


def check_mixed(
    kernel: Kernel,
    params: Params,
    samples: int = 2000,
    seed: int = 3,
    *,
    cap: float = 8.0,
) -> AssumptionReport:
    """Sampled constant of the two one-sided difference bounds.

    One branch perturbs only the second block of y (decay in the first block,
    smoothness in the second); the other branch swaps the roles.  The report
    is the supremum over both.
    """
    n = kernel.n
    t1, t2, x, y, yp = _pair_samples(n, kernel.m, samples, seed)
    s1, s2 = _linf_blocks(kernel, x, y)
    g1, g2 = _linf_blocks(kernel, y, yp)
    base = _eval_kernel(kernel, t1, t2, x, y)
    diff_second = np.abs(base - _eval_kernel(kernel, t1, t2, x, _splice(y, yp, n)))
    diff_first = np.abs(base - _eval_kernel(kernel, t1, t2, x, _splice(yp, y, n)))
    ratios = np.concatenate([
        diff_second / _majorant(kernel, t1, g2, t1, t2, s1, s2),
        diff_first / _majorant(kernel, g1, t2, t1, t2, s1, s2),
    ])
    i = int(np.argmax(ratios))
    j = i % t1.size
    worst = _worst_at(j, ratios[i], t1, t2, x, y, y_prime=tuple(yp[j]),
                      branch="vary_y2" if i < t1.size else "vary_y1")
    return _mk_report("mixed", ratios, worst, cap)


# ---------------------------------------------------------------------------
# closed forms of the Poisson-type weight (t / (t + |y|))^lam


def weight_total(t: float, lam: float) -> float:
    """Closed form of the full weight integral: int (t/(t+|y|))^lam dy over
    the line equals 2 t / (lam - 1).  Requires lam > 1."""
    if lam <= 1.0:
        raise ValueError("weight power must exceed 1 for a convergent tail")
    return 2.0 * t / (lam - 1.0)


def weight_window(t: float, lam: float, lo, hi):
    """Closed-form integral of (t / (t + |y|))^lam over y in [lo, hi]."""

    def odd(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * (t / (lam - 1.0)) * (
            1.0 - (t / (t + np.abs(s))) ** (lam - 1.0)
        )

    return odd(hi) - odd(lo)
