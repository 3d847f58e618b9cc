"""Parameter records, dyadic step functions, and the shared mesh builders.

Everything downstream (grid geometry, Haar systems, kernel testing, the
square-function quadratures, Carleson packing) is built on three ingredients
that live here:

* ``Params`` -- exponent bookkeeping for the two factor spaces: dimensions,
  Hölder exponents, weight powers, and the goodness radius of the random-grid
  machinery.  The grid exponents ``gamma_n``, ``gamma_m`` are derived from the
  Hölder exponents exactly and are not free knobs.
* ``StepFunction`` -- a step function on a dyadic lattice with an optional
  constant tail outside its support box.  This is the concrete carrier for
  test functions, Haar functions, indicators of open sets, and the modified
  ancestor patterns (which are constant but nonzero far away, hence the tail).
* node builders, not integrators -- graded segment meshes for space axes
  (``graded_axis_edges`` plus ``segment_nodes``, or ``graded_meshes`` for
  many intervals in one batch) and log-uniform per-octave rules for scale
  axes (``octave_blocks`` and ``octave_nodes``).  Callers evaluate their own
  integrands on these nodes and contract them against the weights.  Scale
  measures downstream are all of the form dt/t, which a log-space midpoint
  rule integrates exactly for 1/t integrands; space integrands are either
  step functions (midpoint-exact) or kernels peaked at known points (handled
  by grading the mesh geometrically toward the peaks).
  This module is the only place that splits a scale axis at powers of two.

All values are immutable after construction and all routines are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Params",
    "QuadratureSpec",
    "StepFunction",
    "default_params",
    "graded_axis_edges",
    "graded_meshes",
    "octave_blocks",
    "octave_nodes",
    "segment_nodes",
]

# Default goodness radius.  The smallest radius for which good cubes exist at
# all under the default 12-octave grid truncation is 9, but the exact good-cube
# probability there is 7/2048 -- statistically useless.  The default is the
# smallest radius whose exact probability is at least 0.05 (it is 63/1024 at
# 12 octaves); ``glstar.dyadic.default_shift_radius`` recomputes this from the
# exact enumeration and the test suite pins the two to each other.
DEFAULT_SHIFT_RADIUS = 10


@dataclass(frozen=True)
class Params:
    """Exponents and dimensions of the two-factor setup.

    ``n`` and ``m`` are the dimensions of the two factor spaces, ``alpha`` and
    ``beta`` the kernel smoothness exponents, ``lambda1`` and ``lambda2`` the
    weight powers of the square function, and ``r`` the goodness radius: a grid
    cube is *good* when it stays quantitatively inside every grid cube at least
    2^r times coarser.  The derived exponents

        gamma_n = alpha / (2 (n + alpha)),   gamma_m = beta / (2 (m + beta))

    set the boundary-avoidance threshold ``ell(I)^gamma ell(J)^(1-gamma)``.

    In ``theorem_mode`` the constructor enforces the parameter region of the
    L^2 bound: lambda1, lambda2 > 2 and 0 < alpha <= n (lambda1 - 2)/2,
    0 < beta <= m (lambda2 - 2)/2.  Outside theorem mode violations only warn,
    so decay studies can probe the boundary of the region.
    """

    n: int = 1
    m: int = 1
    alpha: float = 0.5
    beta: float = 0.5
    lambda1: float = 3.0
    lambda2: float = 3.0
    r: int = DEFAULT_SHIFT_RADIUS
    theorem_mode: bool = True

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("factor dimensions must be positive integers")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("smoothness exponents must be positive")
        if self.lambda1 <= 1 or self.lambda2 <= 1:
            raise ValueError("weight powers must exceed 1 for convergence")
        if self.r < 1:
            raise ValueError("goodness radius must be a positive integer")
        problems = []
        if not (self.lambda1 > 2 and self.lambda2 > 2):
            problems.append("weight powers must exceed 2 in the theorem region")
        if not (self.alpha <= self.n * (self.lambda1 - 2) / 2):
            problems.append("alpha exceeds n (lambda1 - 2)/2")
        if not (self.beta <= self.m * (self.lambda2 - 2) / 2):
            problems.append("beta exceeds m (lambda2 - 2)/2")
        if problems:
            msg = "; ".join(problems)
            if self.theorem_mode:
                raise ValueError(msg)
            warnings.warn(msg, stacklevel=2)

    @property
    def gamma_n(self) -> float:
        return self.alpha / (2.0 * (self.n + self.alpha))

    @property
    def gamma_m(self) -> float:
        return self.beta / (2.0 * (self.m + self.beta))

    @property
    def weight_powers(self) -> tuple[float, float]:
        """The exponents (n lambda1, m lambda2) of the two Poisson-type
        weights (t / (t + |y|))^lam of the square function."""
        return self.n * self.lambda1, self.m * self.lambda2

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "beta": self.beta,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "r": self.r,
            "gamma_n": self.gamma_n,
            "gamma_m": self.gamma_m,
        }


def default_params(**overrides) -> Params:
    """The desk-scale configuration: n = m = 1, alpha = beta = 1/2,
    lambda1 = lambda2 = 3 (so gamma = 1/6 on both factors), r = 10."""
    return Params(**overrides)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the quadratures built on this module's nodes.

    ``points_per_cell`` is the per-axis rule order on each mesh segment (and
    on each lattice cell when integrating against step functions);
    ``t_points_per_octave`` the number of nodes per factor of two on scale
    axes; ``t_min``/``t_max`` the default scale range.
    ``rule`` selects the segment rule: "midpoint" (exact on step functions) or
    "gauss" (Gauss-Legendre, for smooth kernels).  The tolerance at which
    unbounded integrals are cut is fixed in :mod:`glstar.gstar`.
    """

    points_per_cell: int = 4
    t_points_per_octave: int = 6
    t_min: float = 2.0 ** -14
    t_max: float = 2.0 ** 6
    rule: str = "midpoint"

    def __post_init__(self) -> None:
        if self.points_per_cell < 1 or self.t_points_per_octave < 1:
            raise ValueError("rule orders must be at least 1")
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.rule not in ("midpoint", "gauss"):
            raise ValueError(f"unknown rule {self.rule!r}")

    def refined(self) -> "QuadratureSpec":
        """The same spec twice as fine: both node counts doubled."""
        return QuadratureSpec(
            points_per_cell=self.points_per_cell * 2,
            t_points_per_octave=self.t_points_per_octave * 2,
            t_min=self.t_min,
            t_max=self.t_max,
            rule=self.rule,
        )


# ---------------------------------------------------------------------------
# mesh construction
# ---------------------------------------------------------------------------

_REL_FINEST = 2.0 ** -48  # finest ladder step relative to the span being graded


def _graded_edge_rows(lo, hi, anchors, rel_finest: float,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`graded_axis_edges` on many intervals [lo_i, hi_i] in one
    batch: an (n, max(counts)) array whose row i starts with that interval's
    counts[i] edges, bit for bit, and repeats hi_i after them, and the
    counts.  Padding with hi_i makes the rows zero-width segments past their
    own end, so :func:`segment_nodes` reads them whole.  ``anchors`` is one
    list shared by every interval, or an (n, k) array whose row i holds
    interval i's own k anchors."""
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    if not (hi > lo).all():
        raise ValueError("empty axis interval")
    a = np.asarray(anchors, dtype=float)
    if a.ndim < 2:
        a = a.reshape(1, -1)  # shared: one row for every interval
    elif a.ndim > 2 or a.shape[0] != lo.size:
        raise ValueError("per-interval anchors need one row per interval")
    # step i of an anchor's ladder is h0 2^i, exactly h0 doubled i times; a
    # step of at least dmax = max(hi - a, a - lo) > 0 puts no edge inside
    # (lo, hi), so the ladder may run past dmax, and it runs to about 2 dmax.
    # A step of 0 first puts a - 0 = a itself on the lower ladder.
    doublings = 2.0 ** np.arange(-1, math.ceil(math.log2(2.0 / rel_finest)))
    doublings[0] = 0.0
    steps = (np.maximum(hi - a, a - lo) * rel_finest)[..., None] * doublings
    a = a[..., None]
    ladders = np.concatenate(((a - steps).reshape(lo.size, -1),
                              (a + steps[..., 1:]).reshape(lo.size, -1)),
                             axis=1)
    # sorted and deduplicated as np.unique would (which on first use imports
    # numpy.ma, over 1 MB resident, for nothing needed here): the clipped
    # candidates and the repeats become inf, and a second sort moves them
    # behind each row's edges
    edges = np.concatenate(
        (lo, hi, np.where((lo < ladders) & (ladders < hi), ladders, np.inf)),
        axis=1)
    edges.sort(axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.inf
    edges.sort(axis=1)
    counts = (edges < np.inf).sum(axis=1)
    edges = edges[:, :counts.max()]
    return np.minimum(edges, hi, out=edges), counts


def graded_axis_edges(
    lo: float,
    hi: float,
    anchors: Sequence[float] = (0.0,),
    rel_finest: float = _REL_FINEST,
) -> np.ndarray:
    """Segment edges on [lo, hi], geometrically refined toward each anchor.

    Around every anchor a the candidate edges are a +- h0 2^j, so inside the
    interval consecutive edges are within a factor two of each other in their
    distance to a.  Anchors may lie outside [lo, hi]; the clipped ladder then
    starts at the gap scale automatically.  Anchors inside the interval become
    edges themselves, which is what makes integrands with jumps at the anchors
    exactly resolvable by the midpoint rule.  One row of
    :func:`_graded_edge_rows`.
    """
    edges, (count,) = _graded_edge_rows(lo, hi, anchors, rel_finest)
    return edges[0, :count]


@functools.lru_cache(maxsize=64)
def _rule01(p: int, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the p-point rule on (0, 1), cached and read-only:
    every call hands out the same two arrays."""
    if rule == "midpoint":
        nodes = (np.arange(p) + 0.5) / p
        weights = np.full(p, 1.0 / p)
    elif rule == "gauss":
        x, w = np.polynomial.legendre.leggauss(p)
        nodes = 0.5 * (x + 1.0)
        weights = 0.5 * w
    else:
        raise ValueError(f"unknown rule {rule!r}")
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def segment_nodes(
    edges: np.ndarray, p: int, rule: str = "midpoint"
) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule over the segments delimited by ``edges``: flat arrays of
    nodes and matching weights for a plain Lebesgue integral along the axis.
    An (n, k) array of edges is n axes, one per row: the nodes and weights
    come back as (n, (k - 1) p) arrays, row by row the 1-d result."""
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    base, bw = _rule01(p, rule)
    nodes = edges[..., :-1, None] + widths[..., None] * base
    weights = widths[..., None] * bw
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def graded_meshes(
    lo,
    hi,
    anchors,
    p: int,
    rule: str = "midpoint",
    rel_finest: float = _REL_FINEST,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``segment_nodes(graded_axis_edges(lo_i, hi_i, anchors_i, rel_finest),
    p, rule)`` for every interval [lo_i, hi_i] in one batch, bit for bit:
    nodes and weights as (n, width) arrays, row i's mesh in its first
    sizes[i] entries (zero weights at hi_i after them), and the sizes.
    ``anchors`` is one list for every interval, or an (n, k) array with
    interval i's anchors in row i."""
    edges, counts = _graded_edge_rows(lo, hi, anchors, rel_finest)
    nodes, weights = segment_nodes(edges, p, rule)
    return nodes, weights, (counts - 1) * p


def octave_blocks(
    t_lo: float,
    t_hi: float,
    per_octave: int,
    rule: str = "midpoint",
) -> Iterator[tuple[float, float, np.ndarray, np.ndarray]]:
    """Per-octave view of :func:`octave_nodes`: yields ``(lo, hi, nodes,
    weights)`` for each piece of [t_lo, t_hi] between consecutive powers of
    two (the end pieces are clipped to the range).

    Each piece is subdivided into ``per_octave`` equal parts in log space and
    the rule is applied there: with s = log t the weight carries the e^s
    Jacobian, so integrands proportional to 1/t are integrated exactly by the
    midpoint variant.  Callers that track per-octave sums (tail reports,
    octave-pair loops) iterate these blocks instead of re-splitting the axis.
    """
    if not 0 < t_lo < t_hi:
        raise ValueError("need 0 < t_lo < t_hi")
    edges = [float(t_lo)]
    k = math.floor(math.log2(t_lo)) + 1
    while 2.0 ** k < t_hi:
        if 2.0 ** k > t_lo:
            edges.append(2.0 ** k)
        k += 1
    edges.append(float(t_hi))
    s_edges = np.log(np.array(edges))
    base, bw = _rule01(per_octave, rule)
    for i in range(len(edges) - 1):
        s0, s1 = s_edges[i], s_edges[i + 1]
        ds = s1 - s0
        t = np.exp(s0 + ds * base)
        yield edges[i], edges[i + 1], t, ds * bw * t


def octave_nodes(
    t_lo: float,
    t_hi: float,
    per_octave: int,
    rule: str = "midpoint",
) -> tuple[np.ndarray, np.ndarray]:
    """Log-uniform nodes and weights for a plain dt integral on [t_lo, t_hi]:
    the concatenation of the :func:`octave_blocks`.  Splitting at every power
    of two aligns the nodes with dyadic scale bands; downstream every scale
    measure is dt/t, which is why this is the default scale rule."""
    blocks = list(octave_blocks(t_lo, t_hi, per_octave, rule))
    return (np.concatenate([b[2] for b in blocks]),
            np.concatenate([b[3] for b in blocks]))


# ---------------------------------------------------------------------------
# step functions on dyadic lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepFunction:
    """A step function on the dyadic lattice of side 2^-level.

    The support box starts at lattice index ``lo`` (one integer per axis) and
    spans ``values.shape`` cells; outside the box the function equals the
    constant ``tail``.  Values are stored row-major.  Ordinary functions have
    tail 0; the modified ancestor patterns of the nested-case analysis carry
    their off-box constant in ``tail``, which is why it exists.

    Instances are immutable; arithmetic aligns operands to a common lattice
    (the finer level, the union box) exactly -- cells only ever get split,
    never merged, so alignment is value-preserving.
    """

    level: int
    lo: tuple[int, ...]
    values: np.ndarray
    tail: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != len(self.lo):
            raise ValueError("values rank must match the corner index")
        if vals.size == 0 or any(s <= 0 for s in vals.shape):
            raise ValueError("empty support")
        if not np.all(np.isfinite(vals)) or not math.isfinite(self.tail):
            raise ValueError("step function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lo", tuple(int(k) for k in self.lo))

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_side(self) -> float:
        return 2.0 ** -self.level

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        h = self.cell_side
        return tuple(
            (k * h, (k + s) * h) for k, s in zip(self.lo, self.shape)
        )

    # -- evaluation ---------------------------------------------------------

    def cell_index(self, axis: int, coords) -> np.ndarray:
        """Cell index along one axis, counted from the box's first cell, of
        each coordinate; coordinates outside the box give indices outside
        ``range(shape[axis])``."""
        scaled = np.asarray(coords, dtype=float) * 2.0 ** self.level
        # clip before the integer cast: coordinates far past the box (huge
        # tail-window meshes) must read as outside, not overflow int64
        return (np.floor(np.clip(scaled, -2.0 ** 62, 2.0 ** 62)).astype(np.int64)
                - self.lo[axis])

    def __call__(self, *coords):
        """Evaluate at points; broadcasts over array inputs."""
        coords = [np.asarray(c, dtype=float) for c in coords]
        if len(coords) != self.dim:
            raise ValueError("coordinate count must match dimension")
        idx = [self.cell_index(axis, c) for axis, c in enumerate(coords)]
        inside = np.ones(np.broadcast_shapes(*(i.shape for i in idx)), dtype=bool)
        for i, s in zip(idx, self.shape):
            inside = inside & (i >= 0) & (i < s)
        clipped = tuple(np.clip(i, 0, s - 1) for i, s in zip(idx, self.shape))
        picked = self.values[clipped]
        out = np.where(inside, picked, self.tail)
        return float(out) if out.ndim == 0 else out

    # -- integrals ----------------------------------------------------------

    def integral(self) -> float:
        if self.tail != 0.0:
            raise ValueError("integral undefined for nonzero tail")
        # fsum + power-of-two cell measure makes this exactly refinement-invariant
        return math.fsum(self.values.ravel().tolist()) * self.cell_side ** self.dim

    def inner(self, other: "StepFunction") -> float:
        """L2 pairing; defined whenever at least one tail vanishes."""
        if self.tail != 0.0 and other.tail != 0.0:
            raise ValueError("inner product undefined when both tails are nonzero")
        a, b, level, _ = _align(self, other)
        dim = self.dim
        return float((a * b).sum()) * (2.0 ** -level) ** dim

    def l2_norm_sq(self) -> float:
        return self.inner(self)

    # -- lattice arithmetic ---------------------------------------------------

    def refined(self, level: int) -> "StepFunction":
        """The same function represented on a finer lattice."""
        if level < self.level:
            raise ValueError("refinement only goes to finer levels")
        f = 2 ** (level - self.level)
        vals = self.values
        for ax in range(self.dim):
            vals = np.repeat(vals, f, axis=ax)
        return StepFunction(level=level, lo=tuple(k * f for k in self.lo),
                            values=vals, tail=self.tail)

    def padded(self, lo: Sequence[int], shape: Sequence[int]) -> "StepFunction":
        """The same function on an enlarged box (new cells filled with the tail)."""
        lo = tuple(int(k) for k in lo)
        shape = tuple(int(s) for s in shape)
        if any(nl > ol or nl + ns < ol + os
               for nl, ns, ol, os in zip(lo, shape, self.lo, self.shape)):
            raise ValueError("padded box must contain the current box")
        out = np.full(shape, self.tail)
        sl = tuple(slice(ol - nl, ol - nl + os)
                   for nl, ol, os in zip(lo, self.lo, self.shape))
        out[sl] = self.values
        return StepFunction(level=self.level, lo=lo, values=out, tail=self.tail)

    def __add__(self, other):
        if isinstance(other, StepFunction):
            a, b, level, lo = _align(self, other)
            return StepFunction(level=level, lo=lo, values=a + b,
                                tail=self.tail + other.tail)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, StepFunction):
            return self + (other * -1.0)
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return StepFunction(level=self.level, lo=self.lo,
                                values=self.values * float(c), tail=self.tail * float(c))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _align(f: StepFunction, g: StepFunction) -> tuple[np.ndarray, np.ndarray, int, tuple]:
    """Represent two step functions on a common lattice and box."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    level = max(f.level, g.level)
    f2, g2 = f.refined(level), g.refined(level)
    lo = tuple(min(a, b) for a, b in zip(f2.lo, g2.lo))
    hi = tuple(max(a + s, b + t)
               for a, s, b, t in zip(f2.lo, f2.shape, g2.lo, g2.shape))
    shape = tuple(h - l for l, h in zip(lo, hi))
    return f2.padded(lo, shape).values, g2.padded(lo, shape).values, level, lo
