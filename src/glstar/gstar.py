"""Quadrature of the two-parameter square function and its localized pieces.

The central object: for a kernel acting at scale pairs (t1, t2),

    g(f)(x)^2 = iint |theta_{t1,t2} f(x - y)|^2
                (t1/(t1+|y1|))^(n lam1) (t2/(t2+|y2|))^(m lam2)
                dy1 dy2 / (t1^n t2^m)  dt1/t1  dt2/t2,

where theta f(p) = iint K(p, z) f(z) dz.  Alongside the pointwise value and
the squared L2 norm, this module evaluates the two localized quantities of
the nested case, whose decay in the generation count k the decay ladders of
:func:`glstar.experiments.run_kdecay` measure: the weighted pair integral of
theta applied to the modified ancestor pattern of a cube times a Haar
function (:func:`q_quantity`), and the complement integral of one factor
outside the ancestor (:func:`k_quantity`).

Numerical conventions used throughout:

* scale integrals run per octave over the blocks of
  :func:`glstar.core.octave_blocks` (the log rule, exact for dt/t under the
  midpoint variant), and per-octave contributions are tracked so a too-small
  scale range is *reported*, never silently absorbed: the octave sums of
  each scale axis give one tail estimate (:func:`_octave_tail`);
* space integrals are written in the offset variable u = x - y.  theta of a
  constant-tail step function tends to tail * mass(kernel) far away, so the
  far field is a closed-form weight-tail term and the mesh only has to cover
  the structure zone around the support box;
* the pointwise value and the norm are computed in two layers, each with one
  octave-band assembly, and the kernel alone picks the layer.  Tensor
  kernels (everything built by :mod:`glstar.kernels`) go per axis:
  :func:`_octave_sums` sums each factor's one-axis :func:`response_gram`
  over each band's scale nodes at the band's position and contracts the
  two grams against f's values, in blocks of about _BLOCK = 2^16 values.
  Other kernels go jointly: :func:`_raw_octave_sums` makes each scale
  node's meshes once per sweep and sums the :func:`_raw_block` of each
  scale pair at both bands' positions, in blocks of at most _RAW_BLOCK =
  2^14 kernel values.  A block reaches the kernel as separate coordinate
  blocks (points, z1 rows, z2 nodes), so a kernel that separates evaluates
  each factor on rows or on z2 alone and only the product and the
  contraction span the block (see _BLOCK).  A route is one theta evaluator
  in one of these assemblies plus one choice of positions.  The evaluators
  are the exact per-axis cell integrals (one antiderivative per u-node and
  edge where the cell values jump), the raw per-axis profile quadrature
  (their independent oracle) and the raw kernel evaluations of the joint
  layer, priced accordingly;
* a position is never a set of nodes: per axis it is one point x or one
  interval (lo, hi) of x, and the weight (t/(t+|x - u|))^lam enters as its
  value at the point or its closed-form integral over the interval
  (:func:`_position_weight`).  The pointwise value takes the point itself;
  the norm takes, from :func:`_band_nodes`, the union of each band's
  Whitney cubes or the window around the support.

Negative values produced by roundoff under the final square root are clamped
to zero and flagged on the returned record.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Params,
    QuadratureSpec,
    StepFunction,
    graded_axis_edges,
    graded_meshes,
    octave_blocks,
    octave_nodes,
    segment_nodes,
)
from .dyadic import DyadicCube, ShiftedGrid
from .haar import HaarIndex, haar_function, s_function
from .kernels import ConvolutionFactor, Kernel, weight_total, weight_window

__all__ = [
    "GStarValue",
    "apply_theta",
    "axis_grams",
    "gstar_pointwise",
    "gstar_sq_norm",
    "k_quantity",
    "q_quantity",
    "response_gram",
]

# Finest graded-mesh step relative to the span being meshed; the meshes are
# anchored at every integrand kink, so a fixed relative floor suffices.
_MESH_REL = 2.0 ** -20

# Structure radius in units of t: beyond this distance from the support box,
# theta(u) differs from its far-field constant by O(pad^(-1-alpha)), which
# the closed-form tail term absorbs at the tolerances used here.
_PAD_UNITS = 128.0

# The raw-evaluation (non-tensor) paths trade mesh density for kernel calls.
_RAW_PAD_UNITS = 16.0
_RAW_MESH_REL = 2.0 ** -10
# Most pieces a lattice cell is split into on the raw path's z-mesh.
_REFINE_CAP = 64

# The per-axis raw oracle is one-dimensional and can afford density.
_ORACLE_PAD_UNITS = 64.0
_ORACLE_MESH_REL = 2.0 ** -16

# Relative tail size above which a truncated range is reported.
_TAIL_WARN = 1e-2

# Tolerance at which unbounded integrals are cut: the raw path's tail windows
# and the norm's position window reach where their integrands fall below it.
_TRUNCATION_EPS = 1e-9

# Values per block of the chunked contractions, so that a block's
# temporaries stay in cache.  A temporary past glibc's mmap threshold (128 KB
# in a fresh process, raised when a larger mapped array is freed) goes back
# to the OS when freed and is faulted in again by the next block; loops over
# arrays of one size (the row-chunk buffers of _mesh_theta, the scale nodes
# of _unit_lag_rows) make them once.  The per-axis layer streams about
# _BLOCK values a block: a global 2^14 block slowed the drivers benchmark by
# about 2 %.  The joint raw layer (_mesh_theta) streams at most _RAW_BLOCK
# kernel values; as it hands the kernel coordinate blocks, only the product
# and the matrix-vector product span a block.  On the opaque benchmark (2
# cores, 1 BLAS thread, alternating runs) 2^15 was lower than 2^14 in 3 of
# 5 pairs twice, and 2^16 slower than both in 5 of 5, so the block stays
# at 2^14; either larger block also moves c_ij by 1-3e-16 relative.
_BLOCK = 2 ** 16
_RAW_BLOCK = 2 ** 14


@dataclass(frozen=True)
class GStarValue:
    """A pointwise square-function value with its quadrature bookkeeping.

    ``value`` is the square root of the accumulated quadrature sum; a
    negative roundoff sum is clamped to zero and ``clamped`` set.  ``error``
    carries the scale-range tail estimates (both ends of both axes)
    propagated to the value.
    """

    point: tuple
    value: float
    error: float
    spec: QuadratureSpec
    clamped: bool = False

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError("square-function value must be a nonnegative real")
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))


# ---------------------------------------------------------------------------
# axis-level building blocks (everything here is one-dimensional)
# ---------------------------------------------------------------------------


def _axis_edges(f: StepFunction, axis: int = 0) -> np.ndarray:
    h = f.cell_side
    return f.lo[axis] * h + h * np.arange(f.shape[axis] + 1)


def _offset_span(box: tuple[float, float], t, anchors,
                 pad_units: float = _PAD_UNITS):
    """Ends (lo, hi) of the offset-variable (u = x - y) mesh at the scale t,
    a float or an array of them: the zone where theta still differs
    appreciably from its far-field constant, and pad_units * t around every
    anchor.  ``anchors`` is one list for every scale or an (N, k) array, row
    i the anchors of scale t[i]."""
    blo, bhi = box
    anchors = np.asarray(anchors, dtype=float)
    pad = pad_units * t + (bhi - blo)
    return (np.minimum(blo - pad, anchors.min(axis=-1) - pad_units * t),
            np.maximum(bhi + pad, anchors.max(axis=-1) + pad_units * t))


def _offset_mesh(box: tuple[float, float], t: float, spec: QuadratureSpec,
                 anchors: Sequence[float], pad_units: float = _PAD_UNITS,
                 rel: float = _MESH_REL,
                 ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Offset-variable mesh over :func:`_offset_span`, graded toward every
    anchor.  Returns nodes, weights and the two mesh edges."""
    lo, hi = _offset_span(box, t, anchors, pad_units)
    grid = graded_axis_edges(lo, hi, anchors, rel_finest=rel)
    u, du = segment_nodes(grid, spec.points_per_cell, spec.rule)
    return u, du, float(lo), float(hi)


def _position_weight(t, lam: float, at, u: np.ndarray) -> np.ndarray:
    """The position weight at the offsets u: (t/(t+|x-u|))^lam at a point
    ``at`` = x, or its closed-form integral over x in an interval ``at`` =
    (lo, hi), a tuple.  t and a point broadcast against u."""
    if not isinstance(at, tuple):
        return (t / (t + np.abs(at - u))) ** lam
    lo, hi = at
    return weight_window(t, lam, lo - u, hi - u)


def _weighted_theta_gram(theta: np.ndarray, u: np.ndarray, du: np.ndarray,
                         sizes: np.ndarray, u_lo: np.ndarray,
                         u_hi: np.ndarray, far_const: float, at,
                         t: np.ndarray, lam: float) -> np.ndarray:
    """int_x int theta_i theta_j(x - y) (t/(t+|y|))^lam dy / t for rows
    theta_i on a u-mesh with one far-field constant past [u_lo, u_hi], x the
    point or the interval ``at``, at N scales at once: theta is (N, k, M),
    u and du (N, M) with scale n's mesh in their first sizes[n] entries,
    u_lo, u_hi and t (N,); ``at`` is one (lo, hi) tuple for every scale or
    an (N,) array of points.  The weight vectors are one pass over the
    batch; theta diag(weight) theta^T then runs per scale on its own nodes,
    since a BLAS sum over a zero-padded row groups its terms apart from the
    unpadded one, so only this way is a scale in a batch bit for bit the
    scale alone.  Returns (N, k, k).  Only a point carries a far field; an
    interval's rows are compact (``far_const`` 0)."""
    interval = isinstance(at, tuple)
    x = at if interval else at[:, None]
    weight = _position_weight(t[:, None], lam, x, u) * du
    k = theta.shape[1]
    out = np.empty((t.size, k, k))
    for n, m in enumerate(sizes.tolist()):
        th = theta[n, :, :m]
        gram = (th * weight[n, :m]) @ th.T
        if far_const != 0.0 and not interval:
            far = weight_total(t[n], lam) - weight_window(
                t[n], lam, at[n] - u_hi[n], at[n] - u_lo[n])
            gram = gram + far_const * far_const * far
        out[n] = gram / t[n]
    return out


def response_gram(factor: ConvolutionFactor, f: StepFunction, at, t,
                  lam: float, spec: QuadratureSpec, rows=None,
                  raw: bool = False) -> np.ndarray:
    """The k x k gram of one-axis responses at the scale t,

        G[i, j] = int_x int theta_t g_i(x - y) theta_t g_j(x - y)
                  (t/(t+|y|))^lam dy / t,

    with x the point or integrated over the interval ``at``, the weight's
    x-integral taken in closed form.  g_i is the step function with f's
    lattice and tail and the cell values ``rows[i]`` (f itself when
    ``rows`` is None).

    ``t`` is one scale, giving (k, k), or a 1-d array of N scales, giving an
    (N, k, k) stack whose n-th gram is the one-scale call at t[n], bit for
    bit.  ``at`` is read by its type: a ``(lo, hi)`` tuple is an interval,
    shared by every scale; anything else is read as an array of points, a
    float being one point shared by every scale and an array of shape (N,)
    one point per scale (a list is an array here, never an interval).  A
    point array of any other shape is refused.  The scales run in blocks
    whose three (scales x u-nodes x jump edges) arrays -- the offsets from
    the jump edges, their antiderivatives and the antiderivative's
    workspace -- hold about ``_BLOCK`` values together, each block's
    u-meshes one :func:`glstar.core.graded_meshes` batch with every scale's
    own anchors.

    theta comes from the exact cell integrals summed by parts,

        theta_i(u) = tail * mass + sum_e J_ie A(u - e),

    with J_ie the jump of rows[i] - tail at the edge e (zero past both
    ends), A the odd antiderivative, and e running over the edges where
    some row jumps: one antiderivative per u-node and jump edge, and no
    (u-nodes x cells) matrix.  With ``raw`` it comes from
    :func:`_axis_theta_raw` instead (compact f only).  The u-mesh spans f's
    structure zone and the weight kinks at the point or at both interval
    ends; past it theta is its far-field constant tail * mass, closed in
    form against a point's weight and refused for an interval."""
    if f.dim != 1:
        raise ValueError("a response gram needs a one-dimensional f")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("the scales must be a float or a 1-d array")
    ts = ts.reshape(-1)
    interval = isinstance(at, tuple)
    if interval:
        if len(at) != 2:
            raise ValueError("an interval position is a (lo, hi) tuple")
        if f.tail != 0.0:
            raise ValueError("an interval position needs a compact function")
        kinks = np.broadcast_to(at, (ts.size, 2))
    else:
        at = np.asarray(at, dtype=float)
        if at.ndim != 0 and at.shape != np.shape(t):
            raise ValueError("a point array needs one point per scale")
        at = np.broadcast_to(at, ts.shape)
        kinks = at[:, None]
    rows = np.atleast_2d(f.values if rows is None else rows)
    edges = _axis_edges(f)
    anchors = list(edges) if edges.size <= 33 else [edges[0], edges[-1]]
    # every scale's anchors: f's edges and the weight kinks of its position
    anchors = np.column_stack(
        (np.broadcast_to(anchors, (ts.size, len(anchors))), kinks))
    far = f.tail * factor.mass(t)
    if raw:
        pad, rel, width = _ORACLE_PAD_UNITS, _ORACLE_MESH_REL, rows.shape[0]
    else:
        pad, rel = _PAD_UNITS, _MESH_REL
        # summation by parts: the cell values' jumps, zero past both ends,
        # against the odd antiderivative at the edges where some row jumps
        jumps = np.diff(rows - f.tail, axis=1, prepend=0.0, append=0.0)
        at_jump = np.flatnonzero(np.any(jumps != 0.0, axis=0))
        jumps, jump_edges = jumps[:, at_jump], edges[at_jump]
        width = max(1, at_jump.size)
    out = np.empty((ts.size,) + (rows.shape[0],) * 2)
    start, step = 0, 1
    while start < ts.size:
        block = slice(start, start + step)
        tb = ts[block]
        lo, hi = _offset_span(f.box[0], tb, anchors[block], pad)
        u, du, sizes = graded_meshes(lo, hi, anchors[block],
                                     spec.points_per_cell, spec.rule,
                                     rel_finest=rel)
        if raw:
            theta = np.zeros((tb.size, rows.shape[0], u.shape[1]))
            for n, m in enumerate(sizes.tolist()):
                theta[n, :, :m] = [_axis_theta_raw(
                    factor, StepFunction(f.level, f.lo, row, f.tail), tb[n],
                    u[n, :m], spec) for row in rows]
        else:
            theta = jumps @ factor.antiderivative(
                tb[:, None, None], u[:, :, None] - jump_edges,
            ).transpose(0, 2, 1)
            if far != 0.0:
                theta += far
        out[block] = _weighted_theta_gram(theta, u, du, sizes, lo, hi, far,
                                          at if interval else at[block], tb,
                                          lam)
        start += tb.size
        # the next block sized by this one's widest mesh
        step = max(1, _BLOCK // (3 * u.shape[1] * width))
    return out if np.ndim(t) else out[0]


def _octave_tail(octs: np.ndarray) -> float:
    """Tail estimate of one scale axis past both ends of its range, from the
    decay ratio of the two outermost octave sums at each end; inf when an
    end does not decay or the range is a single octave."""
    if len(octs) < 2:
        return math.inf
    tail = 0.0
    for first, second in ((octs[0], octs[1]), (octs[-1], octs[-2])):
        if second <= 0.0:
            if first > 0.0:
                return math.inf
            continue
        rho = first / second
        if rho >= 0.9:
            return math.inf
        tail += first * rho / (1.0 - rho)
    return float(tail)


# ---------------------------------------------------------------------------
# theta: kernel applied to a step function
# ---------------------------------------------------------------------------


def _check_pair_dims(kernel: Kernel) -> None:
    if kernel.n != 1 or kernel.m != 1:
        raise NotImplementedError(
            "quadrature paths are implemented for one-dimensional factors")


def _tensor_step(f1: StepFunction, f2: StepFunction) -> StepFunction:
    """The product f1 (x) f2 of two compact axis functions as a plane step
    function."""
    level = max(f1.level, f2.level)
    a, b = f1.refined(level), f2.refined(level)
    return StepFunction(level=level, lo=(a.lo[0], b.lo[0]),
                        values=np.multiply.outer(a.values, b.values))


def _split_pair(f) -> tuple[StepFunction, StepFunction] | None:
    if isinstance(f, tuple):
        if len(f) != 2 or not all(isinstance(g, StepFunction) for g in f):
            raise ValueError("a tensor argument must be a pair of step functions")
        if f[0].dim != 1 or f[1].dim != 1:
            raise ValueError("tensor factor functions must be one-dimensional")
        return f
    if not isinstance(f, StepFunction):
        raise TypeError("expected a StepFunction or a pair of them")
    return None


def _refined_axis_nodes(f: StepFunction, axis: int, t: float, p: int,
                        rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes along one axis of f's box: each lattice cell is split
    until the pieces are below t/2 (at most _REFINE_CAP pieces), so a kernel
    smooth at scale t is resolved without per-point meshes."""
    h = f.cell_side
    lo = f.lo[axis] * h
    edges = [lo]
    for _ in range(f.shape[axis]):
        parts = min(_REFINE_CAP, max(1, math.ceil(h / (0.5 * t))))
        start = edges[-1]
        edges.extend(start + h * (j + 1) / parts for j in range(parts))
    return segment_nodes(np.array(edges), p, rule)


def _axis_theta_raw(factor: ConvolutionFactor, f: StepFunction, t: float,
                    u: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """theta_t f on a u-mesh from raw profile values (no antiderivatives):
    the independent oracle for the exact cell integrals of
    :func:`response_gram`.  Compact f only.  The z-mesh subdivides cells to
    t/8 so the midpoint rule carries the profile kink at z = u."""
    if f.tail != 0.0:
        raise ValueError("the raw axis oracle needs a compact function")
    h = f.cell_side
    parts = min(512, max(1, math.ceil(h / (0.125 * t))))
    edges = _axis_edges(f)[0] + h / parts * np.arange(f.shape[0] * parts + 1)
    z, wz = segment_nodes(edges, spec.points_per_cell, spec.rule)
    fw = f(z) * wz
    out = np.empty(u.shape)
    step = max(1, _BLOCK // max(1, z.size))
    for i in range(0, u.size, step):
        out[i:i + step] = factor.profile(
            t, np.abs(u[i:i + step, None] - z[None, :])) @ fw
    return out


def _lookup_axis(f: StepFunction, axis: int, z, w) -> tuple:
    """One axis (z, w, k) of a :func:`_mesh_theta` mesh: nodes, weights and
    each node's slot in ``table = np.pad(f.values, (0, 1), constant_values=
    f.tail)``, so ``table[np.ix_(k1, k2)]`` is ``f(z1[:, None], z2)``."""
    k = f.cell_index(axis, z)
    return z, w, np.where((k >= 0) & (k < f.shape[axis]), k, f.shape[axis])


def _mesh_theta(kernel: Kernel, table: np.ndarray, t1: float, t2: float,
                pts: np.ndarray, axis1, axis2) -> np.ndarray:
    """sum_z K(p, z) f(z) w1(z1) w2(z2) over the tensor mesh z1 x z2 for an
    (N, 2) array of points p, in blocks of at most _RAW_BLOCK kernel values
    or one z2 row; each axis is a :func:`_lookup_axis` into f's ``table``.

    A block is a chunk of points against a chunk of z1 rows and all of z2.
    When the whole mesh fits in a block the points are chunked and the rows
    are not; otherwise each point meets one row chunk at a time and the
    chunks' sums accumulate.  ``evaluate`` gets a block as coordinate
    blocks, never as mesh points: (P, 1, 1, 1) points, (1, R, 1, 1) rows
    and (1, 1, Z2, 1) z2, so a tensor kernel's factors take P x R and P x
    Z2 values and only their product fills the block; a coupled kernel
    still returns all P x R x Z2 values, and any other shape is refused.
    The f * w weights go into two row-chunk buffers made once per call."""
    (z1, w1, k1), (z2, w2, k2) = axis1, axis2
    rows = min(z1.size, max(1, _RAW_BLOCK // max(1, z2.size)))
    step = max(1, _RAW_BLOCK // (rows * z2.size))
    out = np.zeros(pts.shape[0])
    picked = np.empty((rows, z2.size))
    weights = np.empty((rows, z2.size))
    p1, p2 = pts[:, 0, None, None, None], pts[:, 1, None, None, None]
    for r in range(0, z1.size, rows):
        zr = z1[r:r + rows]
        y = (zr[None, :, None, None], z2[None, None, :, None])
        fw = np.multiply.outer(w1[r:r + rows], w2, out=weights[:zr.size])
        fw *= np.take(table[k1[r:r + rows]], k2, axis=1,
                      out=picked[:zr.size])
        fw = fw.ravel()
        for i in range(0, pts.shape[0], step):
            x = (p1[i:i + step], p2[i:i + step])
            kv = np.asarray(kernel.evaluate(t1, t2, x, y), dtype=float)
            if kv.shape != (len(x[0]), zr.size, z2.size):
                raise ValueError("kernel evaluate must broadcast over its "
                                 f"coordinate blocks: got shape {kv.shape}")
            out[i:i + step] += kv.reshape(-1, fw.size) @ fw
    return out


def _theta_points_general(kernel: Kernel, f: StepFunction, t1: float,
                          t2: float, pts: np.ndarray, spec: QuadratureSpec,
                          z_axes=None) -> np.ndarray:
    """theta f at an (N, 2) array of points from raw kernel evaluations.

    As the closed forms split it, theta f(p) = theta(f - tail)(p) + tail M(p)
    with M(p) = iint K(p, z) dz.  The compact part, skipped when zero, shares
    one z-mesh across all points, the :func:`_lookup_axis` pair ``z_axes``
    (by default f's cells refined at (t1, t2)).  The mass takes one window
    per point, graded toward p alone and of radius t (2/(a eps))^(1/a) for
    the declared decay exponent a, so every window is a translate of one
    relative mesh; a radius past e^700 is refused before any kernel call."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    decay = ((t1, kernel.alpha, "alpha"), (t2, kernel.beta, "beta"))
    for t, a, name in decay if f.tail != 0.0 else ():
        if math.log(t) + math.log(2.0 / (a * _TRUNCATION_EPS)) / a > 700.0:
            raise ValueError(f"declared exponent {name} = {a:g} is too small "
                             "for the raw path's tail window")
    out = np.zeros(pts.shape[0])
    table = np.pad(f.values - f.tail, (0, 1))
    if table.any():
        out = _mesh_theta(kernel, table, t1, t2, pts, *(z_axes or [
            _lookup_axis(f, axis, *_refined_axis_nodes(
                f, axis, t, spec.points_per_cell, spec.rule))
            for axis, t in enumerate((t1, t2))]))
    if f.tail == 0.0:
        return out
    one = StepFunction(0, (0, 0), np.ones((1, 1)), tail=1.0)
    one_table = np.pad(one.values, (0, 1), constant_values=one.tail)
    # each ladder bottoms out at t/8, below the kernel ridge width t, or the
    # whole window would be priced at the (huge) tail radius
    radii = [(t * (2.0 / (a * _TRUNCATION_EPS)) ** (1.0 / a), t)
             for t, a, _ in decay]
    for i, p in enumerate(pts):
        window = (segment_nodes(
            graded_axis_edges(c - r, c + r, (c,),
                              rel_finest=min(2.0 ** -20, 0.125 * t / r)),
            spec.points_per_cell, spec.rule) for c, (r, t) in zip(p, radii))
        out[i] += f.tail * _mesh_theta(kernel, one_table, t1, t2, p[None], *(
            _lookup_axis(one, axis, *zw) for axis, zw in enumerate(window)))[0]
    return out


def apply_theta(kernel: Kernel, f: StepFunction, y, t1: float, t2: float,
                spec: QuadratureSpec | None = None) -> float:
    """theta_{t1,t2} f at the point y: iint K(y, z) f(z) dz.

    Tensor kernels integrate each lattice cell in closed form, with a
    constant tail contributing tail * mass1 * mass2 exactly; other kernels go
    through the raw-evaluation quadrature."""
    spec = spec or QuadratureSpec()
    if t1 <= 0 or t2 <= 0:
        raise ValueError("scales must be positive")
    _check_pair_dims(kernel)
    if f.dim != kernel.n + kernel.m:
        raise ValueError("function dimension must match the kernel's plane")
    y = np.asarray(y, dtype=float).reshape(2)
    if kernel.tensor_parts is not None:
        g1, g2 = kernel.tensor_parts
        e1, e2 = _axis_edges(f, 0), _axis_edges(f, 1)
        c1 = g1.cell_integral(t1, y[0], e1)
        c2 = g2.cell_integral(t2, y[1], e2)
        val = c1 @ (f.values - f.tail) @ c2
        if f.tail != 0.0:
            val += f.tail * g1.mass(t1) * g2.mass(t2)
        return float(val)
    return float(_theta_points_general(kernel, f, t1, t2, y[None, :], spec)[0])


# ---------------------------------------------------------------------------
# raw scale-pair assembly (non-tensor kernels)
# ---------------------------------------------------------------------------


def _raw_axis(f: StepFunction, axis: int, t, at, lam: float, spec) -> tuple:
    """One axis of the joint raw layer at the scale t: the u-mesh of f's
    structure zone on that axis, its weights times the position weight at
    ``at`` (:func:`_position_weight`), and the :func:`_lookup_axis` of f's
    cells refined at t.  The meshes are the coarser raw-path family: this
    layer prices kernel calls, not mesh density."""
    box = f.box[axis]
    u, du, _, _ = _offset_mesh(box, t, spec, box, _RAW_PAD_UNITS,
                               _RAW_MESH_REL)
    return u, _position_weight(t, lam, at, u) * du, _lookup_axis(
        f, axis, *_refined_axis_nodes(f, axis, t, spec.points_per_cell,
                                      spec.rule))


def _raw_block(kernel: Kernel, f: StepFunction, t1: float, t2: float,
               axis1: tuple, axis2: tuple, spec: QuadratureSpec) -> float:
    """The inner integral iint |theta f(x - y)|^2 w1 w2 dy / (t1 t2) at one
    scale pair, each axis a :func:`_raw_axis`: theta from raw kernel values
    on the tensor u-mesh of the two structure zones, contracted against
    both weights.  Compact f only (there is no closed far field)."""
    (u1, wg1, z1), (u2, wg2, z2) = axis1, axis2
    pts = np.stack(np.meshgrid(u1, u2, indexing="ij"), axis=-1).reshape(-1, 2)
    th = _theta_points_general(kernel, f, t1, t2, pts, spec, (z1, z2))
    th2 = (th * th).reshape(u1.size, u2.size)
    return float(wg1 @ th2 @ wg2) / (t1 * t2)


def _raw_octave_sums(kernel: Kernel, f: StepFunction, lams: Sequence[float],
                     ranges: tuple[tuple[float, float], ...],
                     spec: QuadratureSpec, band_nodes,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The joint octave-band assembly: the raw scale-pair sum of
    int int |theta f|^2 w1 w2 dt1/t1 dt2/t2 over the two scale ranges, at
    one position per band.

    ``band_nodes[axis](lo, hi)`` gives the point or interval used for the
    scale band (lo, hi] of that axis.  Each scale node's band, scale, dt/t
    weight and :func:`_raw_axis` at its band's position are made once per
    sweep, and every scale pair evaluates its :func:`_raw_block` on the two
    axes.  Returns the per-octave sums along each scale axis."""
    sweeps = [[(i, t, w / t, _raw_axis(f, axis, t, nodes(lo, hi), lam, spec))
               for i, (lo, hi, tn, tw) in enumerate(octave_blocks(
                   *r, spec.t_points_per_octave, spec.rule))
               for t, w in zip(tn, tw)]
              for axis, (nodes, r, lam) in enumerate(zip(band_nodes, ranges,
                                                         lams))]
    o1, o2 = (np.zeros(sweep[-1][0] + 1) for sweep in sweeps)
    for i1, t1, s1, a1 in sweeps[0]:
        for i2, t2, s2, a2 in sweeps[1]:
            contrib = _raw_block(kernel, f, t1, t2, a1, a2, spec) * s1 * s2
            o1[i1] += contrib
            o2[i2] += contrib
    return o1, o2


def _octave_sums(kernel: Kernel, f, pair, lams, ranges, spec: QuadratureSpec,
                 band_nodes, raw: bool = False,
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """The octave-band assembly the kernel picks, with ``band_nodes[axis](lo,
    hi)`` the point or interval of a scale band; returns the per-octave sums
    along each scale axis and the total.

    A kernel without tensor parts takes the joint raw layer.  For a tensor
    kernel theta f is sum_ab V_ab theta1 g1_a (x) theta2 g2_b (V = 1 and g
    the axis functions of a pair f; V the cell values and g the unit cells
    of a plane f), so a squared piece is sum V_ab V_cd C1[a, c] C2[b, d] in
    axis grams C, each a :func:`response_gram` at a band's position summed
    over its scale nodes; ``raw`` picks its oracle theta."""
    if kernel.tensor_parts is None:
        o1, o2 = _raw_octave_sums(kernel, _tensor_step(*pair) if pair else f,
                                  lams, ranges, spec, band_nodes)
        return o1, o2, float(o1.sum())
    if pair is not None:
        axes, v = [(g, None) for g in pair], np.ones((1, 1))
    elif f.tail != 0.0:
        raise ValueError("the per-axis layer needs a compact plane f")
    else:
        axes = [(StepFunction(f.level, (lo,), np.zeros(n)), np.eye(n))
                for lo, n in zip(f.lo, f.shape)]
        v = f.values
    c1, c2 = (np.array([
        sum(response_gram(g, fa, nodes(lo, hi), t, lam, spec, rows, raw)
            * (w / t) for t, w in zip(tn, tw))
        for lo, hi, tn, tw in octave_blocks(*r, spec.t_points_per_octave,
                                            spec.rule)])
        for g, (fa, rows), lam, r, nodes in zip(kernel.tensor_parts, axes,
                                                lams, ranges, band_nodes))
    m1, m2 = c1.sum(axis=0), c2.sum(axis=0)
    o1 = np.array([np.sum((c @ v @ m2) * v) for c in c1])
    o2 = np.array([np.sum((m1 @ v @ c) * v) for c in c2])
    return o1, o2, float(np.sum((m1 @ v @ m2) * v))


# ---------------------------------------------------------------------------
# pointwise square function
# ---------------------------------------------------------------------------


def _sqrt_clamped(v: float) -> tuple[float, bool]:
    if v < 0.0:
        return 0.0, True
    return math.sqrt(v), False


def gstar_pointwise(kernel: Kernel, f, x, params: Params,
                    spec: QuadratureSpec | None = None,
                    route: str = "auto") -> GStarValue:
    """The square-function value at the point x.

    ``f`` is a plane step function, or a pair (f1, f2) standing for their
    tensor product.  Every route puts the point as every band's position
    into one octave-band assembly with one theta evaluator; a tensor kernel
    takes the per-axis assembly, any other kernel the joint one:

    * "fast" (tensor kernels only): the per-axis assembly on the exact cell
      integrals;
    * "full": the independent oracle.  A tensor kernel runs the per-axis
      assembly on raw profile values (no antiderivatives, no closed far
      field), any other kernel the joint assembly on raw kernel
      evaluations.  Compact f only;
    * "auto" picks fast when available.

    ``error`` propagates the tail estimate of each scale axis to the value;
    a tail above 1e-2 of the squared value, or one that cannot be bounded
    (then ``error`` is inf), gives one "scale-range truncation"
    ``RuntimeWarning`` per call."""
    spec = spec or QuadratureSpec()
    if route not in ("auto", "fast", "full"):
        raise ValueError(f"unknown route {route!r}")
    _check_pair_dims(kernel)
    x = np.asarray(x, dtype=float).reshape(2)
    pair = _split_pair(f)
    lams = params.weight_powers
    tensor = kernel.tensor_parts is not None
    if route == "auto":
        route = "fast" if tensor else "full"
    if route == "fast" and not tensor:
        raise ValueError("fast route needs a tensor kernel")
    if route == "full" and any(g.tail != 0.0 for g in pair or (f,)):
        raise ValueError("full route needs a compactly supported function")
    t_range = (spec.t_min, spec.t_max)
    point = [lambda lo, hi, xa=xa: xa for xa in x]

    o1, o2, sq = _octave_sums(kernel, f, pair, lams, (t_range, t_range), spec,
                              point, raw=(route == "full"))
    err_sq = _octave_tail(o1) + _octave_tail(o2)
    if not err_sq <= _TAIL_WARN * abs(sq):
        warnings.warn(
            "scale-range truncation: octave contributions do not decay inside "
            f"[{spec.t_min:g}, {spec.t_max:g}]; squared-value tail estimate "
            f"{err_sq:g}", RuntimeWarning, stacklevel=2)
    value, clamped = _sqrt_clamped(sq)
    error = err_sq / (2.0 * value) if value > 0 else math.sqrt(max(err_sq, 0.0))
    return GStarValue(point=tuple(x), value=value, error=error, spec=spec,
                      clamped=clamped)


# ---------------------------------------------------------------------------
# squared norm
# ---------------------------------------------------------------------------


def _grid_t_range(grid: ShiftedGrid, spec: QuadratureSpec) -> tuple[float, float]:
    lo = max(2.0 ** -(grid.j_max + 1), spec.t_min)
    hi = min(2.0 ** -grid.j_min, spec.t_max)
    if not lo < hi:
        raise ValueError(
            "scale-range truncation: the grid's scale strip misses the spec's")
    return lo, hi


def gstar_sq_norm(kernel: Kernel, f, params: Params,
                  grid_pair: tuple[ShiftedGrid, ShiftedGrid],
                  spec: QuadratureSpec | None = None,
                  route: str = "whitney") -> float:
    """The squared L2 norm of the square function of f.

    The "whitney" and "direct" routes run the octave-band assembly of their
    layer -- per axis on the exact cell integrals for a tensor kernel,
    jointly on raw kernel evaluations for any other kernel -- and differ
    only in the position interval each scale band integrates over, the
    weight's integral over it taken in closed form (:func:`_band_nodes`):

    * "whitney" (default): the union of the cubes of the band's own grid
      level that meet a window around the support, so the sum runs over the
      grid's Whitney regions -- the rewriting behind the whole averaging
      argument.  The regions tile the scale strip the grid pair covers.
    * "direct": the window at the top scale itself, the same for every
      band, so the sum is the pointwise squares integrated over the window.
    * "gram": tensor kernels only.  Integrating x over the whole line
      decouples the weight from theta exactly, so the norm contracts the
      lattice Gram matrices of the two factor responses, the pair that
      :func:`axis_grams` returns; this is the fast path the bulk
      experiments use.

    "whitney" and "direct" warn "position truncation" when, on some axis,
    the window at the top scale leaves out more than 1e-2 of the weight mass
    seen from an end of the support (closed form, :func:`weight_window`).

    f is a plane step function or a pair of axis functions; tails must
    vanish.  The scale strip is the grid pair's, clipped to the spec's."""
    spec = spec or QuadratureSpec()
    if route not in ("whitney", "direct", "gram"):
        raise ValueError(f"unknown route {route!r}")
    _check_pair_dims(kernel)
    grid1, grid2 = grid_pair
    if grid1.dim != 1 or grid2.dim != 1:
        raise ValueError("the grid pair must consist of one-dimensional grids")
    pair = _split_pair(f)
    if any(g.tail != 0.0 for g in pair or (f,)):
        raise ValueError("norms need vanishing tails")
    lams = params.weight_powers
    ranges = (_grid_t_range(grid1, spec), _grid_t_range(grid2, spec))
    f2d = _tensor_step(*pair) if pair is not None else f

    if route == "gram":
        m1, m2 = axis_grams(kernel, f2d, params, grid_pair, spec)
        area = f2d.cell_side ** 2
        vals = f2d.values * area  # the contraction runs over cell integrals
        # sum_{a,b,c,d} m1[a,c] m2[b,d] v[a,b] v[c,d], the grams being symmetric
        return float(np.sum((m1 @ vals @ m2) * vals))

    loss = max(_position_loss(box, t_hi, lam)
               for box, lam, (_, t_hi) in zip(f2d.box, lams, ranges))
    if loss > _TAIL_WARN:
        warnings.warn(
            f"position truncation: the window misses {loss:.3g} of the weight "
            "seen from an end of the support; widen the window",
            RuntimeWarning, stacklevel=2)
    grids = grid_pair if route == "whitney" else (None, None)
    nodes = [_band_nodes(box, grid, r[1])
             for box, grid, r in zip(f2d.box, grids, ranges)]
    return _octave_sums(kernel, f, pair, lams, ranges, spec, nodes)[2]


def axis_grams(kernel: Kernel, f, params: Params,
               grid_pair: tuple[ShiftedGrid, ShiftedGrid],
               spec: QuadratureSpec | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The two per-axis Gram matrices (m1, m2) of the "gram" route of
    :func:`gstar_sq_norm` on f's lattice.

    The route's squared norm of a function with cell values v on that
    lattice is h^4 v^T (m1 (x) m2) v, h the cell side, so the grams'
    spectra bound the norm ratio over all such functions.  Both are
    symmetric Toeplitz, n x n for n cells along their axis.  Only f's
    lattice (level and shape) is read.  The matrices are cached and shared,
    so they are read-only: an axis whose factor, weight power and scale
    strip equal the other's gets the very same array.  Every gram is formed
    by dilation from one table of unit-lattice lag rows per factor shape
    and rule (:func:`_axis_gram`), so grams of other levels, amplitudes or
    axes that share scale octaves evaluate no antiderivative there again; a
    sweep over levels asks for the finest first, whose rows are the
    longest.  Tensor kernels with one-dimensional factors only; the scale
    strip is the grid pair's, clipped to the spec's."""
    spec = spec or QuadratureSpec()
    _check_pair_dims(kernel)
    if kernel.tensor_parts is None:
        raise NotImplementedError("the gram route needs a tensor kernel")
    grid1, grid2 = grid_pair
    if grid1.dim != 1 or grid2.dim != 1:
        raise ValueError("the grid pair must consist of one-dimensional grids")
    pair = _split_pair(f)
    f2d = _tensor_step(*pair) if pair is not None else f
    if f2d.dim != 2:
        raise ValueError("expected a plane step function or a pair of them")
    return tuple(_axis_gram(g, f2d.level, n, lam, _grid_t_range(grid, spec),
                            spec)
                 for g, n, lam, grid in zip(kernel.tensor_parts, f2d.shape,
                                            params.weight_powers, grid_pair))


def _norm_window(box: tuple[float, float], t_hi: float) -> tuple[float, float]:
    """Position window outside which the pointwise squares are below
    tolerance relative to the bulk (the weights decay cubically here)."""
    blo, bhi = box
    reach = (1.0 + t_hi + (bhi - blo)) * max(8.0, _TRUNCATION_EPS ** -0.125)
    return blo - reach, bhi + reach


def _position_loss(box: tuple[float, float], t: float, lam: float) -> float:
    """Share of the weight (t/(t+|y|))^lam that the position window at scale
    t leaves out, for the worse of the support's two ends, in closed form.
    The window's reach relative to t shrinks as t grows, so the top scale of
    a range loses the most."""
    wlo, whi = _norm_window(box, t)
    return max(1.0 - float(weight_window(t, lam, wlo - u, whi - u))
               / weight_total(t, lam) for u in box)


def _band_nodes(box: tuple[float, float], grid: ShiftedGrid | None,
                t_hi: float):
    """The norm's position on one axis, as a function ``(lo, hi) ->
    (x_lo, x_hi)`` giving the interval the scale band (lo, hi] integrates
    over.

    With a grid: the union of the cubes of the band's own level that meet
    the band's window.  The band lies in (side/2, side] for side = 2^e with
    lo in [2^(e-1), 2^e), and its cubes k side + shift are contiguous, so
    the union runs from the first one's corner to the last one's far end,
    both read from the level's shift with floor and ceil.  Without: the
    window at the top scale t_hi for every band."""
    if grid is None:
        window = _norm_window(box, t_hi)
        return lambda lo, hi: window

    def whitney(lo, hi):
        level = -math.frexp(lo)[1]
        side, (s,) = 2.0 ** -level, grid.shift(level)
        wlo, whi = _norm_window(box, hi)
        return (math.floor((wlo - s) * 2.0 ** level) * side + s,
                math.ceil((whi - s) * 2.0 ** level) * side + s)
    return whitney


@functools.lru_cache(maxsize=None)
def _unit_lag_table(dim: int, exponent: float, flavor: str,
                    points_per_cell: int, per_octave: int,
                    rule: str) -> dict:
    """The table behind :func:`_unit_lag_rows` for one unit-amplitude factor
    shape and one quadrature rule: tau-octave ends (lo, hi) -> that octave's
    lag row, replaced by a longer one when more lags are asked.  Cached, so
    one ``cache_clear`` empties every table."""
    return {}


def _unit_lag_rows(factor: ConvolutionFactor, spec: QuadratureSpec,
                   octaves: list[tuple[float, float]],
                   n_lags: int) -> list[np.ndarray]:
    """The unit-lattice lag rows of each tau-octave (lo, hi), read-only and
    at least ``n_lags`` long: entry k sums, over the octave's scale nodes
    tau with dt weights w, int_v psi_tau(v) psi_tau(v + k) dv w / tau, with
    psi_tau the unit-amplitude factor at scale tau on the cell [0, 1] and v
    on the unit cell's own :func:`_offset_mesh`.

    An octave missing from the table, or shorter there than ``n_lags``, is
    computed afresh with ``n_lags`` lags: every missing node's mesh comes
    from one :func:`glstar.core.graded_meshes` batch, and three buffers are
    made, sized for the largest mesh, in whose leading parts every node lays
    out its (edges x v-nodes) offsets, odd antiderivatives and differences.
    Lag k at v is the cell [-k, 1 - k], so one shared-end cell integral over
    the edges 1, 0, ..., 1 - n_lags gives every lag in order, each lag a
    contiguous row.  The contraction over v is an ``einsum`` along each row,
    so lag k is the same sum however many lags are formed (a BLAS product
    groups its terms by the row count), a row does not depend on how long
    it was made, and the table may grow in any order.
    """
    table = _unit_lag_table(factor.dim, factor.exponent, factor.flavor,
                            spec.points_per_cell, spec.t_points_per_octave,
                            spec.rule)
    short = [o for o in octaves if o not in table or table[o].size < n_lags]
    if short:
        unit = ConvolutionFactor(factor.dim, factor.exponent, factor.flavor)
        blocks = [octave_nodes(lo, hi, spec.t_points_per_octave, spec.rule)
                  for lo, hi in short]
        tn = np.concatenate([tau for tau, _ in blocks])
        us, dvs, sizes = graded_meshes(*_offset_span((0.0, 1.0), tn,
                                                     (0.0, 1.0)),
                                       (0.0, 1.0), spec.points_per_cell,
                                       spec.rule, rel_finest=_MESH_REL)
        edges = np.arange(1.0, -n_lags, -1.0)[:, None]
        workspace = np.empty((3, edges.size * sizes.max()))
        meshes = zip(us, dvs, sizes.tolist())
        for octave, (taus, ws) in zip(short, blocks):
            row = np.zeros(n_lags)
            for tau, w, (v, dv, m) in zip(taus, ws, meshes):
                offsets, odd, scratch = (
                    b[:edges.size * m].reshape(edges.size, m) for b in workspace)
                s = np.subtract(v[:m], edges, out=offsets)
                a = unit.antiderivative_into(tau, s, odd, scratch)
                psi = np.subtract(a[1:], a[:-1], out=offsets[:n_lags])
                row += np.einsum("ki,i->k", psi, psi[0] * dv[:m]) * (w / tau)
            row.setflags(write=False)
            table[octave] = row
    return [table[o] for o in octaves]


@functools.lru_cache(maxsize=128)
def _axis_gram(factor: ConvolutionFactor, level: int, n_cells: int,
               lam: float, t_range: tuple[float, float],
               spec: QuadratureSpec) -> np.ndarray:
    """Gram matrix of the unit lattice-cell responses on one axis.

    Entry (c, c') is int_t [ int_u Psi_c(t, u) Psi_c'(t, u) du ]
    weight_total(t, lam) dt / t^2, with Psi_c theta applied to the indicator
    of cell c over the cell measure h = 2^-level.  Integrating the position
    over the whole line decouples the weight (substitute u = x - y), which
    is what makes this exact and cheap; entries depend on |c - c'| only, so
    one row of lags is formed.

    The factor and the weight are both invariant under dilation: with t = h
    tau and u = h v, Psi_c(t, u) is the unit-lattice response at (tau, v)
    and weight_total(t, lam) = t weight_total(1, lam), so the row is
    scale^2 weight_total(1, lam) / h times the sum of the unit-lattice lag
    rows of :func:`_unit_lag_rows` over tau in the t-range's octave pieces
    times 2^level, scale the factor's amplitude.  Those rows are kept in one
    table per factor shape and rule, keyed by each tau-octave's exact ends,
    so every level, amplitude and axis whose octaves overlap reads the same
    rows; a caller asking for several levels saves the most by asking for
    the finest (the most lags) first.  Cached; callers share the array, so
    it is read-only."""
    dilation = 2.0 ** level
    octaves = [(lo * dilation, hi * dilation) for lo, hi, _, _ in
               octave_blocks(*t_range, spec.t_points_per_octave, spec.rule)]
    row = np.zeros(n_cells)
    for lags in _unit_lag_rows(factor, spec, octaves, n_cells):
        row += lags[:n_cells]
    row *= factor.scale ** 2 * weight_total(1.0, lam) * dilation
    idx = np.abs(np.arange(n_cells)[:, None] - np.arange(n_cells)[None, :])
    gram = row[idx]
    gram.setflags(write=False)
    return gram


# ---------------------------------------------------------------------------
# localized quantities
# ---------------------------------------------------------------------------


def _ladder(i, k, x1, t1) -> tuple[list, list, np.ndarray, np.ndarray]:
    """The rungs (cube, generation, point, scale) of a localized quantity:
    one rung, ``i`` a cube, or a ladder, ``i`` a sequence of cubes and the
    others sequences of its length.  Refuses an empty ladder, a length
    mismatch and a generation below 1."""
    one = isinstance(i, DyadicCube)
    cubes, ks = ([i], [k]) if one else (list(i), list(k))
    xs = np.asarray(x1, dtype=float).reshape(-1)
    ts = np.asarray(t1, dtype=float).reshape(-1)
    if not cubes or not len(cubes) == len(ks) == xs.size == ts.size:
        raise ValueError("a ladder needs one generation, point and scale "
                         "per cube, and at least one cube")
    if min(ks) < 1:
        raise ValueError("need k >= 1")
    return cubes, ks, xs, ts


def q_quantity(kernel: Kernel, i, k, j1: DyadicCube, x, t1, t2: float,
               params: Params, spec: QuadratureSpec | None = None):
    """Weighted pair integral of theta applied to S (x) h_J1 at (x, t): the
    square root of

        iint |theta (S (x) h_J1)(x - y)|^2 w1 w2 dy1 dy2 / (t1^n t2^m),

    where S is the modified ancestor pattern of I at generation k
    (:func:`glstar.haar.s_function`) and h_J1 the Haar function of J1.  S
    has a constant tail, so the integral separates per axis, with a closed
    far field, into the product of two one-row response grams; kernels
    without tensor parts are refused.  Raises when the ancestor chain
    leaves the grid truncation.

    ``i``, ``k``, the first coordinate of ``x = (x1, x2)`` and ``t1`` are
    one rung (a cube, a float result) or a ladder (a sequence of cubes,
    sequences of its length, a 1-d array result, rung by rung the one-rung
    value): each rung takes its pattern's gram, and the Haar side's gram of
    (J1, x2, t2), which no rung changes, is formed once."""
    spec = spec or QuadratureSpec()
    _check_pair_dims(kernel)
    if kernel.tensor_parts is None:
        raise NotImplementedError(
            "the ancestor pattern has a constant tail, which needs a tensor "
            "kernel: the raw-evaluation quadrature has no closed far field")
    x1, x2 = x
    cubes, ks, xs, ts = _ladder(i, k, x1, t1)
    if ts.min() <= 0 or t2 <= 0:
        raise ValueError("scales must be positive")
    g1, g2 = kernel.tensor_parts
    lam1, lam2 = params.weight_powers
    a = [response_gram(g1, s_function(c, kc), xc, tc, lam1, spec)[0, 0]
         for c, kc, xc, tc in zip(cubes, ks, xs.tolist(), ts.tolist())]
    b = response_gram(g2, haar_function(HaarIndex(cube=j1, eta=(1,))),
                      float(x2), t2, lam2, spec)[0, 0]
    out = [_sqrt_clamped(float(ac * b))[0] for ac in a]
    return out[0] if isinstance(i, DyadicCube) else np.array(out)


def k_quantity(kernel_factor: ConvolutionFactor, i, k, x1, t1,
               params: Params, spec: QuadratureSpec | None = None):
    """The complement integral at generation k: the square root of

        int ( int_{(I^(k-1))^c} profile(t1, |x1 - y1 - z1|) dz1 )^2
            (t1/(t1+|y1|))^(n lam1) dy1 / t1^n.

    The inner integral is mass minus the cell integral over the ancestor,
    exact in closed form; the outer integral is the response gram of that
    one row (:func:`_weighted_theta_gram`), its far field the factor's mass
    against the weight tail.

    ``i``, ``k``, ``x1`` and ``t1`` are one rung (a cube, a float result)
    or a ladder (a sequence of cubes, sequences of its length, a 1-d array
    result): the rungs' u-meshes are one :func:`glstar.core.graded_meshes`
    batch and their grams one :func:`_weighted_theta_gram` call, each rung
    bit for bit its one-rung value."""
    spec = spec or QuadratureSpec()
    if kernel_factor.dim != 1 or params.n != 1:
        raise NotImplementedError("the closed complement needs 1-d factors")
    cubes, ks, x, t = _ladder(i, k, x1, t1)
    if t.min() <= 0:
        raise ValueError("scale must be positive")
    # each rung's (k-1)-st ancestor, whose complement the rung integrates
    box = np.array([c.grid.ancestor(c, kc - 1).box()[0]
                    for c, kc in zip(cubes, ks)])
    mass = kernel_factor.mass(t)
    anchors = np.column_stack((box, x))
    lo, hi = _offset_span((box[:, 0], box[:, 1]), t, anchors)
    u, du, sizes = graded_meshes(lo, hi, anchors, spec.points_per_cell,
                                 spec.rule, rel_finest=_MESH_REL)
    # the cell integral over each rung's own ancestor
    comp = mass - kernel_factor._row_cell_integral(
        t[:, None, None], u, box[:, None, :])[..., 0]
    sq = _weighted_theta_gram(comp[:, None], u, du, sizes, lo, hi, mass, x,
                              t, params.weight_powers[0])
    out = [_sqrt_clamped(v)[0] for v in sq[:, 0, 0].tolist()]
    return out[0] if isinstance(i, DyadicCube) else np.array(out)
