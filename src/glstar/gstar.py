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
  octave-band assembly.  Tensor kernels (everything built by
  :mod:`glstar.kernels`) go per axis: :func:`_axis_octave_sums` sums
  :func:`_axis_sq_profile` over each band's scale nodes and contracts it
  against that band's position nodes.  Other kernels go jointly:
  :func:`_raw_octave_sums` contracts the :func:`_raw_block` matrices of each
  scale pair against both bands' position nodes.  A route is one theta
  evaluator in one of these assemblies plus one choice of position nodes.
  The evaluators are the exact per-axis cell antiderivatives, the raw
  per-axis profile quadrature (their independent oracle) and the raw kernel
  evaluations of the joint layer, priced accordingly.  The nodes are the
  point itself for the pointwise value and, from :func:`_band_nodes`, the
  Whitney cubes of each band's grid level or a graded window for the norm.

Negative values produced by roundoff under the final square root are clamped
to zero and flagged on the returned record.
"""

from __future__ import annotations

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
    "gstar_pointwise",
    "gstar_sq_norm",
    "k_quantity",
    "q_quantity",
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

# Elements per block of the chunked contractions: about 2^16 kernel or weight
# values, so a block's temporaries stay in cache instead of streaming
# through memory.  Each such temporary is a 512 KB array that the C
# allocator may hand back to the OS when it is freed (glibc trims its heap),
# so the next block faults its pages in again: the built-in kernels
# therefore work in place and make about three per factor.  A smaller block
# makes the faults cheaper but the per-block Python overhead dearer (2^13
# ran slower end to end).
_BLOCK = 2 ** 16


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


def _axis_theta(factor: ConvolutionFactor, f: StepFunction, t: float,
                points: np.ndarray) -> np.ndarray:
    """theta_t f at an array of points via exact per-cell integrals.

    f splits into its compact part plus the constant tail; the tail maps to
    tail * mass(t) exactly and the compact part to a cell-integral sum."""
    pts = np.asarray(points, dtype=float)
    edges = _axis_edges(f)
    ci = factor.cell_integral(t, pts[..., None], edges[:-1], edges[1:])
    out = ci @ (f.values - f.tail)
    if f.tail != 0.0:
        out = out + f.tail * factor.mass(t)
    return out


def _offset_mesh(box: tuple[float, float], t: float, spec: QuadratureSpec,
                 anchors: Sequence[float], pad_units: float = _PAD_UNITS,
                 rel: float = _MESH_REL,
                 ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Offset-variable (u = x - y) mesh covering the zone where theta still
    differs appreciably from its far-field constant.  Returns nodes, weights
    and the two mesh edges."""
    blo, bhi = box
    pad = pad_units * t + (bhi - blo)
    grid = graded_axis_edges(blo - pad, bhi + pad, anchors, rel_finest=rel)
    u, du = segment_nodes(grid, spec.points_per_cell, spec.rule)
    return u, du, blo - pad, bhi + pad


def _step_anchors(f: StepFunction) -> list[float]:
    edges = _axis_edges(f)
    return list(edges) if len(edges) <= 33 else [edges[0], edges[-1]]


def _weighted_theta_sq(theta_vals: np.ndarray, du: np.ndarray,
                       u_lo: float, u_hi: float, u: np.ndarray,
                       far_const: float, xs: np.ndarray, t: float,
                       lam: float) -> np.ndarray:
    """int |theta(x - y)|^2 (t/(t+|y|))^lam dy / t for an array of x, given
    theta sampled on a u-mesh and its constant far-field value."""
    integ = theta_vals * theta_vals * du
    out = np.empty(xs.shape)
    step = max(1, _BLOCK // max(1, u.size))
    for i in range(0, xs.size, step):
        xb = xs[i:i + step, None]
        w = (t / (t + np.abs(xb - u[None, :]))) ** lam
        out[i:i + step] = w @ integ
    if far_const != 0.0:
        window = weight_window(t, lam, xs - u_hi, xs - u_lo)
        out = out + far_const * far_const * (weight_total(t, lam) - window)
    return out / t


def _axis_sq_profile(factor: ConvolutionFactor, f: StepFunction,
                     xs: np.ndarray, t: float, lam: float,
                     spec: QuadratureSpec, raw: bool = False) -> np.ndarray:
    """A(x, t) = int |theta_t f(x - y)|^2 (t/(t+|y|))^lam dy / t at one scale
    for an array of x; far field in closed form against tail * mass.

    theta comes from the exact cell integrals, or with ``raw`` from
    :func:`_axis_theta_raw` on the denser oracle mesh (compact f only)."""
    xs = np.asarray(xs, dtype=float)
    anchors = _step_anchors(f)
    if xs.size <= 8:
        anchors = anchors + list(xs.ravel())  # the weight kinks at u = x
    if raw:
        u, du, ulo, uhi = _offset_mesh(f.box[0], t, spec, anchors,
                                       _ORACLE_PAD_UNITS, _ORACLE_MESH_REL)
        th = _axis_theta_raw(factor, f, t, u, spec)
    else:
        u, du, ulo, uhi = _offset_mesh(f.box[0], t, spec, anchors)
        th = _axis_theta(factor, f, t, u)
    return _weighted_theta_sq(th, du, ulo, uhi, u, f.tail * factor.mass(t),
                              xs, t, lam)


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


def _axis_octave_sums(factor: ConvolutionFactor, f: StepFunction, lam: float,
                      t_range: tuple[float, float], spec: QuadratureSpec,
                      band_nodes, raw: bool = False) -> np.ndarray:
    """The per-axis octave-band assembly: per-octave sums of
    int A(x, t) w(x) dt/t over the scale range.

    ``band_nodes(lo, hi)`` gives the position nodes and weights of the scale
    band (lo, hi]; A is summed over the band's scale nodes at those positions
    and contracted against the weights.  ``raw`` selects the oracle theta of
    :func:`_axis_sq_profile`."""
    octs = []
    for lo, hi, tn, tw in octave_blocks(*t_range, spec.t_points_per_octave,
                                        spec.rule):
        xs, xw = band_nodes(lo, hi)
        part = np.zeros(xs.shape)
        for t, w in zip(tn, tw):
            part += _axis_sq_profile(factor, f, xs, t, lam, spec, raw) * (w / t)
        octs.append(part @ xw)
    return np.array(octs)


# ---------------------------------------------------------------------------
# theta: kernel applied to a step function
# ---------------------------------------------------------------------------


def _check_pair_dims(kernel: Kernel) -> None:
    if kernel.n != 1 or kernel.m != 1:
        raise NotImplementedError(
            "quadrature paths are implemented for one-dimensional factors")


def _tensor_step(f1: StepFunction, f2: StepFunction) -> StepFunction:
    """The product f1 (x) f2 as a plane step function (tails must vanish)."""
    if f1.dim != 1 or f2.dim != 1:
        raise ValueError("tensor factors must be one-dimensional")
    if f1.tail != 0.0 or f2.tail != 0.0:
        raise ValueError("tensor factors must have vanishing tails")
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
    the independent oracle for :func:`_axis_theta`.  Compact f only.  The
    z-mesh subdivides cells to t/8 so the midpoint rule carries the profile
    kink at z = u."""
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


def _padded_lookup(f: StepFunction, z1: np.ndarray, z2: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f on the tensor mesh z1 x z2 as a table and one index array per axis:
    ``table[np.ix_(k1, k2)]`` equals ``f(z1[:, None], z2[None, :])``.  The
    table is f's values with one extra row and column holding ``f.tail``,
    the slot every node outside the box is sent to."""
    table = np.full((f.shape[0] + 1, f.shape[1] + 1), f.tail)
    table[:-1, :-1] = f.values
    k1, k2 = (np.where((k >= 0) & (k < size), k, size)
              for k, size in ((f.cell_index(0, z1), f.shape[0]),
                              (f.cell_index(1, z2), f.shape[1])))
    return table, k1, k2


def _mesh_theta(kernel: Kernel, f: StepFunction, t1: float, t2: float,
                pts: np.ndarray, z1: np.ndarray, w1: np.ndarray,
                z2: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """sum_z K(p, z) f(z) w1(z1) w2(z2) over the tensor mesh z1 x z2 for an
    (N, 2) array of points p, streamed in blocks of about _BLOCK kernel
    values.

    A block is a chunk of points against a chunk of z1 rows and all of z2.
    When the whole mesh fits in a block the points are chunked and the rows
    are not; otherwise each point meets one row chunk at a time and the
    chunks' sums accumulate.  A block's mesh points are broadcast from its
    rows and z2, and its f * w weights are written into two row-chunk
    buffers made once per call, so no array of the whole mesh is built and
    a block adds only its mesh points to the kernel's own temporaries (see
    _BLOCK).

    f is read per axis: each axis's cell indices are computed once per call
    (:func:`_padded_lookup`), and a row chunk's values are one gather from
    the padded table -- bit for bit the values ``f(z1, z2)`` gives, without
    its cell lookup per mesh point."""
    table, k1, k2 = _padded_lookup(f, z1, z2)
    rows = min(z1.size, max(1, _BLOCK // max(1, z2.size)))
    step = max(1, _BLOCK // (rows * z2.size))
    out = np.zeros(pts.shape[0])
    picked = np.empty((rows, z2.size))
    weights = np.empty((rows, z2.size))
    for r in range(0, z1.size, rows):
        zr = z1[r:r + rows]
        zb = np.empty((zr.size, z2.size, 2))
        zb[..., 0] = zr[:, None]
        zb[..., 1] = z2
        fw = np.multiply.outer(w1[r:r + rows], w2, out=weights[:zr.size])
        fw *= np.take(table[k1[r:r + rows]], k2, axis=1,
                      out=picked[:zr.size])
        fw = fw.ravel()
        for i in range(0, pts.shape[0], step):
            kv = kernel.evaluate(t1, t2, pts[i:i + step, None, None, :],
                                 zb[None])
            out[i:i + step] += np.asarray(kv, dtype=float).reshape(
                -1, fw.size) @ fw
    return out


def _theta_points_general(kernel: Kernel, f: StepFunction, t1: float,
                          t2: float, pts: np.ndarray,
                          spec: QuadratureSpec) -> np.ndarray:
    """theta f at an (N, 2) array of points from raw kernel evaluations.

    A compact f shares one z-mesh across all points; a constant tail forces
    per-point graded windows sized by the declared decay, priced accordingly.
    Either mesh is a tensor product z1 x z2 that :func:`_mesh_theta`
    contracts in blocks of about _BLOCK kernel values: point chunks against
    the whole mesh when it fits in a block, else one point against z1 row
    chunks.  f's cells are looked up once per axis, never per mesh point."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if f.tail == 0.0:
        z1, w1 = _refined_axis_nodes(f, 0, t1, spec.points_per_cell, spec.rule)
        z2, w2 = _refined_axis_nodes(f, 1, t2, spec.points_per_cell, spec.rule)
        return _mesh_theta(kernel, f, t1, t2, pts, z1, w1, z2, w2)
    out = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        meshes = []
        for axis, (t, a) in enumerate(((t1, kernel.alpha), (t2, kernel.beta))):
            blo, bhi = f.box[axis]
            rad = t * (2.0 / (a * spec.truncation_eps)) ** (1.0 / a)
            wlo = min(blo, p[axis] - rad)
            whi = max(bhi, p[axis] + rad)
            # the anchor ladders must bottom out below the kernel ridge width
            # t, or the whole window is priced at the (huge) tail radius
            fine = min(2.0 ** -20, 0.25 * t / (whi - wlo))
            grid = graded_axis_edges(wlo, whi, (p[axis], blo, bhi),
                                     rel_finest=fine)
            meshes.append(segment_nodes(grid, spec.points_per_cell, spec.rule))
        (z1, w1), (z2, w2) = meshes
        out[i] = _mesh_theta(kernel, f, t1, t2, p[None, :], z1, w1, z2, w2)[0]
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
    if f.tail != 0.0 and min(kernel.alpha, kernel.beta) <= 0:
        raise ValueError("tail integral needs positive decay exponents")
    y = np.asarray(y, dtype=float).reshape(2)
    if kernel.tensor_parts is not None:
        g1, g2 = kernel.tensor_parts
        e1, e2 = _axis_edges(f, 0), _axis_edges(f, 1)
        c1 = g1.cell_integral(t1, y[0], e1[:-1], e1[1:])
        c2 = g2.cell_integral(t2, y[1], e2[:-1], e2[1:])
        val = c1 @ (f.values - f.tail) @ c2
        if f.tail != 0.0:
            val += f.tail * g1.mass(t1) * g2.mass(t2)
        return float(val)
    return float(_theta_points_general(kernel, f, t1, t2, y[None, :], spec)[0])


# ---------------------------------------------------------------------------
# raw scale-pair assembly (non-tensor kernels)
# ---------------------------------------------------------------------------


def _raw_block(kernel: Kernel, f: StepFunction, t1: float, t2: float,
               x1: np.ndarray, x2: np.ndarray, lam1: float, lam2: float,
               spec: QuadratureSpec) -> np.ndarray:
    """Inner integrals iint |theta f(x - y)|^2 w1 w2 dy / (t1 t2) at one
    scale pair, as a (len x1, len x2) matrix over the position nodes.

    theta is sampled from raw kernel values on the tensor u-mesh of the two
    structure zones and contracted against both weights.  The meshes are the
    coarser raw-path family: this route prices kernel calls, not mesh
    density.  Compact f only (there is no closed far field)."""
    b1, b2 = f.box
    u1, du1, _, _ = _offset_mesh(b1, t1, spec, b1, _RAW_PAD_UNITS,
                                 _RAW_MESH_REL)
    u2, du2, _, _ = _offset_mesh(b2, t2, spec, b2, _RAW_PAD_UNITS,
                                 _RAW_MESH_REL)
    wg1 = (t1 / (t1 + np.abs(x1[:, None] - u1[None, :]))) ** lam1 * du1
    wg2 = (t2 / (t2 + np.abs(x2[:, None] - u2[None, :]))) ** lam2 * du2
    pts = np.stack(np.meshgrid(u1, u2, indexing="ij"), axis=-1).reshape(-1, 2)
    th = _theta_points_general(kernel, f, t1, t2, pts, spec)
    th2 = (th * th).reshape(u1.size, u2.size)
    return wg1 @ th2 @ wg2.T / (t1 * t2)


def _raw_octave_sums(kernel: Kernel, f: StepFunction, lam1: float,
                     lam2: float, ranges: tuple[tuple[float, float], ...],
                     spec: QuadratureSpec, band_nodes,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The joint octave-band assembly: the raw scale-pair sum of
    int int |theta f|^2 w1 w2 dt1/t1 dt2/t2 over the two scale ranges,
    contracted against position nodes.

    ``band_nodes[axis](lo, hi)`` gives the position nodes and weights used
    for the scale band (lo, hi] of that axis; every octave pair contracts its
    :func:`_raw_block` matrices against them.  Returns the per-octave sums
    along each scale axis."""
    bands = [[(tn, tw, *nodes(lo, hi))
              for lo, hi, tn, tw in octave_blocks(*r, spec.t_points_per_octave,
                                                  spec.rule)]
             for nodes, r in zip(band_nodes, ranges)]
    o1 = np.zeros(len(bands[0]))
    o2 = np.zeros(len(bands[1]))
    for i1, (t1n, t1w, x1, xw1) in enumerate(bands[0]):
        if x1.size == 0:
            continue
        for t1, w1 in zip(t1n, t1w):
            for i2, (t2n, t2w, x2, xw2) in enumerate(bands[1]):
                if x2.size == 0:
                    continue
                for t2, w2 in zip(t2n, t2w):
                    block = _raw_block(kernel, f, t1, t2, x1, x2, lam1, lam2,
                                       spec)
                    contrib = float(xw1 @ block @ xw2) * (w1 / t1) * (w2 / t2)
                    o1[i1] += contrib
                    o2[i2] += contrib
    return o1, o2


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
    tensor product.  Every route puts the point as the only position node,
    of weight 1, into one octave-band assembly with one theta evaluator:

    * "fast" (tensor kernel with pair f only): the per-axis assembly on the
      exact cell integrals; the value is the product of the two axis values;
    * "full": the independent oracle.  A tensor kernel with pair f runs the
      per-axis assembly on raw profile values (no antiderivatives, no closed
      far field); any other input runs the joint assembly on raw kernel
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
    tensor = pair is not None and kernel.tensor_parts is not None
    if route == "auto":
        route = "fast" if tensor else "full"
    if route == "fast" and not tensor:
        raise ValueError("fast route needs a tensor kernel and a pair f")
    if route == "full" and any(g.tail != 0.0 for g in pair or (f,)):
        raise ValueError("full route needs a compactly supported function")
    t_range = (spec.t_min, spec.t_max)
    point = [lambda lo, hi, xa=xa: (np.array([xa]), np.ones(1)) for xa in x]

    if tensor:
        o1, o2 = (_axis_octave_sums(g, fa, lam, t_range, spec, nodes,
                                    raw=(route == "full"))
                  for g, fa, lam, nodes in zip(kernel.tensor_parts, pair, lams,
                                               point))
        v1, v2 = float(o1.sum()), float(o2.sum())
        e1, e2 = _octave_tail(o1), _octave_tail(o2)
        sq = v1 * v2
        err_sq = abs(e1) * abs(v2) + abs(e2) * abs(v1) \
            if math.isfinite(e1 + e2) else math.inf
    else:
        f2d = _tensor_step(*pair) if pair is not None else f
        o1, o2 = _raw_octave_sums(kernel, f2d, *lams, (t_range, t_range), spec,
                                  point)
        sq = float(o1.sum())
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
    layer -- per axis on the exact cell integrals for a tensor kernel with
    pair f (the norm is then the product of the two axis norms), jointly on
    raw kernel evaluations otherwise -- and differ only in the position
    nodes each scale band is contracted against:

    * "whitney" (default): the cubes of the band's own grid level, so the sum
      runs over the grid's Whitney regions -- the rewriting behind the whole
      averaging argument.  The regions tile the scale strip the grid pair
      covers; in position the sum is restricted to a window around the
      support.
    * "direct": a graded mesh of that window, the same for every band, so
      the sum is the pointwise squares integrated over the window.
    * "gram": tensor kernels only.  Integrating x over the whole line
      decouples the weight from theta exactly, so the norm contracts the
      lattice Gram matrices of the two factor responses; this is the fast
      path the bulk experiments use.

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
        if kernel.tensor_parts is None:
            raise NotImplementedError("the gram route needs a tensor kernel")
        g1, g2 = kernel.tensor_parts
        m1 = _axis_gram(g1, f2d.level, f2d.shape[0], lams[0], ranges[0], spec)
        m2 = _axis_gram(g2, f2d.level, f2d.shape[1], lams[1], ranges[1], spec)
        area = f2d.cell_side ** 2
        vals = f2d.values * area  # the contraction runs over cell integrals
        # sum_{a,b,c,d} m1[a,c] m2[b,d] v[a,b] v[c,d], the grams being symmetric
        return float(np.sum((m1 @ vals @ m2) * vals))

    loss = max(_position_loss(box, t_hi, lam, spec)
               for box, lam, (_, t_hi) in zip(f2d.box, lams, ranges))
    if loss > _TAIL_WARN:
        warnings.warn(
            f"position truncation: the window misses {loss:.3g} of the weight "
            "seen from an end of the support; widen the window",
            RuntimeWarning, stacklevel=2)
    grids = grid_pair if route == "whitney" else (None, None)
    if pair is None or kernel.tensor_parts is None:
        nodes = [_band_nodes(box, spec, grid, r[1], 2.0 ** -8)
                 for box, grid, r in zip(f2d.box, grids, ranges)]
        o1, _ = _raw_octave_sums(kernel, f2d, *lams, ranges, spec, nodes)
        return float(o1.sum())
    norm = 1.0
    for g, fa, lam, grid, r in zip(kernel.tensor_parts, pair, lams, grids,
                                   ranges):
        nodes = _band_nodes(fa.box[0], spec, grid, r[1], 2.0 ** -16)
        norm *= float(_axis_octave_sums(g, fa, lam, r, spec, nodes).sum())
    return norm


def _norm_window(box: tuple[float, float], t_hi: float,
                 spec: QuadratureSpec) -> tuple[float, float]:
    """Position window outside which the pointwise squares are below
    tolerance relative to the bulk (the weights decay cubically here)."""
    blo, bhi = box
    reach = (1.0 + t_hi + (bhi - blo)) * max(8.0, spec.truncation_eps ** -0.125)
    return blo - reach, bhi + reach


def _position_loss(box: tuple[float, float], t: float, lam: float,
                   spec: QuadratureSpec) -> float:
    """Share of the weight (t/(t+|y|))^lam that the position window at scale
    t leaves out, for the worse of the support's two ends, in closed form.
    The window's reach relative to t shrinks as t grows, so the top scale of
    a range loses the most."""
    wlo, whi = _norm_window(box, t, spec)
    return max(1.0 - float(weight_window(t, lam, wlo - u, whi - u))
               / weight_total(t, lam) for u in box)


def _band_nodes(box: tuple[float, float], spec: QuadratureSpec,
                grid: ShiftedGrid | None, t_hi: float, rel: float):
    """The norm's position nodes on one axis, as a function ``(lo, hi) ->
    (nodes, weights)`` of the scale band (lo, hi] they serve.

    With a grid: the cubes of the band's own level meeting the band's
    window.  The band lies in (side/2, side] for side = 2^e with lo in
    [2^(e-1), 2^e); the cubes are contiguous, so the first and last
    ``spec.points_per_cell`` nodes are the outermost cubes'.  Without: one
    graded mesh of the window at the top scale t_hi for every band, with
    finest step rel times the window."""
    if grid is None:
        edges = graded_axis_edges(*_norm_window(box, t_hi, spec), box,
                                  rel_finest=rel)
        window = segment_nodes(edges, spec.points_per_cell, spec.rule)
        return lambda lo, hi: window

    def whitney(lo, hi):
        level = -math.frexp(lo)[1]
        cells = [cube.box()[0] for cube in grid.cubes_overlapping(
            level, [_norm_window(box, hi, spec)])]
        edges = np.array([a for a, _ in cells] + [cells[-1][1]])
        return segment_nodes(edges, spec.points_per_cell, spec.rule)
    return whitney


_GRAM_CACHE: dict = {}


def _axis_gram(factor: ConvolutionFactor, level: int, n_cells: int,
               lam: float, t_range: tuple[float, float],
               spec: QuadratureSpec) -> np.ndarray:
    """Gram matrix of the unit lattice-cell responses on one axis.

    Entry (c, c') is int_t [ int_u Psi_c(t, u) Psi_c'(t, u) du ]
    weight_total(t, lam) dt / t^2, with Psi_c theta applied to the indicator
    of cell c over the cell measure.  Integrating the position over the whole
    line decouples the weight (substitute u = x - y), which is what makes
    this exact and cheap; entries depend on |c - c'| only, so one
    autocorrelation row per scale is accumulated.  Cached."""
    key = (factor, level, n_cells, lam, t_range,
           spec.points_per_cell, spec.t_points_per_octave, spec.rule)
    hit = _GRAM_CACHE.get(key)
    if hit is not None:
        return hit
    h = 2.0 ** -level
    lags = h * np.arange(n_cells)
    row = np.zeros(n_cells)
    tn, tw = octave_nodes(*t_range, spec.t_points_per_octave, spec.rule)
    for t, w in zip(tn, tw):
        pad = _PAD_UNITS * t + h
        grid = graded_axis_edges(-pad, h + pad, (0.0, h), rel_finest=_MESH_REL)
        u, du = segment_nodes(grid, spec.points_per_cell, spec.rule)
        base = factor.cell_integral(t, u, 0.0, h) / h
        shifted = factor.cell_integral(t, u[:, None] + lags[None, :],
                                       0.0, h) / h
        auto = (base * du) @ shifted
        row += auto * weight_total(t, lam) / t ** 2 * w
    idx = np.abs(np.arange(n_cells)[:, None] - np.arange(n_cells)[None, :])
    gram = row[idx]
    _GRAM_CACHE[key] = gram
    return gram


# ---------------------------------------------------------------------------
# localized quantities
# ---------------------------------------------------------------------------


def q_quantity(kernel: Kernel, i: DyadicCube, k: int, j1: DyadicCube, x,
               t1: float, t2: float, params: Params,
               spec: QuadratureSpec | None = None) -> float:
    """Weighted pair integral of theta applied to S (x) h_J1 at (x, t): the
    square root of

        iint |theta (S (x) h_J1)(x - y)|^2 w1 w2 dy1 dy2 / (t1^n t2^m),

    where S is the modified ancestor pattern of I at generation k
    (:func:`glstar.haar.s_function`) and h_J1 the Haar function of J1.  S
    has a constant tail, so the integral separates per axis with a closed
    far field; kernels without tensor parts are refused.  Raises when the
    ancestor chain leaves the grid truncation."""
    spec = spec or QuadratureSpec()
    _check_pair_dims(kernel)
    if kernel.tensor_parts is None:
        raise NotImplementedError(
            "the ancestor pattern has a constant tail, which needs a tensor "
            "kernel: the raw-evaluation quadrature has no closed far field")
    if k < 1:
        raise ValueError("need k >= 1")
    if t1 <= 0 or t2 <= 0:
        raise ValueError("scales must be positive")
    x = np.asarray(x, dtype=float).reshape(2)
    g1, g2 = kernel.tensor_parts
    lam1, lam2 = params.weight_powers
    a = _axis_sq_profile(g1, s_function(i, k), x[:1], t1, lam1, spec)
    b = _axis_sq_profile(g2, haar_function(HaarIndex(cube=j1, eta=(1,))),
                         x[1:], t2, lam2, spec)
    return _sqrt_clamped(float(a[0] * b[0]))[0]


def k_quantity(kernel_factor: ConvolutionFactor, i: DyadicCube, k: int,
               x1: float, t1: float, params: Params,
               spec: QuadratureSpec | None = None) -> float:
    """The complement integral at generation k: the square root of

        int ( int_{(I^(k-1))^c} profile(t1, |x1 - y1 - z1|) dz1 )^2
            (t1/(t1+|y1|))^(n lam1) dy1 / t1^n.

    The inner integral is mass minus the cell integral over the ancestor,
    exact in closed form; the outer far field is the factor's mass against
    the weight tail."""
    spec = spec or QuadratureSpec()
    if kernel_factor.dim != 1 or params.n != 1:
        raise NotImplementedError("the closed complement needs 1-d factors")
    if k < 1:
        raise ValueError("need k >= 1")
    if t1 <= 0:
        raise ValueError("scale must be positive")
    ancestor = i.grid.ancestor(i, k - 1)
    (alo, ahi), = ancestor.box()
    lam = params.weight_powers[0]
    mass = kernel_factor.mass(t1)
    u, du, ulo, uhi = _offset_mesh((alo, ahi), t1, spec,
                                   (alo, ahi, float(x1)))
    comp = mass - kernel_factor.cell_integral(t1, u, alo, ahi)
    sq = _weighted_theta_sq(comp, du, ulo, uhi, u, mass,
                            np.array([float(x1)]), t1, lam)
    return _sqrt_clamped(float(sq[0]))[0]
