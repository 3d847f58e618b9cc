"""Packing quantities over unions of dyadic rectangles, and shadow sets.

The box quantity of a rectangle I x J integrates |theta 1|^2 with both
Poisson-type weights over the product of Whitney regions.  For a tensor
convolution kernel theta_{t1,t2} 1 is the factors' mass m1 m2 at every
scale, so the quantity is |I||J| prod_i w(lambda_i) m_i^2 ln 2, and the
packing sum over an open set is that constant times an exact dyadic
count, sum |I||J| over the grid rectangles inside the set, found by
AND-reducing the set's raster over each cube's cells.  The count shows the
dichotomy as exact statements: normalized by the set's measure it is a
quadratic in the truncation depth with second difference 2, so a
mass-carrying kernel packs no better than depth squared, while a
cancellative factor makes every sum exactly zero.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import Params, QuadratureSpec, StepFunction, octave_nodes
from .dyadic import DyadicCube, ShiftedGrid, strong_maximal_dyadic
from .gstar import apply_theta
from .kernels import weight_total

__all__ = [
    "CarlesonReport",
    "DyadicOpenSet",
    "c_ij",
    "carleson_sum",
    "random_open_set",
    "shadow_sets",
]

# how far theta(1) may vary over sampled offsets before the raw box integral
# refuses (non-convolution kernels have no closed reduction); the raw path
# sums a convolution kernel's mass on translates of one mesh, so its three
# values agree to rounding, and any position dependence above 1e-9 relative
# is refused
_CONST_TOL = 1e-9

# rectangle-sweep guards: per-axis raster cells for the shadow sweep, and
# total enumerated rectangles for a packing sum
_SHADOW_CELLS = 64
_MAX_RECTS = 2_000_000


# ---------------------------------------------------------------------------
# open sets


def _prefix_counts(bitmap: np.ndarray) -> np.ndarray:
    """2-D prefix counts: entry (a, b) counts the set cells of bitmap[:a, :b]."""
    pref = np.zeros((bitmap.shape[0] + 1, bitmap.shape[1] + 1), dtype=np.int64)
    pref[1:, 1:] = np.cumsum(np.cumsum(bitmap, axis=0), axis=1)
    return pref


def _inside_along(grid: ShiftedGrid, raster_level: int, lo_cell: int,
                  level: int, mask: np.ndarray, axis: int):
    """The level-``level`` cubes of one grid along one axis of a raster mask
    whose cells there sit at ``raster_level`` from lattice index ``lo_cell``.

    Returns the first cube's lattice index and the mask AND-reduced over
    each whole cube's raster cells, one entry per cube inside the span; a
    cube finer than a cell is inside where its cell is, so for those the
    mask is repeated.  Exact in integers, from the grid's descendant indices.
    """
    if level > raster_level:
        e = level - raster_level
        first = (lo_cell << e) + grid.descendant_offset(raster_level, level)[0]
        return first, np.repeat(mask, 1 << e, axis=axis)
    # cube k covers the raster cells [start + k width, ... + width) of the span
    width = 1 << (raster_level - level)
    start = grid.descendant_offset(level, raster_level)[0] - lo_cell
    first = -(start // width)
    p = start + first * width
    count = max(0, (mask.shape[axis] - p) // width)
    cells = np.moveaxis(mask, axis, 0)[p:p + count * width]
    inside = cells.reshape(count, width, *cells.shape[1:]).all(axis=1)
    return first, np.moveaxis(inside, 0, axis)


@dataclass(frozen=True, eq=False)
class DyadicOpenSet:
    """A finite union of dyadic rectangles I x J from one grid pair.

    Every point of the union lies in a member rectangle, so the admissibility
    requirement for packing sums holds by construction.  The measure and the
    pixel raster (finest member level per axis, on the shifted lattice) are
    computed once; rasters make both the union measure and the containment
    test of grid rectangles exact: a rectangle is inside when the raster,
    AND-reduced over its cells, is true.  The set keeps each level pair's
    containment (:meth:`_containment`) from the first packing sum that asks
    for it, so sums under other kernels or at another depth reduce no level
    pair again.
    """

    rects: tuple[tuple[DyadicCube, DyadicCube], ...]
    measure: float = field(init=False)  # the union's, set from the raster

    def __post_init__(self) -> None:
        rects = tuple(self.rects)
        if not rects:
            raise ValueError("an open set needs at least one rectangle")
        g1, g2 = rects[0][0].grid, rects[0][1].grid
        for i, j in rects:
            if i.grid is not g1 or j.grid is not g2:
                raise ValueError("all rectangles must come from one grid pair")
            if i.dim != 1 or j.dim != 1:
                raise ValueError("rectangle factors must be one-dimensional")
        object.__setattr__(self, "rects", rects)
        lv1 = max(i.level for i, _ in rects)
        lv2 = max(j.level for _, j in rects)

        def cells(cube, level):
            # the cube's span of level-``level`` raster cells
            lo, = cube.descendant_index(level)
            return lo, lo + (1 << (level - cube.level))

        spans1 = [cells(i, lv1) for i, _ in rects]
        spans2 = [cells(j, lv2) for _, j in rects]
        a1 = min(s[0] for s in spans1)
        a2 = min(s[0] for s in spans2)
        n1 = max(s[1] for s in spans1) - a1
        n2 = max(s[1] for s in spans2) - a2
        bitmap = np.zeros((n1, n2), dtype=bool)
        for (c1, d1), (c2, d2) in zip(spans1, spans2):
            bitmap[c1 - a1:d1 - a1, c2 - a2:d2 - a2] = True
        bitmap.setflags(write=False)
        object.__setattr__(self, "_levels", (lv1, lv2))
        object.__setattr__(self, "_lo", (a1, a2))
        object.__setattr__(self, "_bitmap", bitmap)
        object.__setattr__(self, "measure",
                           math.ldexp(int(bitmap.sum()), -(lv1 + lv2)))
        object.__setattr__(self, "_masks", {})

    def _containment(self, l1: int, l2s: range
                     ) -> list[tuple[int, int, np.ndarray, int]]:
        """The level-(l1, l2) grid rectangles inside the set, for each l2 of
        ``l2s``: the lattice index of the first cube per axis, the read-only
        containment mask over the cubes and its count of true entries.  The
        pairs not yet kept reduce the raster along axis 0 once, together,
        then each along axis 1, and are kept."""
        missing = [l2 for l2 in l2s if (l1, l2) not in self._masks]
        if missing:
            (g1, g2), (lv1, lv2), (lo1, lo2) = self.grids, self._levels, self._lo
            k1, rows = _inside_along(g1, lv1, lo1, l1, self._bitmap, 0)
            for l2 in missing:
                k2, mask = _inside_along(g2, lv2, lo2, l2, rows, 1)
                mask.setflags(write=False)
                self._masks[(l1, l2)] = k1, k2, mask, int(mask.sum())
        return [self._masks[(l1, l2)] for l2 in l2s]

    @property
    def grids(self) -> tuple[ShiftedGrid, ShiftedGrid]:
        return self.rects[0][0].grid, self.rects[0][1].grid

    def _corners(self) -> tuple[DyadicCube, DyadicCube]:
        # the raster's first cell on each axis
        return tuple(g.cube(lv, (lo,)) for g, lv, lo in
                     zip(self.grids, self._levels, self._lo))

    def bounding_box(self) -> tuple[tuple[float, float], ...]:
        out = []
        for cube, n in zip(self._corners(), self._bitmap.shape):
            unit = cube.grid.j_max
            lo, = cube.lattice_corner(unit)
            hi = lo + (n << (unit - cube.level))
            out.append((math.ldexp(lo, -unit), math.ldexp(hi, -unit)))
        return tuple(out)

    def indicator(self) -> StepFunction:
        """The union's indicator on the standard lattice (uniform level)."""
        c1, c2 = self._corners()
        level = max(c1.level, c2.level, c1.lattice_level(), c2.lattice_level())
        r1, r2 = 2 ** (level - c1.level), 2 ** (level - c2.level)
        vals = np.repeat(np.repeat(self._bitmap, r1, axis=0), r2, axis=1)
        return StepFunction(level=level,
                            lo=c1.lattice_corner(level) + c2.lattice_corner(level),
                            values=vals.astype(float))


def random_open_set(gridpair: tuple[ShiftedGrid, ShiftedGrid],
                    rng: np.random.Generator, n_rects: int = 4,
                    level_range: tuple[int, int] = (0, 2)) -> DyadicOpenSet:
    """A random admissible union of up to ``n_rects`` distinct rectangles:
    each side is the cube, at a level drawn from ``level_range`` (both ends
    included), that holds a uniform point of [0, 1)."""
    g1, g2 = gridpair
    lo, hi = level_range
    if n_rects < 1:
        raise ValueError("need at least one rectangle")
    if lo > hi:
        raise ValueError("level_range must be (low, high) with low <= high")
    seen = {}
    for _ in range(n_rects):
        l1 = int(rng.integers(lo, hi + 1))
        l2 = int(rng.integers(lo, hi + 1))
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.0, 1.0))
        i, j = g1.cube_at(l1, (x,)), g2.cube_at(l2, (y,))
        seen[(i.level, i.index, j.level, j.index)] = (i, j)
    return DyadicOpenSet(tuple(seen[k] for k in sorted(seen)))


# ---------------------------------------------------------------------------
# the box quantity


def _box_constant(kernel, lam1: float, lam2: float) -> float:
    """A tensor kernel's box quantity of the unit rectangle.

    theta_{t1,t2} 1 = m1 m2 at every scale, so each axis's weight integral
    is w(lambda) t and its Whitney band int_{1/2}^1 dt/t is ln 2: the box of
    I x J is |I||J| prod_i w(lambda_i) m_i^2 ln 2, and this is the product.
    """
    bands = (weight_total(1.0, lam) * f.mass(1.0) ** 2
             for f, lam in zip(kernel.tensor_parts, (lam1, lam2)))
    return math.prod(bands) * math.log(2.0) ** 2


def _theta_one_const(kernel, t1: float, t2: float,
                     spec: QuadratureSpec) -> float:
    """theta(1) at scale (t1, t2), asserting it is position independent."""
    # double the per-cell resolution for accuracy: at the default order the
    # midpoint rule on the mass window reads c_ij 1.1e-2 low
    spec = replace(spec, points_per_cell=2 * spec.points_per_cell)
    one = StepFunction(level=0, lo=(0, 0), values=np.ones((1, 1)), tail=1.0)
    offsets = ((0.0, 0.0), (0.31 * t1, -0.47 * t2), (-1.3 * t1, 0.83 * t2))
    vals = [apply_theta(kernel, one, v, t1, t2, spec) for v in offsets]
    lo, hi = min(vals), max(vals)
    if hi - lo > _CONST_TOL * max(1.0, abs(hi), abs(lo)):
        raise NotImplementedError(
            "theta(1) varies with position; the factorized box integral "
            "needs a convolution kernel")
    return float(np.mean(vals))


@functools.lru_cache(maxsize=1024)
def _cij_scales(kernel, side1: float, side2: float, lam1: float, lam2: float,
                spec: QuadratureSpec) -> float:
    (t1n, t1w), (t2n, t2w) = (
        octave_nodes(s / 2.0, s, spec.t_points_per_octave, spec.rule)
        for s in (side1, side2))
    acc = 0.0
    for t1, w1 in zip(t1n, t1w):
        for t2, w2 in zip(t2n, t2w):
            m = _theta_one_const(kernel, t1, t2, spec)
            acc += m * m * (w1 / t1) * (w2 / t2)
    return (side1 * side2 * weight_total(1.0, lam1) * weight_total(1.0, lam2)
            * acc)


def c_ij(kernel, i: DyadicCube, j: DyadicCube, params: Params,
         spec: QuadratureSpec | None = None) -> float:
    """The Whitney-box mass of |theta 1|^2 with both weights.

    A tensor kernel's is `_box_constant` times |I||J| and ``spec`` goes
    unused; any other is integrated from raw theta(1) values at ``spec``,
    cached per scale pair, and refused unless they are position independent.
    The weight integral diverges for lambda <= 1, which :func:`weight_total`
    rejects rather than truncates.
    """
    if i.dim != 1 or j.dim != 1:
        raise ValueError("the rectangle factors must be one-dimensional")
    if kernel.tensor_parts is not None:
        return math.ldexp(_box_constant(kernel, *params.weight_powers),
                          -(i.level + j.level))
    return _cij_scales(kernel, i.side, j.side, *params.weight_powers,
                       spec or QuadratureSpec())


# ---------------------------------------------------------------------------
# packing sums


class _Block(NamedTuple):
    """The rectangles of one level pair inside an open set."""

    k1: int  # lattice index of the mask's first row, axis 1
    k2: int  # and of its first column, axis 2
    ok: np.ndarray  # containment mask over the level pair's cubes, read-only
    value: float  # the box quantity, shared by the level pair
    count: int  # true entries of the mask


class _RectView(Mapping):
    """Read-only map (I, J) -> box quantity over one sum's level-pair blocks.

    Lookup is integer arithmetic on a block's mask; iterating builds the
    cubes on demand, level pairs in enumeration order and each mask in row
    order.
    """

    def __init__(self, grids: tuple[ShiftedGrid, ShiftedGrid],
                 blocks: dict[tuple[int, int], _Block]) -> None:
        self._grids = grids
        self._blocks = blocks
        self._count = sum(b.count for b in blocks.values())

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key):
        if (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(c, DyadicCube) for c in key)
                and (key[0].grid, key[1].grid) == self._grids):
            i, j = key
            block = self._blocks.get((i.level, j.level))
            if block is not None:
                a, b = i.index[0] - block.k1, j.index[0] - block.k2
                n1, n2 = block.ok.shape
                if 0 <= a < n1 and 0 <= b < n2 and block.ok[a, b]:
                    return block.value
        raise KeyError(key)

    def __iter__(self):
        g1, g2 = self._grids
        for (l1, l2), (k1, k2, ok, _, _) in self._blocks.items():
            for a, b in np.argwhere(ok).tolist():
                yield g1.cube(l1, (k1 + a,)), g2.cube(l2, (k2 + b,))

    def values(self) -> np.ndarray:
        """Every rectangle's value in iteration order, as one array."""
        blocks = self._blocks.values()
        return np.repeat([b.value for b in blocks], [b.count for b in blocks])


@dataclass(frozen=True)
class CarlesonReport:
    """One packing sum: every enumerated rectangle with its box quantity.

    ``count`` is the exact dyadic sum of |I||J| over the enumerated
    rectangles, the same for every kernel; ``total``, ``ratio`` and
    ``last_level_total`` are the box constant times counts, each rounded
    once.  ``rect_values`` is a read-only view kept per level pair: O(1)
    length, lookup by integer arithmetic, cubes built on demand.
    """

    rect_values: Mapping[tuple[DyadicCube, DyadicCube], float]
    count: Fraction
    total: float
    measure: float
    ratio: float
    levels: int
    last_level_total: float

    def __post_init__(self) -> None:
        vals = self.rect_values.values()
        if not isinstance(vals, np.ndarray):
            vals = np.fromiter(vals, dtype=float)
        if (vals < 0).any():
            raise ValueError("box quantities are nonnegative")
        s = float(vals.sum())
        if abs(s - self.total) > 1e-9 * max(1.0, abs(self.total)):
            raise ValueError("total does not match the per-rectangle map")


def _level_range(grid: ShiftedGrid, raster_level: int, cells: int,
                 levels: int) -> range:
    """The levels a packing sum enumerates along one axis: from the coarsest
    cube that can fit in the raster's ``cells`` cells (no coarser than the
    grid) to ``levels`` below the raster level."""
    fine = raster_level + levels
    if fine > grid.j_max:
        raise ValueError("enumeration depth exceeds the grid truncation")
    return range(max(grid.j_min, raster_level - (cells.bit_length() - 1)),
                 fine + 1)


def carleson_sum(kernel, omega: DyadicOpenSet, levels: int,
                 params: Params) -> CarlesonReport:
    """Sum of box quantities over every grid rectangle inside the set, for a
    tensor kernel only: `_box_constant` times 2^-(l1 + l2) at the level pair
    (l1, l2), as in `c_ij`, with no quadrature and so no spec.

    ``levels`` counts enumeration depth below the finest member rectangle per
    axis; coarser rectangles than the members are enumerated too whenever
    they fit.  Containment is decided exactly on the member raster, and the
    report's ``count``, sum over the level pairs of count * 2^-(l1 + l2), is
    an integer over 2^(fine1 + fine2) at the finest levels; the totals are
    the box constant times it, rounded once.  The finest-level shell is
    reported separately so growth is visible.

    No rectangle is built while summing: the report's ``rect_values`` is a
    read-only view kept per level pair (containment mask, lattice offsets,
    box value), and iterating it builds the cubes on demand.  The masks are
    the set's own, AND-reduced from its raster by the first sum that asks
    for a level pair; the ``_MAX_RECTS`` guard runs per call.  A kernel
    without ``tensor_parts`` is refused first.
    """
    if kernel.tensor_parts is None:
        raise NotImplementedError("packing sums need a tensor kernel")
    if levels < 1:
        raise ValueError("need levels >= 1")
    l1s, l2s = (_level_range(g, lv, n, levels) for g, lv, n in
                zip(omega.grids, omega._levels, omega._bitmap.shape))
    fine1, fine2 = l1s[-1], l2s[-1]
    const = _box_constant(kernel, *params.weight_powers)
    blocks: dict = {}
    n_rects = 0
    # the counts, in units of the finest level pair's |I||J|
    count = shell = 0
    for l1 in l1s:
        for l2, (k1, k2, ok, n) in zip(l2s, omega._containment(l1, l2s)):
            if n == 0:
                continue
            n_rects += n
            if n_rects > _MAX_RECTS:
                raise ValueError(
                    "rectangle enumeration exceeds the size guard; "
                    "reduce the level depth")
            blocks[(l1, l2)] = _Block(k1, k2, ok,
                                      math.ldexp(const, -(l1 + l2)), n)
            units = n << (fine1 - l1 + fine2 - l2)
            count += units
            if l1 == fine1 or l2 == fine2:
                shell += units
    # the finest level pair's box value, exact
    box = Fraction(const) / (1 << (fine1 + fine2))
    return CarlesonReport(
        rect_values=_RectView(omega.grids, blocks),
        count=Fraction(count, 1 << (fine1 + fine2)),
        total=float(box * count), measure=omega.measure,
        ratio=float(box * count / Fraction(omega.measure)),
        levels=levels, last_level_total=float(box * shell))


# ---------------------------------------------------------------------------
# shadow sets


def _trim(f: StepFunction) -> StepFunction:
    rows = np.flatnonzero(f.values.any(axis=1))
    cols = np.flatnonzero(f.values.any(axis=0))
    if rows.size == 0:
        raise ValueError("empty indicator")
    r0, r1 = rows[0], rows[-1] + 1
    c0, c1 = cols[0], cols[-1] + 1
    return StepFunction(level=f.level, lo=(f.lo[0] + int(r0), f.lo[1] + int(c0)),
                        values=f.values[r0:r1, c0:c1])


def _back_window_or(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """OR of a over the trailing window [i - w + 1, i] along one axis."""
    out = a
    span = 1
    while span < w:
        sh = min(span, w - span)
        shifted = np.zeros_like(out)
        if axis == 0:
            shifted[sh:, :] = out[:-sh, :]
        else:
            shifted[:, sh:] = out[:, :-sh]
        out = out | shifted
        span += sh
    return out


def _inside_sweep(bitmap: np.ndarray, c: float) -> np.ndarray:
    """Cells covered by some lattice rectangle with indicator mean > c."""
    n1, n2 = bitmap.shape
    pref = _prefix_counts(bitmap)
    hit = bitmap.copy()
    canvas = np.zeros_like(bitmap)
    for w1 in range(1, n1 + 1):
        for w2 in range(1, n2 + 1):
            if w1 == w2 == 1:
                continue
            sums = (pref[w1:, w2:] - pref[:-w1, w2:]
                    - pref[w1:, :-w2] + pref[:-w1, :-w2])
            starts = sums > c * (w1 * w2)
            if not starts.any():
                continue
            canvas[:] = False
            canvas[:starts.shape[0], :starts.shape[1]] = starts
            hit |= _back_window_or(_back_window_or(canvas, w1, 0), w2, 1)
    return hit


def _east_strip(bitmap: np.ndarray, c: float, pad: int) -> np.ndarray:
    """Membership for cells beyond the last row, in the column range."""
    n1, n2 = bitmap.shape
    pref = _prefix_counts(bitmap)
    a1 = np.arange(n1, dtype=float)
    tau = np.full(n2, -np.inf)
    for lo in range(n2):
        for hi in range(lo + 1, n2 + 1):
            h = hi - lo
            mass = (pref[n1, hi] - pref[:-1, hi]
                    - pref[n1, lo] + pref[:-1, lo]).astype(float)
            best = float(np.max(a1 + mass / (c * h)))
            tau[lo:hi] = np.maximum(tau[lo:hi], best)
    rows = n1 + 1 + np.arange(pad, dtype=float)  # hull reach i + 1
    return rows[:, None] < tau[None, :]


def _corner_block(bitmap: np.ndarray, c: float, pad1: int,
                  pad2: int) -> np.ndarray:
    """Membership beyond both the last row and the last column."""
    n1, n2 = bitmap.shape
    pref = _prefix_counts(bitmap)
    suff = (pref[n1, n2] - pref[:-1, n2][:, None]
            - pref[n1, :-1][None, :] + pref[:-1, :-1]).astype(float)
    a1 = np.arange(n1, dtype=float)[:, None]
    a2 = np.arange(n2, dtype=float)[None, :]
    out = np.zeros((pad1, pad2), dtype=bool)
    cols = n2 + 1 + np.arange(pad2, dtype=float)
    for r in range(pad1):
        depth = n1 + r + 1 - a1
        jb = float(np.max(a2 + suff / (c * depth)))
        out[r] = cols < jb
    return out


def _lattice_shadow(ind: StepFunction, c: float) -> StepFunction:
    """The set where the lattice strong maximal of an indicator exceeds c.

    Rectangles are arbitrary unions of raster cells; a cell belongs when some
    rectangle containing it holds indicator mass above the c fraction.  The
    interior is an exhaustive window sweep; beyond the support's bounding box
    the optimal rectangle pins to the box, which reduces each outer region to
    a per-column threshold.
    """
    bitmap = ind.values > 0
    n1, n2 = bitmap.shape
    if max(n1, n2) > _SHADOW_CELLS:
        raise ValueError(
            "shadow raster exceeds the rectangle-sweep guard "
            f"({_SHADOW_CELLS} cells per axis); use shallower grids")
    pad1 = math.ceil(n1 / c)
    pad2 = math.ceil(n2 / c)
    big = np.zeros((n1 + 2 * pad1, n2 + 2 * pad2), dtype=bool)
    big[pad1:pad1 + n1, pad2:pad2 + n2] = _inside_sweep(bitmap, c)

    # four edge strips via orientation flips of the same sweep
    east = _east_strip(bitmap, c, pad1)
    big[pad1 + n1:, pad2:pad2 + n2] |= east
    west = _east_strip(bitmap[::-1, :], c, pad1)
    big[:pad1, pad2:pad2 + n2] |= west[::-1, :]
    south = _east_strip(bitmap.T, c, pad2)
    big[pad1:pad1 + n1, pad2 + n2:] |= south.T
    north = _east_strip(bitmap[:, ::-1].T, c, pad2)
    big[pad1:pad1 + n1, :pad2] |= north.T[:, ::-1]

    # four corner blocks likewise
    big[pad1 + n1:, pad2 + n2:] |= _corner_block(bitmap, c, pad1, pad2)
    big[:pad1, pad2 + n2:] |= _corner_block(bitmap[::-1, :], c, pad1,
                                            pad2)[::-1, :]
    big[pad1 + n1:, :pad2] |= _corner_block(bitmap[:, ::-1], c, pad1,
                                            pad2)[:, ::-1]
    big[:pad1, :pad2] |= _corner_block(bitmap[::-1, ::-1], c, pad1,
                                       pad2)[::-1, ::-1]
    out = StepFunction(level=ind.level,
                       lo=(ind.lo[0] - pad1, ind.lo[1] - pad2),
                       values=big.astype(float))
    return _trim(out)


def shadow_sets(omega: DyadicOpenSet,
                gridpair: tuple[ShiftedGrid, ShiftedGrid],
                c: float = 0.125):
    """The dyadic-maximal and full-maximal enlargements of an open set.

    The first set thresholds the grid-rectangle maximal at 1/2; the second
    thresholds the unrestricted lattice rectangle maximal of the first's
    indicator at ``c``.  Both come back as 0/1 step functions.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    ind = omega.indicator()
    (lo1, hi1), (lo2, hi2) = omega.bounding_box()
    e1, e2 = hi1 - lo1, hi2 - lo2
    out_box = ((lo1 - 2 * e1, hi1 + 2 * e1), (lo2 - 2 * e2, hi2 + 2 * e2))
    md = strong_maximal_dyadic(ind, gridpair, out_box=out_box)
    tilde = _trim(StepFunction(level=md.level, lo=md.lo,
                               values=(md.values > 0.5).astype(float)))
    hat = _lattice_shadow(tilde, c)
    return tilde, hat
