"""Shifted dyadic grids, cube geometry, goodness, maximal function.

A grid is the standard dyadic lattice translated by a random shift that is
resolved scale by scale: the position of a cube of side 2^-j depends only on
the shift bits at levels strictly finer than j.  Consequently the *relative*
position of a cube inside its k-generations-coarser ancestor is driven by
exactly k bits, which is what makes the good-cube probability computable in
closed form (`pi_good_exact`) and independent of the base cube.

A cube is *good* when it keeps a quantitative distance from the boundary of
every much coarser cube of the same grid: for all in-grid J with
ell(J) >= 2^r ell(I),

    dist(I, boundary J) > ell(I)^gamma ell(J)^(1-gamma).

All metric quantities use the sup norm.  Coordinates of shifted cubes are
dyadic rationals, exact in binary floating point at every scale used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import Params, StepFunction

__all__ = [
    "DEFAULT_OCTAVES",
    "DyadicCube",
    "ShiftedGrid",
    "default_shift_radius",
    "estimate_pi_good",
    "is_good",
    "long_distance",
    "pi_good_exact",
    "schur_coeff",
    "set_distance",
    "strong_maximal_dyadic",
    "trial_stream",
]

# Coarser scales available above a tested cube under the default truncation.
DEFAULT_OCTAVES = 12


def trial_stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based stream: trial t of seed s is reproducible regardless of
    how trials are scheduled across threads."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[trial, 0, 0, 0]))


# ---------------------------------------------------------------------------
# grids and cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShiftedGrid:
    """A truncated dyadic grid with per-level binary shifts.

    ``bits[j - j_min]`` is the shift bit vector at level j (one bit per axis).
    A cube at level j is translated by sum over i > j of 2^-i bits[i], so its
    position depends only on bits at levels strictly finer than its side --
    flipping a bit at level i <= j moves nothing at level j, and flipping one
    at i > j moves level-j cubes rigidly by 2^-i.
    """

    dim: int
    j_min: int
    j_max: int
    bits: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.j_min > self.j_max:
            raise ValueError("j_min must not exceed j_max")
        b = np.asarray(self.bits, dtype=np.int64)
        expected = (self.j_max - self.j_min + 1, self.dim)
        if b.shape != expected:
            raise ValueError(f"bits must have shape {expected}")
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("shift bits must be 0 or 1")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)
        # Accumulated float shifts per level: every entry is a dyadic rational
        # with at most j_max - j_min bits, hence exact in binary floating point.
        table = np.zeros((self.j_max - self.j_min + 2, self.dim))
        for i in range(self.j_max, self.j_min, -1):
            table[i - self.j_min] = table[i - self.j_min + 1] + b[i - self.j_min] * 2.0 ** -i
        table[0] = table[1] + b[0] * 2.0 ** -self.j_min  # shift seen below j_min
        table.setflags(write=False)
        object.__setattr__(self, "_shift_table", table)

    @classmethod
    def standard(cls, dim: int, j_min: int, j_max: int) -> "ShiftedGrid":
        return cls(dim=dim, j_min=j_min, j_max=j_max,
                   bits=np.zeros((j_max - j_min + 1, dim), dtype=np.int64))

    @classmethod
    def random(cls, dim: int, j_min: int, j_max: int, seed: int, trial: int = 0) -> "ShiftedGrid":
        rng = trial_stream(seed, trial)
        bits = rng.integers(0, 2, size=(j_max - j_min + 1, dim))
        return cls(dim=dim, j_min=j_min, j_max=j_max, bits=bits, seed=seed)

    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def shift_fraction(self, level: int) -> tuple[Fraction, ...]:
        """Accumulated shift applied to level-``level`` cubes, exactly."""
        out = [Fraction(0)] * self.dim
        for i in range(max(level + 1, self.j_min), self.j_max + 1):
            row = self.bits[i - self.j_min]
            w = Fraction(2) ** -i
            for d in range(self.dim):
                if row[d]:
                    out[d] += w
        return tuple(out)

    def shift(self, level: int) -> np.ndarray:
        """Float twin of shift_fraction; exact, since shifts are dyadic."""
        r = min(max(level - self.j_min + 1, 0), self.j_max - self.j_min + 1)
        return self._shift_table[r]

    def cube(self, level: int, index: Sequence[int]) -> "DyadicCube":
        if not self.j_min <= level <= self.j_max:
            raise ValueError("level outside grid truncation")
        return DyadicCube(grid=self, level=level, index=tuple(int(k) for k in index))

    def cube_at(self, level: int, point: Sequence[float]) -> "DyadicCube":
        """The unique level-``level`` cube containing the point."""
        s = self.shift(level)
        idx = tuple(int(math.floor((float(x) - si) * 2.0 ** level))
                    for x, si in zip(point, s))
        return self.cube(level, idx)

    def ancestor(self, cube: "DyadicCube", generations: int) -> "DyadicCube":
        """The in-grid cube ``generations`` levels coarser containing ``cube``."""
        if generations < 0:
            raise ValueError("generations must be nonnegative")
        target = cube.level - generations
        return self.cube_at(target, cube.center())

    def cubes_overlapping(self, level: int, box: Sequence[Sequence[float]]) -> Iterator["DyadicCube"]:
        """All level-``level`` cubes whose interior meets the open box."""
        s = self.shift(level)
        scale = 2.0 ** level
        ranges = []
        for d, (lo, hi) in enumerate(box):
            k_lo = int(math.floor((lo - s[d]) * scale))
            k_hi = int(math.ceil((hi - s[d]) * scale))
            ranges.append(range(k_lo, k_hi))
        if self.dim == 1:
            for k in ranges[0]:
                yield self.cube(level, (k,))
        else:
            idx = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, self.dim)
            for row in idx:
                yield self.cube(level, tuple(row))


@dataclass(frozen=True)
class DyadicCube:
    """A cube of a (possibly shifted) truncated dyadic grid: side 2^-level,
    corner 2^-level * index + grid shift at that level.  Equality and hashing
    treat the owning grid by identity (grids compare by identity), so cubes
    are usable as mapping keys."""

    grid: ShiftedGrid
    level: int
    index: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def side(self) -> float:
        return 2.0 ** -self.level

    def side_fraction(self) -> Fraction:
        return Fraction(2) ** -self.level

    def corner_fractions(self) -> tuple[Fraction, ...]:
        s = self.grid.shift_fraction(self.level)
        h = self.side_fraction()
        return tuple(k * h + si for k, si in zip(self.index, s))

    def box(self) -> tuple[tuple[float, float], ...]:
        # float corners are exact: dyadic index times dyadic side plus dyadic shift
        h = self.side
        s = self.grid.shift(self.level)
        return tuple((k * h + si, (k + 1) * h + si)
                     for k, si in zip(self.index, s))

    def box_fractions(self) -> tuple[tuple[Fraction, Fraction], ...]:
        h = self.side_fraction()
        return tuple((c, c + h) for c in self.corner_fractions())

    def center(self) -> tuple[float, ...]:
        h = self.side
        s = self.grid.shift(self.level)
        return tuple(k * h + si + h / 2.0 for k, si in zip(self.index, s))

    def measure(self) -> float:
        return self.side ** self.dim

    def contains(self, other: "DyadicCube") -> bool:
        for (a, b), (c, d) in zip(self.box(), other.box()):
            if not (a <= c and d <= b):
                return False
        return True


# ---------------------------------------------------------------------------
# metric quantities
# ---------------------------------------------------------------------------


def _box_gap(b1, b2) -> float:
    """Sup-norm distance between two axis boxes (0 if they intersect)."""
    gap = 0.0
    for (a, b), (c, d) in zip(b1, b2):
        if c > b:
            gap = max(gap, c - b)
        elif a > d:
            gap = max(gap, a - d)
    return gap


def set_distance(i1: DyadicCube, i2: DyadicCube) -> float:
    """inf over point pairs of the sup-norm distance; 0 when the cubes meet."""
    if i1.dim != i2.dim:
        raise ValueError("dimension mismatch")
    return _box_gap(i1.box(), i2.box())


def long_distance(i1: DyadicCube, i2: DyadicCube) -> float:
    """ell(I1) + ell(I2) + dist(I1, I2): comparable to the diameter of the
    smallest box containing both cubes."""
    if i1.dim != i2.dim:
        raise ValueError("dimension mismatch")
    return i1.side + i2.side + set_distance(i1, i2)


def schur_coeff(i1: DyadicCube, i2: DyadicCube, alpha: float) -> float:
    """Entry of the summable coupling matrix between two cubes:
    ell1^(a/2) ell2^(a/2) / D^(n+a) * |I1|^(1/2) |I2|^(1/2)."""
    n = i1.dim
    d = long_distance(i1, i2)
    return (
        i1.side ** (alpha / 2.0)
        * i2.side ** (alpha / 2.0)
        * d ** -(n + alpha)
        * i1.measure() ** 0.5
        * i2.measure() ** 0.5
    )


def _distance_to_boundary(inner: DyadicCube, outer: DyadicCube) -> float:
    """Sup-norm distance from the closed cube ``inner`` to the boundary of
    ``outer``.  Convention: 0 when the cubes overlap without containment."""
    ib, ob = inner.box(), outer.box()
    contained = all(a <= c and d <= b for (a, b), (c, d) in zip(ob, ib))
    if contained:
        return min(min(c - a, b - d) for (a, b), (c, d) in zip(ob, ib))
    return _box_gap(ib, ob)  # 0.0 on partial overlap, the stated convention


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


def _qualifying_levels(cube: DyadicCube, r: int) -> range:
    grid = cube.grid
    if not grid.j_min <= cube.level <= grid.j_max:
        raise ValueError(
            "insufficient scale range: cube level lies outside the grid truncation"
        )
    return range(grid.j_min, cube.level - r + 1)


def is_good(cube: DyadicCube, grid: ShiftedGrid, params: Params) -> bool:
    """True when no same-grid cube at least 2^r times coarser has its boundary
    within ell(I)^gamma ell(J)^(1-gamma) of I.

    Scans, per qualifying level, the containing ancestor and all neighbours
    within ell(J) of I (farther cubes cannot violate: their distance already
    exceeds ell(J), which exceeds the threshold).  If the truncation admits no
    qualifying level at all the cube is good vacuously; experiments report
    their truncation so this regime stays visible.
    """
    if cube.grid is not grid:
        raise ValueError("cube does not belong to the given grid")
    gamma = params.gamma_n if grid.dim == params.n else params.gamma_m
    ell_i = cube.side
    for j in _qualifying_levels(cube, params.r):
        ell_j = 2.0 ** -j
        threshold = ell_i ** gamma * ell_j ** (1.0 - gamma)
        anchor = grid.cube_at(j, cube.center())
        offsets = np.stack(
            np.meshgrid(*([(-1, 0, 1)] * grid.dim), indexing="ij"), axis=-1
        ).reshape(-1, grid.dim)
        for off in offsets:
            j_cube = grid.cube(j, tuple(np.asarray(anchor.index) + off))
            if set_distance(cube, j_cube) > ell_j:
                continue
            if _distance_to_boundary(cube, j_cube) <= threshold:
                return False
    return True


def pi_good_exact(gamma: Fraction, r: int, octaves: int) -> Fraction:
    """Exact probability that a cube is good, over iid uniform shift bits.

    The offset of the cube inside its k-generations-coarser ancestor, in units
    of ell(I), is o_k = o mod 2^k for a single integer o uniform on [0, 2^K)
    (K = ``octaves``): each extra generation prepends one iid bit.  Goodness
    at scale k asks min(o_k, 2^k - 1 - o_k) > 2^(k(1-gamma)), an exact integer
    comparison once gamma is rational.  The feasible set is a union of
    intervals maintained through the doubling chain, so the count is exact.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if r < 1 or octaves < 0:
        raise ValueError("need r >= 1 and octaves >= 0")
    if octaves < r:
        return Fraction(1)  # no qualifying scale: vacuously good

    p, q = gamma.numerator, gamma.denominator

    def threshold_floor(k: int) -> int:
        # largest integer d with d^q <= 2^(k (q - p))
        target = 1 << (k * (q - p))
        d = int(round(target ** (1.0 / q)))
        while d ** q > target:
            d -= 1
        while (d + 1) ** q <= target:
            d += 1
        return d

    def window(k: int) -> tuple[int, int]:
        th = threshold_floor(k)
        return th + 1, (1 << k) - 2 - th  # empty when lo > hi

    def clip(intervals, lo, hi):
        out = []
        for a, b in intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 <= b2:
                out.append((a2, b2))
        return out

    def merge(intervals):
        out = []
        for a, b in sorted(intervals):
            if out and a <= out[-1][1] + 1:
                out[-1] = (out[-1][0], max(out[-1][1], b))
            else:
                out.append((a, b))
        return out

    feasible = [(0, (1 << r) - 1)]
    feasible = clip(feasible, *window(r))
    for k in range(r, octaves):
        shifted = [(a + (1 << k), b + (1 << k)) for a, b in feasible]
        feasible = merge(feasible + shifted)
        feasible = clip(feasible, *window(k + 1))
    count = sum(b - a + 1 for a, b in feasible)
    return Fraction(count, 1 << octaves)


def default_shift_radius(
    gamma: Fraction = Fraction(1, 6),
    octaves: int = DEFAULT_OCTAVES,
    floor: Fraction = Fraction(1, 20),
) -> int:
    """Smallest goodness radius whose exact good-cube probability reaches the
    floor at the given truncation depth.  The feasibility heuristic
    (1/2 - 2^-r) > 2^(-r gamma) looks only at a single scale and admits radii
    whose multi-scale probability is zero, so the exact enumeration is the
    arbiter here."""
    r = 1
    while pi_good_exact(gamma, r, octaves) < floor:
        r += 1
        if r > 64:
            raise RuntimeError("no feasible radius below 64")
    return r


def estimate_pi_good(
    params: Params,
    trials: int,
    level_of_i: int,
    seed: int,
    j_min: int = 0,
    base_index: int = 0,
    dim: int = 1,
) -> tuple[float, float]:
    """Monte-Carlo frequency of goodness over independent shift draws, with a
    normal-approximation 95% confidence half-width (rule-of-three at zero
    hits).  The tested cube has a fixed index; by construction of the shifts
    the law of its relative position is index-independent, which the test
    suite checks by varying ``base_index``."""
    if trials < 100:
        raise ValueError("need at least 100 trials for the normal approximation")
    hits = 0
    for t in range(trials):
        grid = ShiftedGrid.random(dim, j_min, level_of_i, seed, trial=t)
        cube = grid.cube(level_of_i, (base_index,) * dim)
        if is_good(cube, grid, params):
            hits += 1
    est = hits / trials
    if hits == 0 or hits == trials:
        half = 3.0 / trials
    else:
        half = 1.96 * math.sqrt(est * (1.0 - est) / trials)
    return est, half


# ---------------------------------------------------------------------------
# strong maximal function on a grid pair
# ---------------------------------------------------------------------------


def strong_maximal_dyadic(
    f: StepFunction,
    gridpair: tuple[ShiftedGrid, ShiftedGrid],
    out_box: Sequence[Sequence[float]] | None = None,
) -> StepFunction:
    """Largest average of f over grid rectangles I x J containing each point.

    I runs over the first grid's cubes (all truncation levels), J over the
    second's; the output is exact on the step-function lattice.  Because the
    true maximal function is positive far outside supp f, the result is only
    represented on ``out_box`` (default: the support box of f); rectangles are
    still allowed to extend past the box, f being zero there.
    """
    g1, g2 = gridpair
    if g1.dim + g2.dim != f.dim:
        raise ValueError("grid-pair dimensions must sum to the function's")
    if g1.dim != 1 or g2.dim != 1:
        raise NotImplementedError("maximal sweep is implemented for 1+1 factors")
    if f.tail != 0.0:
        raise ValueError("tail must vanish")
    if np.any(f.values < 0):
        raise ValueError("nonnegative input required")

    level = max(f.level, g1.j_max, g2.j_max)
    fr = f.refined(level)
    if out_box is None:
        lo_idx, shape = fr.lo, fr.shape
    else:
        scale = 2.0 ** level
        lo_idx, shape = [], []
        for (lo, hi) in out_box:
            a = int(math.floor(lo * scale))
            b = int(math.ceil(hi * scale))
            lo_idx.append(a)
            shape.append(max(b - a, 1))
        lo_idx, shape = tuple(lo_idx), tuple(shape)

    # prefix sums of f on its own box; rectangle sums clip to it (f = 0 outside)
    pref = np.zeros((fr.shape[0] + 1, fr.shape[1] + 1))
    pref[1:, 1:] = np.cumsum(np.cumsum(fr.values, axis=0), axis=1)

    def box_sum(alo, ahi, blo, bhi):
        # clip absolute cell ranges to f's box, then read the prefix table
        alo = np.clip(alo - fr.lo[0], 0, fr.shape[0])
        ahi = np.clip(ahi - fr.lo[0], 0, fr.shape[0])
        blo = np.clip(blo - fr.lo[1], 0, fr.shape[1])
        bhi = np.clip(bhi - fr.lo[1], 0, fr.shape[1])
        return (pref[np.ix_(ahi, bhi)] - pref[np.ix_(alo, bhi)]
                - pref[np.ix_(ahi, blo)] + pref[np.ix_(alo, blo)])

    cells_a = np.arange(lo_idx[0], lo_idx[0] + shape[0])
    cells_b = np.arange(lo_idx[1], lo_idx[1] + shape[1])
    out = np.zeros(shape)
    for ja in g1.levels():
        sa = 2 ** (level - ja)
        # grid-1 shift at level ja, in cells of the working lattice
        off_a = int(g1.shift_fraction(ja)[0] * 2 ** level)
        ra_lo = ((cells_a - off_a) // sa) * sa + off_a
        for jb in g2.levels():
            sb = 2 ** (level - jb)
            off_b = int(g2.shift_fraction(jb)[0] * 2 ** level)
            rb_lo = ((cells_b - off_b) // sb) * sb + off_b
            sums = box_sum(ra_lo, ra_lo + sa, rb_lo, rb_lo + sb)
            np.maximum(out, sums / (sa * sb), out=out)
    return StepFunction(level=level, lo=lo_idx, values=out, tail=0.0)
