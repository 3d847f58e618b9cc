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

Positions are recorded exactly in one place: each grid's integer shift
table, the shift of every level in units of 2^-j_max held as Python ints
(`ShiftedGrid.offset`).  Lattice corners, descendant indices, goodness and
the maximal function's offsets are all read from it, at any depth; the float
view behind `shift`, `box` and `center` is derived from it and is exact up to
53 levels of depth.

Goodness is decided from integers alone.  For a cube at level l with index b
in a grid truncated at j_min, let S = sum_{i=j_min+1..l} bits_i 2^(l-i) per
axis (the shift bits read as a binary number); in the table O, S is
(O[j_min] - O[l]) >> (j_max - l) (`ShiftedGrid.descendant_offset`).  Its
offset inside the k-generation ancestor, in units of ell(I), is
o_k = (b - S) mod 2^k, and its distance to that ancestor's boundary is
min(o_k, 2^k - 1 - o_k) ell(I) on the nearest axis.  Only the containing
ancestor matters: every other cube of the same level lies outside it, so it
is no closer to I than its boundary.

Both are array programs.  `shift_tables` stacks the integer tables of many
random grids (trials) into one array without building a grid, by the same
rule each `ShiftedGrid` builds its own: int64 below 62 levels of depth,
Python ints in object arrays past that.  `is_good_offset` decides goodness
for whole arrays of offsets b - S at once, and `is_good` is its one-cube
call, so a sweep over trials or over a level's cubes tests one column of
offsets per call instead of one cube.

Shift bits are counter-based: trial t of seed s reads the Philox4x64-10
stream with key [s, 0] whose block b is the cipher of counter [b + 1, t, 0,
0], so a trial's bits never depend on which other trials were drawn.
`_shift_bits` runs that cipher in numpy arrays over every trial and block a
call needs at once, and takes bit i of a trial (C order over levels and
axes) from bit 31 (i even) or bit 63 (i odd) of 64-bit word i // 2: what
``trial_stream(s, t).integers(0, 2, size)`` draws, which is its test
oracle.  Seeds lie in [0, 2^64) and trials in [0, 2^63).

All metric quantities use the sup norm.
"""

from __future__ import annotations

import functools
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
    "goodness_gamma",
    "is_good",
    "is_good_offset",
    "long_distance",
    "pi_good_exact",
    "schur_coeff",
    "schur_matrix",
    "set_distance",
    "shift_tables",
    "strong_maximal_dyadic",
    "trial_stream",
]

# Coarser scales available above a tested cube under the default truncation.
DEFAULT_OCTAVES = 12

# Trials whose shift tables estimate_pi_good holds at once (about 1.5 MB of
# int64 at depth 21 in 2-D), and whose Philox words _shift_bits computes at
# once.
_TRIAL_BLOCK = 4096


def trial_stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based stream: trial t of seed s draws the same numbers whatever
    other trials were drawn before it, or whether they were drawn at all.

    numpy's Philox4x64-10 with key [s, 0] and counter [0, t, 0, 0]; its
    block b (four 64-bit words) is the cipher of counter [b + 1, t, 0, 0].
    The trial sits in counter word 1: the generator advances word 0, so with
    the trial there stream t + 1 would be stream t one block on.

    The kernel checkers draw from it.  Shift bits do not: `_shift_bits`
    computes the same words for many trials at once, and this stream is its
    test oracle."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, trial, 0, 0]))


# Philox4x64-10 (Salmon et al., SC11) as numpy runs it: the round
# multipliers of counter words 0 and 2, stacked as two lanes and split into
# 32-bit halves, and the Weyl increments of the two key words.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _HALF

# Seeds are Philox keys, one 64-bit word; trials are counter words below
# 2^63, the int64 range.
_SEED_END = 1 << 64
_TRIAL_END = 1 << 63


def _philox_blocks(seed: int, trials: np.ndarray, blocks: int) -> np.ndarray:
    """Blocks 0 .. blocks - 1 of `trial_stream(seed, t)` for each t in
    ``trials`` (uint64), shape (len(trials), 4 blocks): the Philox4x64-10
    cipher of counter [b + 1, t, 0, 0] under key [seed, 0].

    The state is two (2, n) lanes: `mul` holds counter words 0 and 2, which
    each round multiplies, and `mix` words 1 and 3, which it xors in.  The
    64 x 64 -> 128-bit products come from 32-bit halves, all in uint64,
    whose array arithmetic wraps mod 2^64 as the cipher's does."""
    # the ten round keys of key [seed, 0]: word w of round r is key_w + r W_w
    # mod 2^64, summed in Python integers so no uint64 scalar overflows
    keys = np.array([[[(seed + r * _PHILOX_W[0]) % _SEED_END],
                      [r * _PHILOX_W[1] % _SEED_END]] for r in range(10)],
                    dtype=np.uint64)
    n = len(trials) * blocks
    mul = np.zeros((2, n), dtype=np.uint64)
    mix = np.zeros((2, n), dtype=np.uint64)
    mul[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(trials))
    mix[0] = np.repeat(trials, blocks)
    for key in keys:
        x_lo, x_hi = mul & _LO32, mul >> _HALF
        mid = _M_HI * x_lo + ((_M_LO * x_lo) >> _HALF)
        carry = (mid & _LO32) + _M_LO * x_hi
        hi = _M_HI * x_hi + (mid >> _HALF) + (carry >> _HALF)
        lo = _PHILOX_M * mul
        # words (0, 1, 2, 3) <- (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0)
        mul, mix = hi[::-1] ^ mix ^ key, lo[::-1]
    return np.stack((mul[0], mix[0], mul[1], mix[1]), axis=-1).reshape(len(trials), 4 * blocks)


# ---------------------------------------------------------------------------
# grids and cubes
# ---------------------------------------------------------------------------


def _shift_bits(dim: int, j_min: int, j_max: int, seed: int,
                trials: Sequence[int]) -> np.ndarray:
    """The shift bits of ``ShiftedGrid.random(dim, j_min, j_max, seed, t)``
    for every t in ``trials``, stacked: shape (len(trials), j_max - j_min +
    1, dim), as ``trial_stream(seed, t).integers(0, 2, size=(j_max - j_min
    + 1, dim))`` draws them.

    That call reads each 64-bit word of the stream as two 32-bit draws, low
    half first, and maps a draw u to floor(2u / 2^32), its top bit
    (Lemire's method on the range 2, which never rejects).  So bit i, in C
    order, is bit 31 (i even) or bit 63 (i odd) of word i // 2.  Only the
    blocks holding those words are computed, for `_TRIAL_BLOCK` trials at a
    time.

    Refuses a seed outside [0, 2^64) or a trial outside [0, 2^63) before
    anything is drawn."""
    if not 0 <= seed < _SEED_END:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    # numpy reads a list of integers past the uint64 range, or one mixing
    # negatives with values past 2^63, as object or float64
    trials = np.array(trials)
    if trials.size and not (trials.dtype.kind in "iu" and trials.min() >= 0
                            and trials.max() < _TRIAL_END):
        raise ValueError("trials must be integers in [0, 2^63)")
    rows = j_max - j_min + 1
    words = (rows * dim + 1) // 2
    blocks = (words + 3) // 4
    bits = np.empty((len(trials), 2 * words), dtype=np.int64)
    for start in range(0, len(trials), _TRIAL_BLOCK):
        chunk = trials[start:start + _TRIAL_BLOCK].astype(np.uint64)
        drawn = _philox_blocks(int(seed), chunk, blocks)[:, :words]
        bits[start:start + len(chunk), 0::2] = (drawn >> np.uint64(31)) & np.uint64(1)
        bits[start:start + len(chunk), 1::2] = drawn >> np.uint64(63)
    return bits[:, :rows * dim].reshape(len(trials), rows, dim)


def _offset_table(bits: np.ndarray) -> np.ndarray:
    """Integer shift tables of bit stacks (..., levels, dim): row r of the
    result holds sum over bit rows i >= r of bits_i 2^(levels - 1 - i), the
    last row zero.  int64 below 62 levels of depth, Python ints in an object
    array past that, so every entry is exact."""
    rows = bits.shape[-2]
    dtype = np.int64 if rows - 1 < 62 else object
    weights = np.array([1 << up for up in range(rows - 1, -1, -1)], dtype=dtype)
    weighted = bits.astype(dtype) * weights[:, None]
    table = np.zeros(bits.shape[:-2] + (rows + 1, bits.shape[-1]), dtype=dtype)
    table[..., :-1, :] = np.cumsum(weighted[..., ::-1, :], axis=-2)[..., ::-1, :]
    return table


def shift_tables(dim: int, j_min: int, j_max: int, seed: int,
                 trials: Sequence[int]) -> np.ndarray:
    """The integer shift tables of ``ShiftedGrid.random(dim, j_min, j_max,
    seed, t)`` for every t in ``trials``, stacked: entry [i, r] is
    ``offset(j_min + r - 1)`` of trial ``trials[i]``, so row 1 is level
    j_min's shift and the last row level j_max's.  No grid is built; int64
    below 62 levels of depth, Python ints in an object array past that.

    All trials' bits come from one `_shift_bits` call, an array Philox over
    the trials' counters, with no generator built per trial."""
    return _offset_table(_shift_bits(dim, j_min, j_max, seed, trials))


@dataclass(frozen=True, eq=False)
class ShiftedGrid:
    """A truncated dyadic grid with per-level binary shifts.

    ``bits[j - j_min]`` is the shift bit vector at level j (one bit per axis).
    A cube at level j is translated by sum over i > j of 2^-i bits[i], so its
    position depends only on bits at levels strictly finer than its side --
    flipping a bit at level i <= j moves nothing at level j, and flipping one
    at i > j moves level-j cubes rigidly by 2^-i.

    The integer table behind `offset` (each level's shift in units of
    2^-j_max, Python ints) is the exact record of where every cube sits;
    `shift` is its float view.
    """

    dim: int
    j_min: int
    j_max: int
    bits: np.ndarray

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
        # Accumulated shifts per level in units of 2^-j_max: row r holds the
        # shift of level j_min + r - 1, row 0 the shift seen below j_min, the
        # last row level j_max's (zero).
        offsets = tuple(map(tuple, _offset_table(b).tolist()))
        object.__setattr__(self, "_offsets", offsets)
        # The float view: exact while a row has at most 53 significant bits,
        # i.e. up to 53 levels of depth; correctly rounded past that.
        table = np.ldexp(np.array(offsets, dtype=float), -self.j_max)
        table.setflags(write=False)
        object.__setattr__(self, "_shift_table", table)

    @classmethod
    def standard(cls, dim: int, j_min: int, j_max: int) -> "ShiftedGrid":
        return cls(dim=dim, j_min=j_min, j_max=j_max,
                   bits=np.zeros((j_max - j_min + 1, dim), dtype=np.int64))

    @classmethod
    def random(cls, dim: int, j_min: int, j_max: int, seed: int, trial: int = 0) -> "ShiftedGrid":
        bits = _shift_bits(dim, j_min, j_max, seed, [trial])[0]
        return cls(dim=dim, j_min=j_min, j_max=j_max, bits=bits)

    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def _row(self, level: int) -> int:
        return min(max(level - self.j_min + 1, 0), self.j_max - self.j_min + 1)

    def offset(self, level: int) -> tuple[int, ...]:
        """Accumulated shift of level-``level`` cubes in units of 2^-j_max,
        exactly."""
        return self._offsets[self._row(level)]

    def descendant_offset(self, level: int, finer: int) -> tuple[int, ...]:
        """Index of the first level-``finer`` descendant of the level-``level``
        cube at index 0: (O[level] - O[finer]) >> (j_max - finer), O the
        integer table, exact because only bits of levels level + 1 .. finer
        enter the difference."""
        if not level <= finer <= self.j_max:
            raise ValueError("descendant level must lie between the cube's and j_max")
        return tuple((a - b) >> (self.j_max - finer)
                     for a, b in zip(self.offset(level), self.offset(finer)))

    def shift(self, level: int) -> np.ndarray:
        """Float view of `offset`, in absolute units."""
        return self._shift_table[self._row(level)]

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
        """The in-grid cube ``generations`` levels coarser containing ``cube``,
        exactly: ancestor m holds the descendants m 2^g + D .. (m + 1) 2^g +
        D - 1, D = descendant_offset(target, level)."""
        if generations < 0:
            raise ValueError("generations must be nonnegative")
        target = cube.level - generations
        d = self.descendant_offset(target, cube.level)
        return self.cube(target, [(k - di) >> generations for k, di in zip(cube.index, d)])

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

    def box(self) -> tuple[tuple[float, float], ...]:
        # the float view: exact up to 53 levels of depth (see lattice_corner)
        h = self.side
        s = self.grid.shift(self.level)
        return tuple((k * h + si, (k + 1) * h + si)
                     for k, si in zip(self.index, s))

    def lattice_corner(self, level: int) -> tuple[int, ...]:
        """The corner in units of 2^-level on the standard lattice, exactly;
        raises when it is not a point of that lattice."""
        g = self.grid
        fine = max(level, self.level, g.j_max)
        out = [(k << (fine - self.level)) + (o << (fine - g.j_max))
               for k, o in zip(self.index, g.offset(self.level))]
        drop = fine - level
        if any(c & ((1 << drop) - 1) for c in out):
            raise ValueError("cube corner is not a lattice point at the working level")
        return tuple(c >> drop for c in out)

    def lattice_level(self) -> int:
        """The coarsest level >= 0 at which the corner is a lattice point."""
        fine = max(self.level, self.grid.j_max, 0)
        twos = [(c & -c).bit_length() - 1 for c in self.lattice_corner(fine) if c]
        return fine - min(twos + [fine])

    def descendant_index(self, level: int) -> tuple[int, ...]:
        """Index of the level-``level`` descendant at the cube's corner."""
        return tuple((k << (level - self.level)) + d for k, d in
                     zip(self.index, self.grid.descendant_offset(self.level, level)))

    def center(self) -> tuple[float, ...]:
        h = self.side
        s = self.grid.shift(self.level)
        return tuple(k * h + si + h / 2.0 for k, si in zip(self.index, s))

    def measure(self) -> float:
        return self.side ** self.dim


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
    ell1^(a/2) ell2^(a/2) / D^(n+a) * |I1|^(1/2) |I2|^(1/2), D the long
    distance."""
    return float(schur_matrix((i1, i2), alpha)[0, 1])


def schur_matrix(cubes: Sequence[DyadicCube], alpha: float) -> np.ndarray:
    """All entries `schur_coeff(cubes[i], cubes[j], alpha)` at once.

    Each cube's box, side, side^(alpha/2) and |I|^(1/2) are taken once.  The
    long distances are exact sums of dyadic rationals; the power D^-(n+a)
    goes through Python's float ``pow`` entry by entry (numpy's vectorized
    power rounds differently on some inputs), and the products keep the
    operand order of the formula, so both triangles are filled as their own
    scalar products.
    """
    n = cubes[0].dim
    if any(c.dim != n for c in cubes):
        raise ValueError("dimension mismatch")
    boxes = np.array([c.box() for c in cubes])  # cube, axis, (lo, hi)
    lo, hi = boxes[..., 0], boxes[..., 1]
    # sup-norm gap of the closed boxes: the largest per-axis separation
    gap = np.max(np.maximum(lo[None, :] - hi[:, None], lo[:, None] - hi[None, :]),
                 axis=-1, initial=0.0)
    sides = np.array([c.side for c in cubes])
    long_d = sides[:, None] + sides[None, :] + gap
    exponent = -(n + alpha)
    d_pow = np.array([d ** exponent for d in long_d.ravel().tolist()]).reshape(long_d.shape)
    ell_pow = np.array([c.side ** (alpha / 2.0) for c in cubes])
    root = np.array([c.measure() ** 0.5 for c in cubes])
    return (ell_pow[:, None] * ell_pow[None, :] * d_pow
            * root[:, None] * root[None, :])


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


def _exact_gamma(gamma: Fraction | float) -> Fraction:
    """gamma as the nearest fraction with denominator at most 1000: the one
    rule by which goodness reads its exponent, so a float gamma (as `Params`
    holds it) and its fraction decide alike.  A Fraction of such a
    denominator is returned unchanged."""
    return Fraction(gamma).limit_denominator(1000)


def _root(gamma: Fraction, k: int) -> int:
    """floor(2^(k (1 - gamma))) exactly, for rational gamma = p/q: the largest
    integer th with th^q <= 2^(k (q - p)), by bisection inside [2^e, 2^(e+1)),
    e = floor(k (q - p) / q)."""
    p, q = gamma.numerator, gamma.denominator
    target = 1 << (k * (q - p))
    lo, hi = 1 << (k * (q - p) // q), 1 << (k * (q - p) // q + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** q <= target:
            lo = mid
        else:
            hi = mid
    return lo


def _check_truncation(level: int, j_min: int, j_max: int) -> None:
    if not j_min <= level <= j_max:
        raise ValueError(
            "insufficient scale range: cube level lies outside the grid truncation"
        )


@functools.lru_cache(maxsize=256)
def _offset_cutoffs(level: int, j_min: int, j_max: int, r: int,
                    gamma: float) -> tuple[tuple[int, int], ...]:
    """(k, c_k) for each qualifying generation k = level - j, j_min <= j <=
    level - r: a level-``level`` cube whose gap to the boundary of its
    k-generation ancestor is at most c_k of its own sides is bad there.

    A gap of g sides is within ell(I)^gamma ell(J)^(1-gamma) exactly when
    g <= 2^(k(1-gamma)), so c_k = floor(2^(k(1-gamma))), the integer root
    `pi_good_exact` uses too, with gamma read by `_exact_gamma` there as
    here.
    """
    _check_truncation(level, j_min, j_max)
    exact = _exact_gamma(gamma)
    return tuple((level - j, _root(exact, level - j))
                 for j in range(j_min, level - r + 1))


def _bad_offsets(offsets, cutoffs):
    """Whether a cube is bad, from its offsets b - S (one per axis, Python
    integers or integer arrays, then elementwise): on some axis and some
    qualifying generation k, o_k = offset mod 2^k lies within c_k of either
    end of [0, 2^k)."""
    bad = False
    for k, c in cutoffs:
        top = (1 << k) - 1
        for o in offsets:
            o_k = o & top  # two's complement: the nonnegative residue
            bad = bad | (o_k <= c) | (o_k >= top - c)
    return bad


def goodness_gamma(dim: int, params: Params) -> float:
    """The goodness exponent of a ``dim``-dimensional grid: gamma_n when dim
    is params.n, gamma_m otherwise.  The one place this rule lives, so the
    goodness test and the probabilities that normalize its sums agree."""
    return params.gamma_n if dim == params.n else params.gamma_m


def is_good_offset(level: int, offsets, j_min: int, j_max: int, params: Params):
    """Goodness of level-``level`` cubes of grids truncated at [j_min, j_max],
    from their offsets b - S, one per axis (Python integers or integer
    arrays, which broadcast): b the cube's index and S =
    ``descendant_offset(j_min, level)`` of its grid (see the module
    docstring).  Returns a boolean array of the offsets' broadcast shape.

    The exponent is `goodness_gamma` of the grid dimension (the number of
    offsets).  If the truncation admits no qualifying generation every cube
    is good vacuously.
    """
    cutoffs = _offset_cutoffs(level, j_min, j_max, params.r,
                              goodness_gamma(len(offsets), params))
    bad = _bad_offsets(offsets, cutoffs)
    return ~np.broadcast_to(bad, np.broadcast(*offsets).shape)


def is_good(cube: DyadicCube, grid: ShiftedGrid, params: Params) -> bool:
    """True when no same-grid cube at least 2^r times coarser has its boundary
    within ell(I)^gamma ell(J)^(1-gamma) of I.

    Decided in integers from the grid's shift table (see the module
    docstring): per qualifying generation k the containing ancestor's
    boundary is at min(o_k, 2^k - 1 - o_k) sides of I on the nearest axis,
    and no other cube of that level comes closer, each lying outside the
    ancestor.  A one-cube call of `is_good_offset`.  If the truncation admits
    no qualifying level at all the cube is good vacuously; experiments
    report their truncation so this regime stays visible.
    """
    if cube.grid is not grid:
        raise ValueError("cube does not belong to the given grid")
    _check_truncation(cube.level, grid.j_min, grid.j_max)
    s = grid.descendant_offset(grid.j_min, cube.level)
    return bool(is_good_offset(cube.level, [b - si for b, si in zip(cube.index, s)],
                               grid.j_min, grid.j_max, params))


def pi_good_exact(gamma: Fraction | float, r: int, octaves: int) -> Fraction:
    """Exact probability that a cube is good, over iid uniform shift bits.

    The offset of the cube inside its k-generations-coarser ancestor, in units
    of ell(I), is o_k = o mod 2^k for a single integer o uniform on [0, 2^K)
    (K = ``octaves``): each extra generation prepends one iid bit.  Goodness
    at scale k asks min(o_k, 2^k - 1 - o_k) > 2^(k(1-gamma)), an exact integer
    comparison once gamma is rational: o_k must lie in the window
    W_k = [th_k + 1, 2^k - 2 - th_k], th_k the integer floor of 2^(k(1-gamma)).
    gamma is read as `is_good` reads it (`_exact_gamma`), so the float gamma
    of `Params` gives the pi that `is_good` decides.

    With F_k the offsets in [0, 2^k) that pass every generation r..k, the
    count C(k, a, b) = |F_k intersect [a, b]| clips [a, b] to W_k and splits
    the rest at 2^(k-1) into two counts at k - 1 (the upper half shifted
    down), ending at k = r in the clipped length.  The recursion runs from
    C(K, 0, 2^K - 1) down, one generation at a time, and merges equal
    subproblems by multiplicity (a memo).  The clipped intervals hug the
    window ends, so each generation holds only a few distinct ones: about
    1,600 counts in all at depth 64, milliseconds of work, and the cost grows
    polynomially in the depth.
    """
    gamma = _exact_gamma(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if r < 1 or octaves < 0:
        raise ValueError("need r >= 1 and octaves >= 0")
    if octaves < r:
        return Fraction(1)  # no qualifying scale: vacuously good

    def window(k: int) -> tuple[int, int]:
        th = _root(gamma, k)
        return th + 1, (1 << k) - 2 - th  # empty when th + 1 > 2^k - 2 - th

    counts = {(0, (1 << octaves) - 1): 1}  # interval -> multiplicity
    for k in range(octaves, r, -1):
        w_lo, w_hi = window(k)
        half = 1 << (k - 1)
        below: dict[tuple[int, int], int] = {}
        for (a, b), mult in counts.items():
            a, b = max(a, w_lo), min(b, w_hi)
            if a > b:
                continue
            for part in ((a, min(b, half - 1)), (max(a, half) - half, b - half)):
                if part[0] <= part[1]:
                    below[part] = below.get(part, 0) + mult
        counts = below
    w_lo, w_hi = window(r)
    total = sum(mult * max(0, min(b, w_hi) - max(a, w_lo) + 1)
                for (a, b), mult in counts.items())
    return Fraction(total, 1 << octaves)


def default_shift_radius() -> int:
    """Smallest goodness radius whose exact good-cube probability reaches 1/20
    at the default gamma = 1/6 and depth ``DEFAULT_OCTAVES``.  The
    feasibility heuristic (1/2 - 2^-r) > 2^(-r gamma) looks only at a single
    scale and admits radii whose multi-scale probability is zero, so the
    exact enumeration is the arbiter here."""
    r = 1
    while pi_good_exact(Fraction(1, 6), r, DEFAULT_OCTAVES) < Fraction(1, 20):
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
    suite checks by varying ``base_index``.

    Trial t tests the cube of ``ShiftedGrid.random(dim, j_min, level_of_i,
    seed, t)`` with `is_good_offset`, on blocks of trials at once: S is row
    1 of each trial's table from `shift_tables` (j_max is the cube's level),
    and no grid is built.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for the normal approximation")
    _check_truncation(level_of_i, j_min, level_of_i)
    # offsets only matter mod 2^depth, which keeps them in the table's dtype
    base = base_index % (1 << (level_of_i - j_min))
    hits = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        block = range(start, min(start + _TRIAL_BLOCK, trials))
        s = shift_tables(dim, j_min, level_of_i, seed, block)[:, 1]
        good = is_good_offset(level_of_i, (base - s).T, j_min, level_of_i, params)
        hits += int(np.count_nonzero(good))
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

    For each level pair the rectangle sums are read from one prefix table of
    f, once per distinct rectangle meeting the box (the distinct cubes of
    each axis, from the grid's integer offsets), divided by the area, spread
    to the output cells by one index gather per axis and folded in with
    `np.maximum`, level pairs in order -- the same entries and operations
    per cell as summing each cell's rectangle on its own.
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

    def blocks(grid: ShiftedGrid, axis: int):
        # per level of the grid: its cubes' side in cells, the prefix rows
        # (clipped to f's box) bounding each distinct cube that meets the
        # output cells, and each output cell's cube in that list
        lo, n, edge = lo_idx[axis], shape[axis], fr.shape[axis]
        rows = []
        for j in grid.levels():
            side = 1 << (level - j)
            off = grid.offset(j)[0] << (level - grid.j_max)
            first = (lo - off) // side * side + off  # corner of cell lo's cube
            which = (np.arange(n) + (lo - first)) // side
            starts = first - fr.lo[axis] + side * np.arange(which[-1] + 1)
            rows.append((side, np.clip(starts, 0, edge),
                         np.clip(starts + side, 0, edge), which))
        return rows

    out = np.zeros(shape)
    blocks_b = blocks(g2, 1)
    for sa, alo, ahi, wa in blocks(g1, 0):
        top, bottom = pref.take(ahi, axis=0), pref.take(alo, axis=0)
        for sb, blo, bhi, wb in blocks_b:
            # P[hi, hi] - P[lo, hi] - P[hi, lo] + P[lo, lo], left to right
            sums = top.take(bhi, axis=1)
            sums -= bottom.take(bhi, axis=1)
            sums -= top.take(blo, axis=1)
            sums += bottom.take(blo, axis=1)
            sums /= sa * sb
            if sb > 1:  # side-1 cubes are the output cells themselves
                sums = sums.take(wb, axis=1)
            if sa > 1:
                sums = sums.take(wa, axis=0)
            np.maximum(out, sums, out=out)
    return StepFunction(level=level, lo=lo_idx, values=out, tail=0.0)
