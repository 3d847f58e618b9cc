"""Grid geometry, goodness classification, exact good-cube probability, maximal function."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from glstar import dyadic
from glstar.core import StepFunction, default_params
from glstar.dyadic import (
    DEFAULT_OCTAVES,
    DyadicCube,
    ShiftedGrid,
    default_shift_radius,
    estimate_pi_good,
    is_good,
    is_good_offset,
    long_distance,
    pi_good_exact,
    random_grids,
    schur_coeff,
    schur_matrix,
    set_distance,
    shift_table_blocks,
    shift_tables,
    strong_maximal_dyadic,
    trial_stream,
)
from glstar.core import DEFAULT_SHIFT_RADIUS
from glstar.experiments import _draw_collection


STD = ShiftedGrid.standard(1, -3, 6)


def _shift_fraction(grid: ShiftedGrid, level: int) -> tuple[Fraction, ...]:
    """The exact oracle for a grid's shift table: the accumulated shift of
    level-``level`` cubes, summed bit by bit in Fractions."""
    out = [Fraction(0)] * grid.dim
    for i in range(max(level + 1, grid.j_min), grid.j_max + 1):
        for d in range(grid.dim):
            out[d] += int(grid.bits[i - grid.j_min, d]) * Fraction(2) ** -i
    return tuple(out)


def _box_fractions(cube: DyadicCube) -> tuple[tuple[Fraction, Fraction], ...]:
    side = Fraction(2) ** -cube.level
    return tuple((k * side + s, (k + 1) * side + s)
                 for k, s in zip(cube.index, _shift_fraction(cube.grid, cube.level)))


def _interval(lo: float, hi: float, grid=STD) -> DyadicCube:
    level = int(round(-math.log2(hi - lo)))
    return grid.cube(level, (int(round(lo * 2.0 ** level)),))


# ---------------------------------------------------------------------------
# distances and Schur coefficients
# ---------------------------------------------------------------------------


def test_set_distance_interval_gap():
    assert set_distance(_interval(0, 1), _interval(4, 6)) == 3.0


def test_set_distance_identity():
    i = _interval(0, 1)
    assert set_distance(i, i) == 0.0


def test_set_distance_sup_norm_in_two_dims():
    g = ShiftedGrid.standard(2, 0, 4)
    i1 = g.cube(0, (0, 0))            # [0,1)^2
    i2 = DyadicCube(grid=g, level=0, index=(2, 5))  # [2,3) x [5,6)
    assert set_distance(i1, i2) == 4.0


def test_long_distance_formula_and_symmetry():
    i1, i2 = _interval(0, 1), _interval(4, 6)
    assert long_distance(i1, i2) == 6.0
    assert long_distance(i1, i1) == 2.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = STD.cube(int(rng.integers(-2, 5)), (int(rng.integers(-8, 8)),))
        b = STD.cube(int(rng.integers(-2, 5)), (int(rng.integers(-8, 8)),))
        assert long_distance(a, b) == long_distance(b, a)


def test_schur_coeff_values():
    i1 = _interval(0, 1)
    assert schur_coeff(i1, i1, 0.5) == pytest.approx(2.0 ** -1.5)
    i2 = _interval(4, 6)
    assert schur_coeff(i1, i2, 0.5) == pytest.approx(2.0 ** 0.75 / 6.0 ** 1.5)


def test_schur_coeff_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = STD.cube(int(rng.integers(-2, 5)), (int(rng.integers(-8, 8)),))
        b = STD.cube(int(rng.integers(-2, 5)), (int(rng.integers(-8, 8)),))
        assert schur_coeff(a, b, 0.5) == pytest.approx(schur_coeff(b, a, 0.5), rel=1e-14)


def _schur_scalar(i1, i2, alpha):
    # the coupling entry written out from its definition
    n = i1.dim
    d = long_distance(i1, i2)
    return (i1.side ** (alpha / 2.0) * i2.side ** (alpha / 2.0) * d ** -(n + alpha)
            * i1.measure() ** 0.5 * i2.measure() ** 0.5)


def _collection_cubes(size: int, seed: int) -> list[DyadicCube]:
    """run_schur's family of ``size`` cubes at ``seed``, built as cubes."""
    grid, levels, index = _draw_collection(size, seed)
    return [grid.cube(lev, k) for lev, k in zip(levels.tolist(), index.tolist())]


def _count_unique(monkeypatch) -> list:
    """Spy on np.unique: the list grows by one per call."""
    calls, unique = [], np.unique

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_schur_matrix_is_the_scalar_formula_bit_for_bit(monkeypatch, dim):
    # three families: scattered cubes of one grid, whose long distances span
    # more integer keys than the matrix has entries; cubes of two grids, whose
    # keys are not integers (both take the sorted path); and, in 1-d, a
    # section of run_schur's family (the integer-key lookup)
    rng = np.random.default_rng(29 + dim)
    grid = ShiftedGrid.random(dim, -4, 12, seed=31)
    cubes = [grid.cube(int(rng.integers(-4, 13)),
                       tuple(int(k) for k in rng.integers(-40, 40, size=dim)))
             for _ in range(40)]
    twins = random_grids(dim, -2, 10, 37, (0, 1))
    mixed = [twins[t % 2].cube(int(rng.integers(0, 6)),
                               tuple(int(k) for k in rng.integers(-8, 8, size=dim)))
             for t in range(40)]
    families = [(cubes, True), (mixed, True)]
    if dim == 1:
        families.append((_collection_cubes(64, 23), False))
    for family, sorted_path in families:
        for alpha in (0.5, 0.3):
            calls = _count_unique(monkeypatch)
            big = schur_matrix(family, alpha)
            assert bool(calls) == sorted_path
            want = [[_schur_scalar(a, b, alpha) for b in family] for a in family]
            assert big.tolist() == want
            assert schur_coeff(family[3], family[7], alpha) == want[3][7]


def test_schur_matrix_of_the_run_schur_family_sorts_nothing(monkeypatch):
    # the 512-cube family's long distances are integer multiples of 2^-8:
    # their powers come from a table by key, and no row block is sorted
    cubes = _collection_cubes(512, 23)
    calls = _count_unique(monkeypatch)
    big = schur_matrix(cubes, 0.5)
    assert calls == []
    grid, levels, index = _draw_collection(512, 23)
    assert np.array_equal(dyadic.box_schur_matrix(grid.boxes(levels, index),
                                                  levels, 0.5), big)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_boxes_are_the_cube_boxes(dim):
    grid = ShiftedGrid.random(dim, -3, 9, seed=5)
    rng = np.random.default_rng(dim)
    levels = rng.integers(-3, 10, size=50)
    index = rng.integers(-300, 300, size=(50, dim))
    boxes = grid.boxes(levels, index)
    assert boxes.shape == (50, dim, 2)
    assert boxes.tolist() == [[list(axis) for axis in grid.cube(lev, k).box()]
                              for lev, k in zip(levels.tolist(), index.tolist())]
    for bad in (-4, 10):
        with pytest.raises(ValueError, match="outside grid truncation"):
            grid.boxes([0, bad], np.zeros((2, dim), dtype=np.int64))


def test_schur_matrix_peak_memory_is_a_few_matrices():
    # run_schur's 512-cube family: the matrix filled by row blocks, one
    # float pow per distinct long distance and no per-entry Python float,
    # keeps the peak under three matrices
    cubes = _collection_cubes(512, 23)
    schur_matrix(cubes[:2], 0.5)
    tracemalloc.start()
    try:
        big = schur_matrix(cubes, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * big.nbytes


def test_schur_matrix_rejects_mixed_dimensions():
    a = ShiftedGrid.standard(1, 0, 3).cube(1, (0,))
    b = ShiftedGrid.standard(2, 0, 3).cube(1, (0, 0))
    with pytest.raises(ValueError, match="dimension"):
        schur_matrix([a, b], 0.5)


def _schur_row_sum_bound(alpha: float = 0.5, span: int = 80) -> float:
    """Certified uniform bound on the coupling-matrix norm over the full
    (untruncated) 1D grid: sup of the h-weighted row sums with h = ell^{1/2}.

    For I1 at any level, the level-offset-delta contribution c(delta) is
    summed with the cube at gap u replaced by the generous estimate
    gap >= (k-1) * side(I2); interior and distant cubes get closed forms.
    The result bounds the operator norm of the symmetric nonnegative matrix.
    """
    total = 0.0
    k = np.arange(1, 200_000, dtype=float)
    for delta in range(-span, span + 1):
        rho = 2.0 ** -delta  # side(I2)/side(I1)
        s = 1.0 + rho
        if delta >= 0:
            interior = rho ** 0.25 * s ** -1.5  # 2^delta cubes at gap 0
        else:
            interior = rho ** 1.25 * s ** -1.5  # the single container
        exterior = rho ** 1.25 * 2.0 * (
            s ** -1.5 + float(np.sum((s + (k - 1) * rho) ** -1.5))
            + 2.0 / rho * (s + k[-1] * rho) ** -0.5  # integral tail
        )
        total += interior + exterior
    return total


def test_schur_matrix_norm_bounded_as_collection_grows():
    # exact top eigenvalue over all cubes of [0,1) down to level L, against a
    # certified uniform bound: the collection grows 64-fold across the range
    # while the norm stays under the same constant
    def matrix_norm(levels: int) -> float:
        grid = ShiftedGrid.standard(1, 0, levels)
        cubes = [grid.cube(j, (k,)) for j in range(levels + 1) for k in range(2 ** j)]
        ell = np.array([c.side for c in cubes])
        lo = np.array([c.box()[0][0] for c in cubes])
        hi = np.array([c.box()[0][1] for c in cubes])
        gap = np.maximum(0.0, np.maximum(lo[:, None] - hi[None, :],
                                         lo[None, :] - hi[:, None]))
        d = ell[:, None] + ell[None, :] + gap
        a = (ell[:, None] * ell[None, :]) ** 0.75 / d ** 1.5
        # the vectorized build must agree with the scalar definition
        rng = np.random.default_rng(3)
        for _ in range(30):
            i, j = rng.integers(0, len(cubes), size=2)
            assert a[i, j] == pytest.approx(schur_coeff(cubes[i], cubes[j], 0.5), rel=1e-13)
        return float(np.linalg.eigvalsh(a)[-1])

    bound = _schur_row_sum_bound()
    assert bound < 80.0  # finite, and not degenerately large
    norms = [matrix_norm(l) for l in (4, 6, 8, 10)]
    assert all(a < b for a, b in zip(norms, norms[1:]))  # still filling in
    assert all(v < bound for v in norms)
    # per-octave growth is already slowing against the remaining headroom
    assert norms[-1] + (norms[-1] - norms[-2]) < bound


# ---------------------------------------------------------------------------
# grid shifts
# ---------------------------------------------------------------------------


def test_shift_depends_only_on_finer_bits():
    bits = np.zeros((7, 1), dtype=np.int64)
    bits[5, 0] = 1  # level j_min + 5 = 5 when j_min = 0
    g = ShiftedGrid(dim=1, j_min=0, j_max=6, bits=bits)
    # cubes at level 4 (side 1/16) are shifted by 2^-5; cubes at level 5+ are not
    assert g.offset(4) == (2,)  # 2^-5 in units of 2^-6
    assert _shift_fraction(g, 4) == (Fraction(1, 32),)
    assert g.offset(5) == g.offset(6) == (0,)


def test_shift_table_is_the_exact_shift_at_every_level():
    for trial in range(12):
        dim = 1 + trial % 2
        j_min = -10 + 2 * trial
        grid = ShiftedGrid.random(dim, j_min, j_min + 3 * trial + 1, seed=8, trial=trial)
        for level in range(grid.j_min - 2, grid.j_max + 3):
            exact = _shift_fraction(grid, level)
            assert tuple(o * Fraction(2) ** -grid.j_max for o in grid.offset(level)) == exact
            assert tuple(Fraction(x) for x in grid.shift(level)) == exact
        assert grid._shift_table.shape == (grid.j_max - grid.j_min + 2, dim)


@pytest.mark.parametrize("dim, j_min, j_max", [(1, 0, 70), (2, -5, 60), (1, -40, 30)])
def test_integer_table_is_exact_past_float_and_int64_depth(dim, j_min, j_max):
    # 70 levels: past the 53 bits of the float view and the 63 of int64
    grid = ShiftedGrid.random(dim, j_min, j_max, seed=12, trial=dim)
    unit = Fraction(2) ** -j_max
    for level in range(j_min - 1, j_max + 2):
        assert tuple(o * unit for o in grid.offset(level)) == _shift_fraction(grid, level)
    if j_max - j_min > 53:
        assert any(tuple(Fraction(x) for x in grid.shift(level)) != _shift_fraction(grid, level)
                   for level in grid.levels())
    rng = np.random.default_rng(j_max - j_min)
    for _ in range(60):
        level = int(rng.integers(j_min, j_max + 1))
        cube = grid.cube(level, [int(k) for k in rng.integers(-2 ** 40, 2 ** 40, size=dim)])
        corner = tuple(a for a, _ in _box_fractions(cube))
        fine = j_max + int(rng.integers(0, 3))
        assert tuple(c * Fraction(2) ** -fine for c in cube.lattice_corner(fine)) == corner
        coarsest = cube.lattice_level()
        assert all((c * 2 ** coarsest).denominator == 1 for c in corner)
        assert coarsest == 0 or any((c * 2 ** (coarsest - 1)).denominator > 1 for c in corner)
        finer = int(rng.integers(level, j_max + 1))
        first = grid.cube(finer, cube.descendant_index(finer))
        assert tuple(a for a, _ in _box_fractions(first)) == corner
        up = grid.ancestor(first, finer - j_min)
        assert all(a <= c < b for (a, b), c in zip(_box_fractions(up), corner))


def test_lattice_corner_refuses_a_coarser_lattice():
    bits = np.zeros((5, 1), dtype=np.int64)
    bits[4, 0] = 1  # every coarser cube shifted by 2^-4
    cube = ShiftedGrid(dim=1, j_min=0, j_max=4, bits=bits).cube(2, (1,))
    assert cube.lattice_corner(4) == (5,) and cube.lattice_level() == 4
    with pytest.raises(ValueError, match="not a lattice point"):
        cube.lattice_corner(3)


def _bit_loop(grid: ShiftedGrid, level: int) -> tuple[int, ...]:
    """S = sum_{i=j_min+1..level} bits_i 2^(level-i), one bit at a time."""
    s = [0] * grid.dim
    for row in grid.bits[1:level - grid.j_min + 1].tolist():
        s = [2 * si + bit for si, bit in zip(s, row)]
    return tuple(s)


def test_goodness_coarse_bits_are_the_bit_loop():
    # is_good reads S as descendant_offset(j_min, level)
    for trial, (dim, j_min, j_max) in enumerate([(1, 0, 70), (2, -3, 12), (1, -20, 64)]):
        grid = ShiftedGrid.random(dim, j_min, j_max, seed=31, trial=trial)
        for level in grid.levels():
            assert grid.descendant_offset(j_min, level) == _bit_loop(grid, level)


def test_trial_streams_share_no_words():
    # Philox advances counter word 0 per block; a trial kept in that word
    # would make stream t + 1 stream t one block on, so each random grid
    # would repeat the previous trial's bits a few levels over
    for seed, trial in ((5, 0), (5, 1), (0, 7), (11, 999)):
        here = trial_stream(seed, trial).bit_generator.random_raw(256)
        there = trial_stream(seed, trial + 1).bit_generator.random_raw(256)
        assert not set(here.tolist()) & set(there.tolist())


@pytest.mark.parametrize("seed", [0, 1, 5, 3000, 2 ** 40 + 7, 2 ** 63 + 11, 2 ** 64 - 1])
def test_shift_bits_are_the_trial_streams(seed):
    # the array Philox draws each trial's bits as its own generator does:
    # odd and even bit counts, partial and whole last blocks, counters past
    # 32 bits, and depths on both sides of the tables' int64/object boundary
    trials = list(range(20)) + [2 ** 32 + 3, 2 ** 40, 2 ** 62 + 5, 2 ** 63 - 1]
    for dim in (1, 2, 3):
        for depth in (1, 2, 3, 4, 5, 8, 9, 17, 22, 61, 62, 63, 84):
            j_min = -(depth // 2)
            bits = dyadic._shift_bits(dim, j_min, j_min + depth - 1, seed, trials)
            assert bits.shape == (len(trials), depth, dim) and bits.dtype == np.int64
            for row, t in zip(bits, trials):
                want = trial_stream(seed, t).integers(0, 2, size=(depth, dim))
                assert np.array_equal(row, want), (dim, depth, t)
    grid = ShiftedGrid.random(2, -30, 40, seed, trial=2 ** 63 - 1)
    assert np.array_equal(grid.bits, trial_stream(seed, 2 ** 63 - 1).integers(0, 2, size=(71, 2)))


@pytest.mark.parametrize("seed", [0, 11, 2 ** 64 - 1])
def test_random_grids_are_the_one_trial_grids(seed):
    # grid k of one batched draw is trial k drawn alone, bit for bit, in
    # any trial order, up to the largest seed and trial and past the
    # tables' int64 depth; an empty batch draws no grid
    trials = [5, 0, 2 ** 32 + 3, 1, 2 ** 63 - 1]
    for dim, j_min, j_max in ((1, -6, 10), (2, -3, 12), (1, 0, 70)):
        grids = random_grids(dim, j_min, j_max, seed, trials)
        assert len(grids) == len(trials)
        for grid, t in zip(grids, trials):
            alone = ShiftedGrid.random(dim, j_min, j_max, seed, t)
            assert (grid.dim, grid.j_min, grid.j_max) == (dim, j_min, j_max)
            assert grid.bits.tobytes() == alone.bits.tobytes()
            assert np.array_equal(grid.bits, trial_stream(seed, t).integers(
                0, 2, size=(j_max - j_min + 1, dim)))
            assert all(grid.offset(lv) == alone.offset(lv)
                       for lv in range(j_min - 1, j_max + 1))
    assert random_grids(1, -6, 10, seed, []) == []


@pytest.mark.parametrize("seed, trial", [
    (-1, 0), (2 ** 64, 0), (5, -1), (5, 2 ** 63), (5, 2 ** 64 - 1)])
def test_out_of_range_seeds_and_trials_are_refused_before_drawing(monkeypatch,
                                                                  seed, trial):
    # a Philox key is one 64-bit word and a trial a counter word below 2^63;
    # past either, numpy would wrap, warn or fail in its own words
    def no_draw(*args, **kwargs):
        raise AssertionError("a shift was drawn before the refusal")

    monkeypatch.setattr(dyadic, "_philox_blocks", no_draw)
    with pytest.raises(ValueError, match="seed must lie|trials must be"):
        shift_tables(1, 0, 8, seed, [0, trial])
    with pytest.raises(ValueError, match="seed must lie|trials must be"):
        ShiftedGrid.random(1, 0, 8, seed, trial)


def test_coarse_bit_flip_moves_cube_and_ancestor_rigidly():
    params = default_params(r=3)
    rng = np.random.default_rng(42)
    for _ in range(25):
        bits = rng.integers(0, 2, size=(13, 1))
        g1 = ShiftedGrid(dim=1, j_min=0, j_max=12, bits=bits)
        flipped = bits.copy()
        flipped[0, 0] ^= 1  # bit at the coarsest level: finer than nothing in grid
        g2 = ShiftedGrid(dim=1, j_min=0, j_max=12, bits=flipped)
        c1 = g1.cube(12, (1234,))
        c2 = g2.cube(12, (1234,))
        assert is_good(c1, g1, params) == is_good(c2, g2, params)


def test_cube_at_inverts_corner():
    g = ShiftedGrid.random(1, 0, 10, seed=3)
    c = g.cube(7, (19,))
    again = g.cube_at(7, c.center())
    assert again.index == c.index and again.level == c.level


def test_ancestor_contains_and_has_right_side():
    g = ShiftedGrid.random(1, 0, 10, seed=9)
    c = g.cube(9, (100,))
    a = g.ancestor(c, 4)
    assert a.level == 5
    assert a.side == 2.0 ** -5 == 16 * c.side
    assert all(lo <= c_lo and c_hi <= hi
               for (lo, hi), (c_lo, c_hi) in zip(a.box(), c.box()))


def test_cubes_overlapping_tile_a_box():
    g = ShiftedGrid.random(1, 0, 8, seed=21)
    cubes = list(g.cubes_overlapping(4, [(0.3, 0.9)]))
    total = Fraction(0)
    lo, hi = Fraction(3, 10), Fraction(9, 10)
    for c in cubes:
        (a, b), = _box_fractions(c)
        total += max(Fraction(0), min(b, hi) - max(a, lo))
    assert total == hi - lo


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


def test_quarter_interval_is_bad_at_small_radius():
    # I = [1/4, 1/2) sits 1/4 from the boundary of J = [0,1); the threshold
    # (1/4)^(1/6) * 1 ~= 0.7937 dominates, so I is bad at r = 2
    grid = ShiftedGrid.standard(1, 0, 2)
    params = default_params(r=2)
    i = grid.cube(2, (1,))
    assert is_good(i, grid, params) is False


def test_goodness_is_vacuous_without_coarse_scales():
    grid = ShiftedGrid.standard(1, 0, 2)
    params = default_params(r=8)
    i = grid.cube(2, (1,))
    assert is_good(i, grid, params) is True  # no J with ell(J) >= 2^8 ell(I)


def test_cube_outside_truncation_is_an_error():
    grid = ShiftedGrid.standard(1, 0, 4)
    params = default_params(r=2)
    coarse = DyadicCube(grid=grid, level=-1, index=(0,))
    with pytest.raises(ValueError, match="insufficient scale range"):
        is_good(coarse, grid, params)


def test_wrong_grid_is_an_error():
    g1 = ShiftedGrid.standard(1, 0, 4)
    g2 = ShiftedGrid.standard(1, 0, 4)
    params = default_params(r=2)
    with pytest.raises(ValueError, match="belong"):
        is_good(g1.cube(4, (0,)), g2, params)


def test_alternating_bit_cube_is_good_at_default_radius():
    # index bits 0101... put the cube near the 1/3 point of every ancestor,
    # clearing the threshold at every scale k >= 10; checked here at all 12
    # coarser octaves
    K = 22
    grid = ShiftedGrid.standard(1, K - DEFAULT_OCTAVES, K)
    index = sum(1 << d for d in range(0, K, 2))  # 0b0101...01
    cube = grid.cube(K, (index,))
    assert is_good(cube, grid, default_params(r=10)) is True


def test_no_cube_is_good_at_radius_eight_with_deep_truncation():
    # the k = 8 window [102, 153] and the k = 9 window [182, 329] are jointly
    # unreachable (o_9 is o_8 or o_8 + 256), so with >= 9 coarser octaves no
    # offset pattern survives; checked exhaustively at 9 octaves
    assert pi_good_exact(Fraction(1, 6), 8, 9) == 0
    grid = ShiftedGrid.standard(1, 0, 9)
    params = default_params(r=8)
    assert not any(is_good(grid.cube(9, (k,)), grid, params) for k in range(2 ** 9))


def _scan_is_good(cube, grid, params) -> bool:
    """Goodness by the geometric definition: per qualifying level, the float
    sup-norm distance from I to the boundary of the containing ancestor and
    of each of its 3^d neighbours within ell(J), against the float
    threshold."""
    gamma = params.gamma_n if grid.dim == params.n else params.gamma_m
    ell_i = cube.side
    inner = cube.box()
    for j in range(grid.j_min, cube.level - params.r + 1):
        ell_j = 2.0 ** -j
        threshold = ell_i ** gamma * ell_j ** (1.0 - gamma)
        anchor = grid.cube_at(j, cube.center())
        for off in itertools.product((-1, 0, 1), repeat=grid.dim):
            j_cube = grid.cube(j, tuple(a + o for a, o in zip(anchor.index, off)))
            if set_distance(cube, j_cube) > ell_j:
                continue
            outer = j_cube.box()
            if all(a <= c and d <= b for (a, b), (c, d) in zip(outer, inner)):
                dist = min(min(c - a, b - d) for (a, b), (c, d) in zip(outer, inner))
            else:
                dist = set_distance(cube, j_cube)
            if dist <= threshold:
                return False
    return True


@pytest.mark.parametrize("dim", [1, 2])
def test_is_good_matches_the_geometric_scan(dim):
    # alpha != beta; the grid's dimension is n (gamma_n = 1/6) or only m
    # (gamma_m = 1/7), so the verdict must take the right factor's exponent
    configs = [default_params(r=r, n=dim, m=dim, alpha=dim / 2, beta=0.3 * dim)
               for r in (4, 10, 12)]
    configs += [default_params(r=r, n=3 - dim, m=dim, alpha=(3 - dim) / 2,
                               beta=0.4 * dim) for r in (10, 12)]
    rng = np.random.default_rng(60 + dim)
    # a grid's bits are the C-order prefix of its trial's stream, so they
    # depend only on its depth (at most 18 levels here): one draw serves all
    stream = dyadic._shift_bits(dim, 0, 17, 90 + dim, range(2000))
    verdicts = []
    for t in range(2000):
        params = configs[t % len(configs)]
        # one to four qualifying levels, and finer bits below the cube
        j_min = int(rng.integers(-6, 2))
        level = j_min + params.r + int(rng.integers(0, 4))
        j_max = level + int(rng.integers(0, 3))
        grid = ShiftedGrid(dim, j_min, j_max, bits=stream[t, :j_max - j_min + 1])
        if t < 4:
            twin = ShiftedGrid.random(dim, j_min, j_max, seed=90 + dim, trial=t)
            assert np.array_equal(grid.bits, twin.bits)
        index = tuple(int(k) for k in rng.integers(-2 ** 12, 2 ** 12, size=dim))
        cube = grid.cube(level, index)
        verdict = is_good(cube, grid, params)
        assert verdict == _scan_is_good(cube, grid, params), (t, level, index)
        verdicts.append(verdict)
    assert 50 <= sum(verdicts) <= 1950  # both verdicts represented


@pytest.mark.parametrize("dim, j_min, j_max", [(1, -4, 14), (2, -2, 9), (1, 0, 70), (2, -3, 64)])
def test_is_good_offset_is_is_good_cube_by_cube(dim, j_min, j_max):
    # one array call per level against one is_good call per cube, at depths
    # inside int64 and past it (object arrays of Python integers); n = 2
    # takes gamma_n on the 2-d grids and gamma_m = 1/7 on the 1-d ones
    configs = [default_params(r=2), default_params(r=5),
               default_params(r=3, n=2, alpha=1.0, beta=0.4)]
    pick = random.Random(17 + dim + j_max)
    verdicts = []
    grids = random_grids(dim, j_min, j_max, 61, range(len(configs)))
    for grid, params in zip(grids, configs):
        for level in grid.levels():
            span = 1 << (level - j_min + 1)
            cubes = [grid.cube(level, [pick.randrange(-span, span) for _ in range(dim)])
                     for _ in range(24)]
            s = grid.descendant_offset(j_min, level)
            dtype = np.int64 if j_max - j_min < 62 else object
            offsets = [np.array([c.index[d] - s[d] for c in cubes], dtype=dtype)
                       for d in range(dim)]
            good = is_good_offset(level, offsets, j_min, j_max, params)
            expected = [is_good(c, grid, params) for c in cubes]
            assert good.shape == (len(cubes),) and good.tolist() == expected
            verdicts += expected
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts represented


def test_is_good_offset_keeps_the_shape_of_vacuous_goodness():
    # no qualifying generation: every offset is good, in the offsets' shape
    params = default_params(r=10)
    good = is_good_offset(4, [np.arange(6).reshape(2, 3)], 0, 8, params)
    assert good.shape == (2, 3) and good.all()
    assert is_good_offset(4, [5, -3], 0, 8, params).shape == ()
    with pytest.raises(ValueError, match="insufficient scale range"):
        is_good_offset(9, [np.arange(3)], 0, 8, params)


@pytest.mark.parametrize("dim, j_min, j_max", [
    (1, -6, 9), (2, -3, 12), (1, 0, 61), (1, 0, 62), (2, -10, 60), (1, -20, 64)])
def test_shift_tables_rows_are_the_random_grids_offsets(dim, j_min, j_max):
    trials = [0, 3, 4, 11]
    table = shift_tables(dim, j_min, j_max, seed=19, trials=trials)
    assert table.shape == (len(trials), j_max - j_min + 2, dim)
    assert table.dtype == (np.int64 if j_max - j_min < 62 else object)
    for row, grid in zip(table, random_grids(dim, j_min, j_max, 19, trials)):
        for level in range(j_min - 1, j_max + 1):
            offset = tuple(row[level - j_min + 1].tolist())
            assert offset == grid.offset(level)
            assert tuple(o * Fraction(2) ** -j_max for o in offset) == \
                _shift_fraction(grid, level)


@pytest.mark.parametrize("params, level, k, root", [
    (default_params(r=12), 17, 12, 1024),  # gamma = 1/6; float floor 1023
    (default_params(r=14, n=2, m=1, alpha=1.0, beta=0.4), 20, 14, 4096),  # 1/7; 4095
])
def test_gap_of_exactly_the_threshold_is_bad(params, level, k, root):
    # the only qualifying generation is k, and 2^(k (1 - gamma)) = root sides
    # exactly: a gap of root sides is within the threshold, one more is not
    j_min = level - k
    grid = ShiftedGrid.standard(1, j_min, level)
    top = (1 << k) - 1
    for gap, good in ((root, False), (root + 1, True)):
        assert is_good(grid.cube(level, (gap,)), grid, params) is good
        assert is_good(grid.cube(level, (top - gap,)), grid, params) is good
    # the estimator on the same boundary: trial 0's cube sits exactly root
    # sides into its ancestor
    seed, trials = 5, 100
    s = [grid.descendant_offset(j_min, level)[0]
         for grid in random_grids(1, j_min, level, seed, range(trials))]
    base = s[0] + root
    gaps = [min(o, top - o) for o in ((base - st) & top for st in s)]
    assert gaps[0] == root
    est, _ = estimate_pi_good(params, trials, level, seed, j_min=j_min, base_index=base)
    assert est == sum(g > root for g in gaps) / trials


def test_estimate_pi_good_is_the_per_grid_count():
    # the estimator reads each trial's shift bits without building its grid;
    # the hit count must equal the per-grid is_good count, also past int64
    # depth (63 generations) and off the origin
    cases = [(12, 0, 0, 1, 10), (14, 3, 777, 2, 4), (9, 0, -5, 1, 3), (70, 5, 2 ** 70 + 3, 1, 10)]
    for level, j_min, base, dim, r in cases:
        params = default_params(r=r)
        est, _ = estimate_pi_good(params, trials=150, level_of_i=level, seed=41,
                                  j_min=j_min, base_index=base, dim=dim)
        hits = 0
        for grid in random_grids(dim, j_min, level, 41, range(150)):
            hits += is_good(grid.cube(level, (base,) * dim), grid, params)
        assert est == hits / 150


@pytest.mark.parametrize("block", [1, 7, 64])
def test_trial_blocks_are_one_sweep(monkeypatch, block):
    # trials run in blocks to bound memory; the blocks cover the trials in
    # order, so their tables and the estimator's count are the whole sweep's
    params = default_params(r=2)
    whole = shift_tables(2, 1, 9, 13, range(150))
    est = estimate_pi_good(params, trials=150, level_of_i=9, seed=13, j_min=1)
    monkeypatch.setattr(dyadic, "_TRIAL_BLOCK", block)
    blocks = list(shift_table_blocks(2, 1, 9, 13, 150))
    assert [list(b) for b, _ in blocks] == [
        list(range(s, min(s + block, 150))) for s in range(0, 150, block)]
    assert np.array_equal(np.concatenate([t for _, t in blocks]), whole)
    assert estimate_pi_good(params, trials=150, level_of_i=9, seed=13,
                            j_min=1) == est


def test_goodness_monotone_in_radius():
    rng = np.random.default_rng(17)
    K = 14
    for grid in random_grids(1, 0, K, 100, range(10)):
        k = int(rng.integers(0, 2 ** K))
        cube = grid.cube(K, (k,))
        flags = [is_good(cube, grid, default_params(r=r, theorem_mode=True))
                 for r in (10, 11, 12)]
        # good at r implies good at every larger radius (fewer qualifying J)
        for a, b in zip(flags, flags[1:]):
            assert (not a) or b


# ---------------------------------------------------------------------------
# exact and sampled good-cube probability
# ---------------------------------------------------------------------------


def test_pi_good_exact_reference_values():
    g = Fraction(1, 6)
    assert pi_good_exact(g, 2, 12) == 0
    assert pi_good_exact(g, 8, 8) == Fraction(52, 256)
    assert pi_good_exact(g, 8, 12) == 0
    assert pi_good_exact(g, 10, 12) == Fraction(63, 1024)
    assert pi_good_exact(g, 11, 12) == Fraction(224, 1024)


def test_pi_good_decays_with_deeper_truncation():
    g = Fraction(1, 6)
    values = [pi_good_exact(g, 10, k) for k in (12, 14, 20)]
    assert values[0] > values[1] > values[2] > 0


def _brute_pi_good(gamma: Fraction, r: int, depth: int, roots: dict) -> Fraction:
    """Every offset o in [0, 2^depth) tested at each generation k = r..depth:
    good when min(o_k, 2^k - 1 - o_k) > 2^(k (1 - gamma)), o_k = o mod 2^k."""
    p, q = gamma.numerator, gamma.denominator
    o = np.arange(1 << depth, dtype=np.int64)
    good = np.ones(o.size, dtype=bool)
    for k in range(r, depth + 1):
        if (gamma, k) not in roots:
            # largest d with d^q <= 2^(k (q - p)), counted up from generation k - 1
            d = roots.get((gamma, k - 1), 0)
            while (d + 1) ** q <= 1 << (k * (q - p)):
                d += 1
            roots[(gamma, k)] = d
        o_k = o & ((1 << k) - 1)
        good &= np.minimum(o_k, (1 << k) - 1 - o_k) > roots[(gamma, k)]
    return Fraction(int(good.sum()), 1 << depth)


def test_pi_good_exact_matches_brute_enumeration():
    roots: dict = {}
    gammas = [Fraction(1, 10), Fraction(1, 6), Fraction(1, 5), Fraction(1, 4),
              Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
    for gamma in gammas:
        for r in (1, 2, 4, 8, 10, 11):
            for depth in range(17):
                assert pi_good_exact(gamma, r, depth) == _brute_pi_good(gamma, r, depth, roots), \
                    (gamma, r, depth)


def test_pi_good_exact_is_polynomial_in_depth():
    t0 = time.perf_counter()
    deep = pi_good_exact(Fraction(1, 6), 10, 64)
    assert time.perf_counter() - t0 < 1.0
    assert 0 < deep < pi_good_exact(Fraction(1, 6), 10, 32)
    # past 2^53 the threshold root needs exact integer arithmetic
    deeper = pi_good_exact(Fraction(1, 6), 10, 128)
    assert 0 < deeper < deep
    assert deeper.denominator <= 2 ** 128


def test_pi_good_exact_reads_a_float_gamma_as_goodness_does():
    # Params holds gamma as a float; read as its exact binary fraction (the
    # float 1/6 has denominator 2^55) the integer root would need
    # 1 << (k (q - p)), so it is read by the nearest-fraction rule is_good uses
    gamma = default_params().gamma_n
    assert gamma == 1 / 6
    for r, depth in [(8, 8), (10, 12), (11, 12), (10, 21), (10, 64)]:
        t0 = time.perf_counter()
        assert pi_good_exact(gamma, r, depth) == pi_good_exact(Fraction(1, 6), r, depth)
        assert time.perf_counter() - t0 < 1.0
    assert pi_good_exact(0.25, 4, 12) == pi_good_exact(Fraction(1, 4), 4, 12)


def test_default_shift_radius_matches_frozen_constant():
    assert default_shift_radius() == DEFAULT_SHIFT_RADIUS == 10


def test_exact_windows_match_float_thresholds():
    # the geometric scan compares float distances against float thresholds;
    # check it agrees with the exact root at every integer boundary up to 32
    # octaves
    gamma = 1.0 / 6.0
    p, q = 1, 6
    for k in range(1, 33):
        target = 1 << (k * (q - p))
        d = int(round(target ** (1.0 / q)))
        while d ** q > target:
            d -= 1
        while (d + 1) ** q <= target:
            d += 1
        thr = 2.0 ** (k * (1.0 - gamma))
        # d is the largest offset classified bad exactly; float agrees
        assert d <= thr < d + 1


def test_estimate_pi_good_zero_at_infeasible_radius():
    params = default_params(r=2)
    est, half = estimate_pi_good(params, trials=200, level_of_i=12, seed=7)
    assert est == 0.0
    assert half == pytest.approx(3.0 / 200)


def test_estimate_pi_good_refuses_a_cube_below_the_truncation():
    # a cube coarser than j_min used to die in a negative shift count
    with pytest.raises(ValueError, match="insufficient scale range"):
        estimate_pi_good(default_params(r=2), trials=200, level_of_i=3,
                         seed=7, j_min=5)


def test_estimate_pi_good_matches_exact_at_default_radius():
    params = default_params(r=10)
    exact = float(pi_good_exact(Fraction(1, 6), 10, 12))
    est, half = estimate_pi_good(params, trials=400, level_of_i=12, seed=7)
    assert est > 0.0
    assert abs(est - exact) < max(half, 0.03)


def test_estimate_pi_good_independent_of_base_cube():
    params = default_params(r=10)
    e1, h1 = estimate_pi_good(params, trials=300, level_of_i=12, seed=13, base_index=0)
    e2, h2 = estimate_pi_good(params, trials=300, level_of_i=12, seed=14, base_index=777)
    assert abs(e1 - e2) <= h1 + h2


def test_estimate_pi_good_requires_enough_trials():
    with pytest.raises(ValueError):
        estimate_pi_good(default_params(), trials=50, level_of_i=12, seed=1)


# ---------------------------------------------------------------------------
# Whitney geometry
# ---------------------------------------------------------------------------


def test_whitney_regions_partition_scale_intervals():
    # over one grid, the t-intervals (ell/2, ell] across levels partition the
    # covered scale range, and at each level the cubes tile space: combined
    # measure of W_I inside a box equals the box measure, exactly
    g = ShiftedGrid.random(1, 0, 6, seed=2)
    space = (Fraction(1, 4), Fraction(7, 8))
    t_range = (Fraction(1, 64), Fraction(1, 2))  # covered: levels 6 down to 1
    total = Fraction(0)
    for j in g.levels():
        w_lo, w_hi = Fraction(1, 2 ** (j + 1)), Fraction(1, 2 ** j)
        t_overlap = max(Fraction(0), min(w_hi, t_range[1]) - max(w_lo, t_range[0]))
        if t_overlap == 0:
            continue
        for cube in g.cubes_overlapping(j, [(float(space[0]), float(space[1]))]):
            (a, b), = _box_fractions(cube)
            total += max(Fraction(0), min(b, space[1]) - max(a, space[0])) * t_overlap
    expected = (space[1] - space[0]) * (t_range[1] - t_range[0])
    assert total == expected


# ---------------------------------------------------------------------------
# strong maximal function
# ---------------------------------------------------------------------------


def _unit_square_indicator(level=0):
    return StepFunction(level=level, lo=(0,) * 2, values=np.ones((1,) * 2))


def test_maximal_of_unit_square_on_support():
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    m = strong_maximal_dyadic(_unit_square_indicator(), grids)
    assert np.all(m.values == 1.0)


def test_maximal_of_unit_square_next_door():
    # at x in [1,2) x [0,1) the best rectangle is [0,2) x [0,1): average 1/2
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    m = strong_maximal_dyadic(_unit_square_indicator(), grids,
                              out_box=[(1.0, 2.0), (0.0, 1.0)])
    assert np.all(m.values == 0.5)


def test_maximal_dominates_function():
    rng = np.random.default_rng(31)
    vals = rng.uniform(0.0, 3.0, size=(8, 8))
    f = StepFunction(level=3, lo=(0, 0), values=vals)
    grids = (ShiftedGrid.random(1, -1, 4, seed=8),
             ShiftedGrid.random(1, -1, 4, seed=9))
    m = strong_maximal_dyadic(f, grids)
    assert np.all(m.refined(m.level).values >= f.refined(m.level).values - 1e-12)


def test_maximal_rejects_negative_input():
    f = StepFunction(level=0, lo=(0, 0), values=np.array([[-1.0]]))
    grids = (ShiftedGrid.standard(1, 0, 2), ShiftedGrid.standard(1, 0, 2))
    with pytest.raises(ValueError):
        strong_maximal_dyadic(f, grids)


def test_maximal_respects_shifted_rectangles():
    # one grid shifted by 1/4 at level 1: the rectangle [-1/4, 1/4) x [0, 1)
    # exists in the pair, giving maximal value 1/2 at x in [-1/4, 0) x [0,1)
    bits = np.zeros((3, 1), dtype=np.int64)
    bits[2, 0] = 1  # bit at level 2 shifts level-1 cubes by 1/4
    g1 = ShiftedGrid(dim=1, j_min=0, j_max=2, bits=bits)
    g2 = ShiftedGrid.standard(1, 0, 2)
    f = _unit_square_indicator()
    m = strong_maximal_dyadic(f, (g1, g2), out_box=[(-0.25, 0.0), (0.0, 1.0)])
    assert np.all(m.values == 0.5)


def _old_sweep(f, gridpair, out_box=None):
    """The maximal sweep as it read every cell's rectangle for every level
    pair: four prefix gathers over the whole output box per pair."""
    g1, g2 = gridpair
    level = max(f.level, g1.j_max, g2.j_max)
    fr = f.refined(level)
    if out_box is None:
        lo_idx, shape = fr.lo, fr.shape
    else:
        scale = 2.0 ** level
        lo_idx = tuple(int(math.floor(lo * scale)) for lo, _ in out_box)
        shape = tuple(max(int(math.ceil(hi * scale)) - a, 1)
                      for a, (_, hi) in zip(lo_idx, out_box))
    pref = np.zeros((fr.shape[0] + 1, fr.shape[1] + 1))
    pref[1:, 1:] = np.cumsum(np.cumsum(fr.values, axis=0), axis=1)

    def box_sum(alo, ahi, blo, bhi):
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
        off_a = g1.offset(ja)[0] << (level - g1.j_max)
        ra_lo = ((cells_a - off_a) // sa) * sa + off_a
        for jb in g2.levels():
            sb = 2 ** (level - jb)
            off_b = g2.offset(jb)[0] << (level - g2.j_max)
            rb_lo = ((cells_b - off_b) // sb) * sb + off_b
            sums = box_sum(ra_lo, ra_lo + sa, rb_lo, rb_lo + sb)
            np.maximum(out, sums / (sa * sb), out=out)
    return StepFunction(level=level, lo=lo_idx, values=out, tail=0.0)


@pytest.mark.parametrize("j_min, j_max, level, out_box", [
    (-3, 6, 5, None),
    (-2, 4, 6, [(-0.5, 1.3), (0.1, 2.0)]),
    (-5, 3, 4, [(-1.0, 2.0), (-3.0, 0.5)]),
    (-1, 7, 7, None),
    (-4, 5, 2, [(-3.0, 0.5), (0.0, 3.0)]),
])
def test_maximal_sums_each_rectangle_once_and_agrees_bit_for_bit(j_min, j_max, level, out_box):
    rng = np.random.default_rng(level + 10 * j_max)
    for trial in range(2):
        vals = rng.uniform(0.0, 5.0, size=(2 ** level // 2 + 3, 2 ** level // 3 + 2))
        vals[rng.random(vals.shape) < 0.3] = 0.0
        f = StepFunction(level, (-3, 2), vals)
        grids = (ShiftedGrid.random(1, j_min, j_max, seed=77, trial=2 * trial),
                 ShiftedGrid.random(1, j_min, j_max, seed=77, trial=2 * trial + 1))
        new, old = strong_maximal_dyadic(f, grids, out_box), _old_sweep(f, grids, out_box)
        assert (new.level, new.lo, new.shape) == (old.level, old.lo, old.shape)
        assert new.values.tobytes() == old.values.tobytes()
