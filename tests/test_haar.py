"""Haar members, exact expansions, modified ancestor patterns."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glstar.core import StepFunction
from glstar.dyadic import ShiftedGrid
from glstar.haar import (
    HaarIndex,
    expand,
    haar_function,
    reconstruct,
    s_function,
)

GRID = ShiftedGrid.standard(1, 0, 8)
Q = GRID.cube(0, (0,))  # [0, 1)


def _tensor(g1: StepFunction, g2: StepFunction) -> StepFunction:
    level = max(g1.level, g2.level)
    a, b = g1.refined(level), g2.refined(level)
    return StepFunction(level=level, lo=(a.lo[0], b.lo[0]),
                        values=np.multiply.outer(a.values, b.values))


def _positions(e, i1, i2) -> tuple[int, int]:
    """The packed positions of a member pair: its places in members()."""
    return e.members(0).index(i1), e.members(1).index(i2)


def _coefficient(e, i1, i2) -> float:
    """The normalized coefficient of a member pair, read from coefficients()."""
    return e.coefficients()[_positions(e, i1, i2)]


def _inside(outer, inner) -> bool:
    return all(a <= c and d <= b for (a, b), (c, d) in zip(outer.box(), inner.box()))


# ---------------------------------------------------------------------------
# members
# ---------------------------------------------------------------------------


def test_split_member_on_unit_interval():
    h = haar_function(HaarIndex(cube=Q, eta=(1,)))
    assert h(0.25) == 1.0 and h(0.75) == -1.0
    assert h(1.5) == 0.0


def test_flat_member_on_unit_interval():
    h = haar_function(HaarIndex(cube=Q, eta=(0,)))
    assert h(0.5) == 1.0
    assert h.integral() == 1.0


def test_members_are_normalized_with_zero_mean():
    for level, k in [(0, 0), (2, 3), (3, 5)]:
        h = haar_function(HaarIndex(cube=GRID.cube(level, (k,)), eta=(1,)))
        assert h.integral() == 0.0
        assert h.l2_norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_two_dimensional_member():
    g2 = ShiftedGrid.standard(2, 0, 4)
    c = g2.cube(1, (0, 1))
    h = haar_function(HaarIndex(cube=c, eta=(1, 1)))
    assert h.l2_norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert h.integral() == 0.0
    # sign pattern: product of the two axis splits
    assert h(0.1, 0.6) == -h(0.35, 0.6)


def test_signature_validation():
    with pytest.raises(ValueError):
        HaarIndex(cube=Q, eta=(2,))
    with pytest.raises(ValueError):
        HaarIndex(cube=Q, eta=(1, 0))


def test_orthonormality_of_small_system():
    members = [haar_function(HaarIndex(cube=Q, eta=(0,)))]
    for level in range(0, 3):
        for k in range(2 ** level):
            members.append(haar_function(HaarIndex(cube=GRID.cube(level, (k,)), eta=(1,))))
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            want = 1.0 if i == j else 0.0
            assert a.inner(b) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# expansion and reconstruction
# ---------------------------------------------------------------------------


def test_two_term_expansion_of_half_indicator():
    f = _tensor(StepFunction(level=1, lo=(0,), values=np.array([1.0, 0.0])),
                StepFunction(level=0, lo=(0,), values=np.array([1.0])))
    e = expand(f, (Q, Q), 2)
    flat = HaarIndex(cube=Q, eta=(0,))
    split = HaarIndex(cube=Q, eta=(1,))
    assert _coefficient(e, flat, flat) == 0.5
    assert _coefficient(e, split, flat) == 0.5
    # every coefficient with a finer first-factor cube vanishes
    for k in (0, 1):
        finer = HaarIndex(cube=GRID.cube(1, (k,)), eta=(1,))
        assert _coefficient(e, finer, flat) == 0.0
    assert e.norm_sq_fraction() == Fraction(1, 2)


def test_basis_member_has_single_unit_coefficient():
    i1 = HaarIndex(cube=GRID.cube(1, (1,)), eta=(1,))
    i2 = HaarIndex(cube=Q, eta=(1,))
    f = _tensor(haar_function(i1), haar_function(i2))
    e = expand(f, (Q, Q), 3)
    assert _coefficient(e, i1, i2) == pytest.approx(1.0, abs=1e-14)
    total = e.norm_sq_fraction()
    assert float(total) == pytest.approx(1.0, abs=1e-12)
    # all other coefficients vanish: the one term carries the whole norm
    c = Fraction(e.table[_positions(e, i1, i2)], 1 << e.shift)
    assert total - c * c / (Fraction(1, 2) * Fraction(1)) == 0


def test_round_trip_is_exact_for_random_step_function():
    rng = np.random.default_rng(1234)
    f = StepFunction(level=5, lo=(0, 0), values=rng.standard_normal((32, 32)))
    g = reconstruct(expand(f, (Q, Q), 5))
    assert g.level == f.level and g.lo == f.lo
    assert np.array_equal(g.values, f.values)  # bit for bit


@settings(max_examples=25, deadline=None)
@given(
    level=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_round_trip_property(level, seed):
    rng = np.random.default_rng(seed)
    n = 2 ** level
    f = StepFunction(level=level, lo=(0, 0), values=rng.standard_normal((n, n)))
    g = reconstruct(expand(f, (Q, Q), level))
    assert np.array_equal(g.values, f.values)


def test_parseval_exact_and_in_float():
    rng = np.random.default_rng(77)
    f = StepFunction(level=4, lo=(0, 0), values=rng.uniform(-2, 2, (16, 16)))
    e = expand(f, (Q, Q), 4)
    exact = sum(Fraction(v) ** 2 for v in f.values.ravel()) * Fraction(1, 2 ** 8)
    assert e.norm_sq_fraction() == exact
    float_sum = sum(c ** 2 for c in e.coefficients().ravel().tolist())
    assert float_sum == pytest.approx(f.l2_norm_sq(), rel=1e-12)


def test_support_leakage_is_rejected():
    f = StepFunction(level=2, lo=(-1, 0), values=np.ones((2, 2)))
    with pytest.raises(ValueError, match="support leakage"):
        expand(f, (Q, Q), 2)
    g = StepFunction(level=0, lo=(0, 0), values=np.ones((1, 1)), tail=1.0)
    with pytest.raises(ValueError, match="support leakage"):
        expand(g, (Q, Q), 2)


def test_scaling_member_only_for_top_cube():
    f = StepFunction(level=2, lo=(0, 0), values=np.ones((4, 4)))
    e = expand(f, (Q, Q), 2)
    for factor in (0, 1):
        members = e.members(factor)
        assert [m for m in members if not m.cancellative] == [HaarIndex(cube=Q, eta=(0,))]
        assert members[0] == HaarIndex(cube=Q, eta=(0,))


@pytest.mark.parametrize("seed", [3, 4])
def test_expansion_on_shifted_grids_indexes_every_member(seed):
    # level-0 domain cubes of random grids sit off the standard lattice; the
    # members are indexed from the grids' integer shift tables
    g1 = ShiftedGrid.random(1, -2, 5, seed=seed, trial=0)
    g2 = ShiftedGrid.random(1, -2, 5, seed=seed, trial=1)
    q1, q2 = g1.cube(0, (0,)), g2.cube(0, (0,))
    rng = np.random.default_rng(seed)
    f = StepFunction(level=5, lo=q1.lattice_corner(5) + q2.lattice_corner(5),
                     values=rng.standard_normal((32, 32)))
    e = expand(f, (q1, q2), 5)
    g = reconstruct(e)
    assert (g.level, g.lo) == (f.level, f.lo) and np.array_equal(g.values, f.values)
    members = e.members(0), e.members(1)
    for q, grid, ms in zip((q1, q2), (g1, g2), members):
        assert len(ms) == 32 and ms[0] == HaarIndex(cube=q, eta=(0,))
        # packed position p >= 1: the cube at level q + floor(log2 p), offset
        # p - 2^floor(log2 p) from q's first descendant there
        for p, m in enumerate(ms[1:], 1):
            gens = p.bit_length() - 1
            assert m.cube.grid is grid and m.cube.level == q.level + gens
            assert m.cube.index[0] - q.descendant_index(m.cube.level)[0] == p - (1 << gens)
            assert _inside(q, m.cube)
    coeff = e.coefficients()
    for p1, i1 in enumerate(members[0]):
        for p2, i2 in enumerate(members[1]):
            want = f.inner(_tensor(haar_function(i1), haar_function(i2)))
            assert coeff[p1, p2] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _fraction_table(f: StepFunction, domain, level: int) -> np.ndarray:
    """Oracle: the raw coefficient table by the list transform in Fractions,
    one axis at a time, each cell integral taken as value * 2^-level per
    axis."""
    def fwt(arr):
        vals = [v / 2 ** level for v in arr]
        out = [Fraction(0)] * len(vals)
        n = len(vals)
        while n > 1:
            half = n // 2
            out[half:n] = [vals[2 * i] - vals[2 * i + 1] for i in range(half)]
            vals = [vals[2 * i] + vals[2 * i + 1] for i in range(half)]
            n = half
        out[0] = vals[0]
        return out

    q1, q2 = domain
    n1, n2 = 2 ** (level - q1.level), 2 ** (level - q2.level)
    g = f.refined(level).padded(q1.lattice_corner(level) + q2.lattice_corner(level),
                                (n1, n2))
    rows = np.array([fwt([Fraction(v) for v in row]) for row in g.values],
                    dtype=object)
    return np.array([fwt(list(col)) for col in rows.T], dtype=object).T


def _wild_values(rng, shape) -> np.ndarray:
    # huge, subnormal, negative and exactly zero cells in one function
    vals = rng.choice([1e300, -1e300, 5e-324, -2.5e-310, 0.75, -3.0, 0.0], shape)
    vals *= rng.uniform(0.5, 1.0, shape)
    vals[1, :] = 0.0  # a zero row
    return vals


def _wild_cases():
    yield "standard", Q, Q
    for seed in (3, 8):
        g1 = ShiftedGrid.random(1, -2, 5, seed=seed, trial=0)
        g2 = ShiftedGrid.random(1, -2, 5, seed=seed, trial=1)
        yield f"shifted{seed}", g1.cube(0, (0,)), g2.cube(-1, (0,))


@pytest.mark.parametrize("case", list(_wild_cases()), ids=lambda c: c[0])
def test_integer_table_matches_the_fraction_transform(case):
    _, q1, q2 = case
    level = 5  # the random grids' finest level: their corners are lattice points
    n1, n2 = 2 ** (level - q1.level), 2 ** (level - q2.level)
    rng = np.random.default_rng(n1 + n2)
    f = StepFunction(level=level,
                     lo=q1.lattice_corner(level) + q2.lattice_corner(level),
                     values=_wild_values(rng, (n1, n2)))
    e = expand(f, (q1, q2), level)
    oracle = _fraction_table(f, (q1, q2), level)
    members1, members2 = e.members(0), e.members(1)
    for p1, i1 in enumerate(members1):
        for p2, i2 in enumerate(members2):
            assert Fraction(e.table[p1, p2], 1 << e.shift) == oracle[p1, p2]
    # the round trip is bit-exact at these magnitudes
    g = reconstruct(e)
    assert (g.level, g.lo) == (f.level, f.lo)
    assert np.array_equal(g.values, f.values)
    # Parseval, exact: the sum of squared cell values times the cell area
    exact = sum(Fraction(v) ** 2 for v in f.values.ravel()) / 4 ** level
    assert e.norm_sq_fraction() == exact
    # the matrix view is the exact pairing, correctly rounded, times the
    # normalization, bit for bit
    coeff = e.coefficients()
    assert coeff.shape == (n1, n2) and coeff.dtype == float
    for p1, i1 in enumerate(members1):
        for p2, i2 in enumerate(members2):
            scale = (i1.cube.measure() * i2.cube.measure()) ** -0.5
            assert coeff[p1, p2] == float(oracle[p1, p2]) * scale


# ---------------------------------------------------------------------------
# modified ancestor pattern
# ---------------------------------------------------------------------------


def test_s_pattern_three_cases():
    grid = ShiftedGrid.standard(1, 0, 3)
    s = s_function(grid.cube(1, (0,)), 1)  # I = [0, 1/2), ancestor [0, 1)
    assert s(0.25) == 0.0
    assert s(0.75) == -2.0
    assert s(5.0) == -1.0 and s.tail == -1.0


def test_s_reconstructs_haar_member_pointwise():
    grid = ShiftedGrid.random(1, 0, 10, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(10):
        level = int(rng.integers(4, 11))
        k = int(rng.integers(0, 2 ** 6))
        i = grid.cube(level, (k,))
        gens = int(rng.integers(1, level - grid.j_min + 1))
        parent = grid.ancestor(i, gens)
        keep = grid.ancestor(i, gens - 1)
        s = s_function(i, gens)
        h = haar_function(HaarIndex(cube=parent, eta=(1,)))
        avg = h(*keep.center())
        pts = rng.uniform(-1.0, 2.0, size=40)
        lhs = h(pts)
        rhs = s(pts) + avg
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_s_vanishes_on_the_kept_child():
    grid = ShiftedGrid.random(1, 0, 8, seed=15)
    i = grid.cube(6, (17,))
    s = s_function(i, 3)
    keep = grid.ancestor(i, 2)
    (a, b), = keep.box()
    xs = np.linspace(a + 1e-9, b - 1e-9, 25)
    assert np.all(s(xs) == 0.0)


def test_s_sup_bound():
    grid = ShiftedGrid.random(1, 0, 12, seed=25)
    rng = np.random.default_rng(26)
    for _ in range(15):
        level = int(rng.integers(3, 13))
        i = grid.cube(level, (int(rng.integers(0, 50)),))
        gens = int(rng.integers(1, level - grid.j_min + 1))
        s = s_function(i, gens)
        parent = grid.ancestor(i, gens)
        bound = 2.0 * parent.measure() ** -0.5
        assert np.max(np.abs(s.values)) <= bound + 1e-12
        assert abs(s.tail) <= bound


def test_s_requires_ancestor_within_truncation():
    grid = ShiftedGrid.standard(1, 0, 4)
    with pytest.raises(ValueError, match="insufficient scale range"):
        s_function(grid.cube(2, (1,)), 3)
