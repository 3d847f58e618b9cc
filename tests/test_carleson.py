"""Packing sums, box quantities, and shadow sets."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glstar import carleson, experiments, gstar
from glstar.core import QuadratureSpec, default_params
from glstar.carleson import (
    CarlesonReport,
    DyadicOpenSet,
    c_ij,
    carleson_check,
    carleson_sum,
    random_open_set,
    shadow_sets,
)
from glstar.dyadic import ShiftedGrid, random_grids
from glstar.experiments import run_carleson
from glstar.kernels import (
    make_broken,
    make_cancellative,
    make_mixed,
    make_size_only,
)

PARAMS = default_params()
SIZE = make_size_only(1, 1, 0.5, 0.5)
CANC = make_cancellative(1, 1, 0.5, 0.5)

# the box quantity of I x J for the mass-4-per-axis kernel, divided by |I||J|
C_UNIT = 256.0 * math.log(2.0) ** 2


def std_pair(j_min=-3, j_max=8):
    return ShiftedGrid.standard(1, j_min, j_max), ShiftedGrid.standard(1, j_min, j_max)


# ---------------------------------------------------------------------------
# box quantities


def test_cij_closed_law():
    g1, g2 = std_pair()
    for l1, l2 in [(0, 0), (2, 3), (5, 1)]:
        v = c_ij(SIZE, g1.cube(l1, (4,)), g2.cube(l2, (-2,)), PARAMS)
        assert v == pytest.approx(C_UNIT * 2.0 ** -(l1 + l2), rel=1e-12)


def test_cij_cancellative_vanishes():
    g1, g2 = std_pair()
    assert c_ij(CANC, g1.cube(2, (1,)), g2.cube(3, (5,)), PARAMS) == 0.0


@pytest.mark.parametrize("make", [make_size_only, make_cancellative, make_mixed])
def test_cij_is_the_product_of_two_cached_axis_bands(make):
    kernel = make(1, 1, 0.5, 0.5)
    g1, g2 = std_pair()
    i, j = g1.cube(2, (1,)), g2.cube(3, (5,))
    spec, (lam1, lam2) = QuadratureSpec(), PARAMS.weight_powers
    f1, f2 = kernel.tensor_parts
    band = carleson._axis_band.__wrapped__
    assert c_ij(kernel, i, j, PARAMS) == (band(f1, i.side, lam1, spec)
                                          * band(f2, j.side, lam2, spec))
    # the packing sums share each axis band among the scale pairs
    carleson._cij_scales.cache_clear()
    carleson._axis_band.cache_clear()
    run_carleson(PARAMS, omega_count=1, levels=1)
    assert carleson._axis_band.cache_info().hits > 0


def test_cij_position_independent():
    g1, g2 = std_pair()
    a = c_ij(SIZE, g1.cube(2, (0,)), g2.cube(2, (0,)), PARAMS)
    b = c_ij(SIZE, g1.cube(2, (-7,)), g2.cube(2, (31,)), PARAMS)
    assert a == b


def test_cij_opaque_quadrature_cross_check():
    # same kernel with the tensor structure hidden: the raw-evaluation path
    # must land on the closed value
    opaque = replace(SIZE, tensor_parts=None)
    g1, g2 = std_pair()
    I, J = g1.cube(2, (1,)), g2.cube(3, (5,))
    spec = QuadratureSpec(t_points_per_octave=2)
    vo = c_ij(opaque, I, J, PARAMS, spec)
    vt = c_ij(SIZE, I, J, PARAMS, spec)
    assert vo == pytest.approx(vt, rel=1e-2)


def test_cij_opaque_kernel_calls_stay_in_blocks(monkeypatch):
    # theta(1) on a non-tensor kernel takes per-point mass windows of about
    # 1.2 M mesh points; the raw oracle must stream them through evaluate in
    # blocks of at most _RAW_BLOCK values (or one z2 row, if that is longer)
    largest = {"points": 0, "z2": 0}

    def evaluate(t1, t2, x, y):
        shape = np.broadcast_shapes(*(np.shape(b)[:-1] for b in (*x, *y)))
        largest["points"] = max(largest["points"], math.prod(shape))
        return SIZE.evaluate(t1, t2, x, y)

    real = gstar._mesh_theta

    def mesh_theta(kernel, table, t1, t2, pts, axis1, axis2):
        largest["z2"] = max(largest["z2"], axis2[0].size)
        return real(kernel, table, t1, t2, pts, axis1, axis2)

    monkeypatch.setattr(gstar, "_mesh_theta", mesh_theta)
    opaque = replace(SIZE, evaluate=evaluate, tensor_parts=None)
    g1, g2 = std_pair()
    spec = QuadratureSpec(t_points_per_octave=1)
    c_ij(opaque, g1.cube(2, (0,)), g2.cube(3, (0,)), PARAMS, spec)
    assert 0 < largest["points"] <= max(gstar._RAW_BLOCK, largest["z2"])


def test_cij_refuses_a_tiny_declared_exponent():
    # theta(1)'s mass window would overflow its radius at beta = 0.02: the
    # raw path names the exponent before any kernel call
    calls, tensor = [], make_size_only(1, 1, 0.5, 0.02)

    def evaluate(t1, t2, x, y):
        calls.append(1)
        return tensor.evaluate(t1, t2, x, y)

    opaque = replace(tensor, evaluate=evaluate, tensor_parts=None)
    g1, g2 = std_pair()
    with pytest.raises(ValueError, match="exponent beta = 0.02 is too small"):
        c_ij(opaque, g1.cube(2, (0,)), g2.cube(3, (0,)), PARAMS,
             QuadratureSpec(t_points_per_octave=1))
    assert calls == []


def test_cij_opaque_theta_one_agrees_across_offsets(monkeypatch):
    # the kernel mass is summed on translates of one mesh, so theta(1) of a
    # convolution kernel reads the same at all three offsets up to rounding
    vals, real = [], carleson.apply_theta

    def spy(*args):
        vals.append(real(*args))
        return vals[-1]

    monkeypatch.setattr(carleson, "apply_theta", spy)
    opaque = replace(SIZE, tensor_parts=None)
    carleson._theta_one_const(opaque, 0.3, 0.17, QuadratureSpec())
    assert len(vals) == 3
    assert max(vals) - min(vals) <= 1e-14 * max(vals)


def test_cij_refuses_a_slight_position_dependence():
    # theta(1) drifting by about 1e-6 relative over the offsets is no
    # convolution kernel; the quadrature agrees far below that
    def evaluate(t1, t2, x, y):
        drift = 1.0 + 1e-5 * np.tanh(x[0][..., 0])
        return SIZE.evaluate(t1, t2, x, y) * drift

    drifting = replace(SIZE, evaluate=evaluate, tensor_parts=None)
    g1, g2 = std_pair()
    spec = QuadratureSpec(t_points_per_octave=1)
    with pytest.raises(NotImplementedError, match="convolution"):
        c_ij(drifting, g1.cube(2, (0,)), g2.cube(3, (0,)), PARAMS, spec)


def test_cij_rejects_divergent_weight():
    # Params itself refuses such weights, so drive the guard with a stand-in
    g1, g2 = std_pair()
    bad = SimpleNamespace(weight_powers=(1.0, 3.0))
    with pytest.raises(ValueError, match="exceed 1"):
        c_ij(SIZE, g1.cube(1, (0,)), g2.cube(1, (0,)), bad)


def test_cij_refuses_position_dependent_theta():
    broken = make_broken(SIZE, defect="holder_break")
    g1, g2 = std_pair()
    with pytest.raises(NotImplementedError, match="convolution"):
        c_ij(broken, g1.cube(1, (0,)), g2.cube(1, (0,)), PARAMS)


# ---------------------------------------------------------------------------
# open sets


def test_open_set_union_measure():
    g1, g2 = std_pair()
    # overlapping members must not double count
    om = DyadicOpenSet((
        (g1.cube(0, (0,)), g2.cube(0, (0,))),
        (g1.cube(1, (0,)), g2.cube(1, (0,))),
    ))
    assert om.measure == 1.0


def test_open_set_rejects_mixed_grids():
    g1, g2 = std_pair()
    h1 = ShiftedGrid.random(1, -3, 8, seed=3)
    with pytest.raises(ValueError, match="one grid pair"):
        DyadicOpenSet((
            (g1.cube(0, (0,)), g2.cube(0, (0,))),
            (h1.cube(0, (0,)), g2.cube(0, (0,))),
        ))


def test_open_set_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        DyadicOpenSet(())


def test_random_open_set_refuses_empty_draws():
    # n_rects = 0 used to draw one rectangle anyway, and a reversed level
    # range died inside numpy's integer draw
    gp = std_pair()
    for kwargs, match in (({"n_rects": 0}, "at least one rectangle"),
                          ({"n_rects": -2}, "at least one rectangle"),
                          ({"level_range": (3, 1)}, "low <= high")):
        with pytest.raises(ValueError, match=match):
            random_open_set(gp, np.random.default_rng(0), **kwargs)


def test_open_set_measure_is_not_an_argument():
    # the measure is the union's, computed from the raster; a constructor
    # argument for it would be silently overwritten
    g1, g2 = std_pair()
    rects = ((g1.cube(0, (0,)), g2.cube(0, (0,))),)
    with pytest.raises(TypeError):
        DyadicOpenSet(rects, 7.0)
    with pytest.raises(TypeError):
        DyadicOpenSet(rects, measure=7.0)
    assert DyadicOpenSet(rects).measure == 1.0


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 30))
def test_open_set_indicator_matches_measure(seed):
    h1, h2 = random_grids(1, -3, 6, seed, (0, 1))
    rng = np.random.default_rng(seed)
    om = random_open_set((h1, h2), rng, n_rects=4, level_range=(0, 3))
    ind = om.indicator()
    assert ind.integral() == om.measure
    members = max(i.measure() * j.measure() for i, j in om.rects)
    total = sum(i.measure() * j.measure() for i, j in om.rects)
    assert members <= om.measure <= total + 1e-15


# ---------------------------------------------------------------------------
# packing sums


def test_packing_law_on_unit_square():
    g1, g2 = std_pair()
    unit = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    for L in (1, 2):
        rep = carleson_sum(SIZE, unit, L, PARAMS)
        assert rep.measure == 1.0
        # every level pair packs Sum |I||J| = 1, so the total is quadratic in
        # the enumeration depth: the size-only kernel cannot satisfy a
        # depth-free packing bound
        assert rep.ratio == pytest.approx(C_UNIT * (L + 1) ** 2, rel=1e-12)
        want_n = (2 ** (L + 1) - 1) ** 2
        assert len(rep.rect_values) == want_n
        assert rep.last_level_total == pytest.approx(
            C_UNIT * (2 * L + 1), rel=1e-12)


def test_packing_cancellative_is_zero():
    g1, g2 = std_pair()
    unit = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    rep = carleson_sum(CANC, unit, 3, PARAMS)
    assert rep.ratio == 0.0
    assert all(v == 0.0 for v in rep.rect_values.values())


def test_packing_enumerates_members_and_contains():
    h1 = ShiftedGrid.random(1, -3, 8, seed=41)
    h2 = ShiftedGrid.random(1, -3, 8, seed=42)
    rng = np.random.default_rng(5)
    om = random_open_set((h1, h2), rng, n_rects=5, level_range=(1, 3))
    rep = carleson_sum(SIZE, om, 2, PARAMS)
    keys = set(rep.rect_values)
    assert set(om.rects) <= keys
    # spot check: enumerated rectangles really sit inside the union
    ind = om.indicator()
    h = ind.cell_side
    for I, J in list(keys)[::max(1, len(keys) // 40)]:
        (a, b), = I.box()
        (c, d), = J.box()
        xs = np.arange(a + h / 2, b, h)
        ys = np.arange(c + h / 2, d, h)
        vals = ind(xs[:, None], ys[None, :])
        assert np.all(vals == 1.0), (I, J)


def per_rectangle_oracle(kernel, omega, levels, params):
    """The packing sum's rectangle map built one cube pair at a time: the
    enumeration loop as it stood before the per-level-pair view."""
    from glstar.carleson import _axis_candidates, _cij_scales

    spec = QuadratureSpec()
    lam1, lam2 = params.weight_powers
    g1, g2 = omega.grids
    base1, base2 = omega._levels
    n1, n2 = omega._bitmap.shape
    pref = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    pref[1:, 1:] = np.cumsum(np.cumsum(omega._bitmap, axis=0), axis=1)
    out = {}
    for l1 in range(max(g1.j_min, base1 - (n1.bit_length() - 1)),
                    base1 + levels + 1):
        k1, p1, w1 = _axis_candidates(g1, base1, omega._lo[0], n1, l1)
        for l2 in range(max(g2.j_min, base2 - (n2.bit_length() - 1)),
                        base2 + levels + 1):
            k2, p2, w2 = _axis_candidates(g2, base2, omega._lo[1], n2, l2)
            if k1.size == 0 or k2.size == 0:
                continue
            sums = (pref[np.ix_(p1 + w1, p2 + w2)]
                    - pref[np.ix_(p1, p2 + w2)]
                    - pref[np.ix_(p1 + w1, p2)]
                    + pref[np.ix_(p1, p2)])
            value = _cij_scales(kernel, 2.0 ** -l1, 2.0 ** -l2,
                                lam1, lam2, spec)
            for a, b in np.argwhere(sums == w1 * w2):
                key = (g1.cube(l1, (int(k1[a]),)), g2.cube(l2, (int(k2[b]),)))
                out[key] = value
    return out


@pytest.mark.parametrize("seed, levels", [(None, 2), (3, 1), (8, 2), (21, 3)])
def test_rect_view_equals_per_rectangle_map(seed, levels):
    if seed is None:
        g1, g2 = std_pair()
        omega = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    else:
        h1, h2 = random_grids(1, -4, 8, seed, (0, 1))
        omega = random_open_set((h1, h2), np.random.default_rng(seed),
                                n_rects=4, level_range=(0, 2))
    rep = carleson_sum(SIZE, omega, levels, PARAMS)
    oracle = per_rectangle_oracle(SIZE, omega, levels, PARAMS)
    view = rep.rect_values
    assert list(view.items()) == list(oracle.items())
    assert len(view) == len(oracle)
    assert dict(view) == oracle
    assert list(view.values()) == list(oracle.values())
    # an uncontained rectangle of the same grids, at an enumerated level
    # pair and at one past the enumeration depth
    i, j = next(iter(view))
    g1, g2 = omega.grids
    far = (g1.cube(i.level, (i.index[0] + 1000,)), j)
    deep = (g1.cube(g1.j_max, (0,)), g2.cube(g2.j_max, (0,)))
    # the same levels and indices on another grid pair
    o1, o2 = random_grids(1, g1.j_min, g1.j_max, 99, (0, 1))
    other = (o1.cube(i.level, i.index), o2.cube(j.level, j.index))
    half = (i, o2.cube(j.level, j.index))
    for key in (far, deep, other, half, "x", (i,)):
        assert key not in oracle
        assert key not in view
        with pytest.raises(KeyError):
            view[key]


def test_carleson_sum_builds_no_cubes(monkeypatch):
    # run_carleson's first open set at seed 11; the sum must count its
    # rectangles without constructing any of them
    gp = random_grids(1, -6, 10, 11, (0, 1))
    omega = random_open_set(gp, np.random.default_rng((11, 0)), n_rects=4,
                            level_range=(0, 2))
    calls = []
    cube = ShiftedGrid.cube

    def counted(self, level, index):
        calls.append(level)
        return cube(self, level, index)

    monkeypatch.setattr(ShiftedGrid, "cube", counted)
    rep = carleson_sum(SIZE, omega, 3, PARAMS)
    assert calls == []
    assert len(rep.rect_values) == 2945


def seeded_open_set(seed):
    """run_carleson's open set number ``seed`` at seed 11, built fresh."""
    gp = random_grids(1, -6, 10, 11, (2 * seed, 2 * seed + 1))
    return random_open_set(gp, np.random.default_rng((11, seed)), n_rects=4,
                           level_range=(0, 2))


def test_run_carleson_counts_each_level_pair_once(monkeypatch):
    # three kernels, each summed at two depths, share every open set's
    # containment masks: each (set, level pair) is counted on the raster
    # once, however many sums ask for it, and each (set, axis, level)'s
    # candidate cubes are listed once for all the level pairs that read them
    counted, sums, listed = [], [], []
    block = carleson._containment_block
    summed = carleson.carleson_sum
    candidates = carleson.DyadicOpenSet._candidates

    def count(omega, l1, l2s):
        counted.append((omega, l1, l2s))
        return block(omega, l1, l2s)

    def listing(omega, axis, level):
        out = candidates(omega, axis, level)
        listed.append((id(omega), axis, level, id(out)))
        return out

    def total(kernel, omega, *args, **kwargs):
        sums.append(omega)
        return summed(kernel, omega, *args, **kwargs)

    monkeypatch.setattr(carleson, "_containment_block", count)
    monkeypatch.setattr(carleson, "carleson_sum", total)
    monkeypatch.setattr(experiments, "carleson_sum", total)
    monkeypatch.setattr(carleson.DyadicOpenSet, "_candidates", listing)
    run_carleson(PARAMS)
    keys = [(id(om), l1, l2) for om, l1, l2s in counted for l2 in l2s]
    assert len(keys) == len(set(keys)) > 0
    # one listing per (set, axis, level), every later read the same arrays
    assert len({key[:3] for key in listed}) == len(set(listed)) < len(listed)
    # 4 sets x 3 kernels x 2 depths, and the unit square once
    assert len(sums) == 25
    assert {id(om) for om, _, _ in counted} == {id(om) for om in sums}


@pytest.mark.parametrize("seed", [0, 3])
def test_warm_set_sums_as_a_fresh_one(monkeypatch, seed):
    # sums on a set whose masks were kept by earlier sums (another kernel,
    # a deeper and a shallower depth) read bit for bit as on a fresh set
    warm = seeded_open_set(seed)
    for kernel, levels in ((CANC, 3), (SIZE, 1)):
        carleson_sum(kernel, warm, levels, PARAMS)
    for levels in (2, 3):
        got = carleson_sum(SIZE, warm, levels, PARAMS)
        want = carleson_sum(SIZE, seeded_open_set(seed), levels, PARAMS)
        for name in ("total", "last_level_total", "ratio"):
            a, b = np.float64(getattr(got, name)), np.float64(getattr(want, name))
            assert a.view(np.int64) == b.view(np.int64)
        assert ([(i.level, i.index, j.level, j.index) for i, j in got.rect_values]
                == [(i.level, i.index, j.level, j.index)
                    for i, j in want.rect_values])
        assert np.array_equal(got.rect_values.values().view(np.int64),
                              want.rect_values.values().view(np.int64))
    # the rectangle guard still counts each sum's rectangles on its own
    monkeypatch.setattr(carleson, "_MAX_RECTS", len(got.rect_values) - 1)
    with pytest.raises(ValueError, match="size guard"):
        carleson_sum(SIZE, warm, 3, PARAMS)
    carleson_sum(SIZE, warm, 2, PARAMS)


def test_tensor_packing_sums_take_no_scale_pair_lookup(monkeypatch):
    # a tensor kernel's box value at a level pair is the product of two
    # per-level axis bands, built once per sum, so no level pair looks the
    # kernel up in _cij_scales; the values are its values bit for bit
    omega = seeded_open_set(1)
    kernels = (SIZE, CANC, make_mixed(1, 1, 0.5, 0.5))
    want = [per_rectangle_oracle(k, omega, 2, PARAMS) for k in kernels]

    def no_lookup(*args, **kwargs):
        raise AssertionError("a level pair looked up _cij_scales")

    monkeypatch.setattr(carleson, "_cij_scales", no_lookup)
    for kernel, oracle in zip(kernels, want):
        assert dict(carleson_sum(kernel, omega, 2, PARAMS).rect_values) == oracle


def test_warm_sum_builds_one_spec(monkeypatch):
    # a warm sum looks up one cached box value per nonempty level pair; the
    # spec of that lookup is made once per call, not once per pair
    omega = seeded_open_set(0)
    carleson_sum(SIZE, omega, 3, PARAMS)
    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return QuadratureSpec(*args, **kwargs)

    monkeypatch.setattr(carleson, "QuadratureSpec", counted)
    rep = carleson_sum(SIZE, omega, 3, PARAMS)
    assert len(rep.rect_values) > 0 and len(made) <= 1


def test_packing_monotone_in_depth():
    g1, g2 = std_pair()
    unit = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    r1 = carleson_sum(SIZE, unit, 1, PARAMS)
    r2 = carleson_sum(SIZE, unit, 2, PARAMS)
    assert r2.total > r1.total


def test_packing_guards():
    g1, g2 = std_pair(-3, 4)
    unit = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    with pytest.raises(ValueError, match="levels"):
        carleson_sum(SIZE, unit, 0, PARAMS)
    with pytest.raises(ValueError, match="truncation"):
        carleson_sum(SIZE, unit, 5, PARAMS)


def test_report_validates():
    with pytest.raises(ValueError, match="nonnegative"):
        CarlesonReport(rect_values={"x": -1.0}, total=-1.0, measure=1.0,
                       ratio=-1.0, levels=1, last_level_total=0.0)
    with pytest.raises(ValueError, match="match"):
        CarlesonReport(rect_values={"x": 1.0}, total=3.0, measure=1.0,
                       ratio=3.0, levels=1, last_level_total=0.0)


def test_carleson_check_dichotomy():
    g1, g2 = std_pair()
    unit = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    ok, pairs = carleson_check(CANC, [unit], 2, 1e-10, PARAMS)
    assert ok
    assert pairs[0][0].ratio == 0.0 and pairs[0][1].ratio == 0.0
    # the size-only kernel fails even with a generous cap: the one-level
    # growth probe sees the quadratic depth dependence
    ok, pairs = carleson_check(SIZE, [unit], 2, 1e6, PARAMS)
    assert not ok
    growth = pairs[0][1].ratio / pairs[0][0].ratio - 1.0
    assert growth > 0.10


def test_carleson_check_infinite_cap_warns():
    g1, g2 = std_pair()
    unit = DyadicOpenSet(((g1.cube(0, (0,)), g2.cube(0, (0,))),))
    with pytest.warns(RuntimeWarning, match="vacuous"):
        ok, _ = carleson_check(SIZE, [unit], 1, math.inf, PARAMS)
    assert ok


# ---------------------------------------------------------------------------
# shadow sets


def brute_lattice_shadow(bitmap, c, pad):
    """Mark every cell of the padded window covered by some rectangle of
    indicator mean above c -- the O(n^6) definition, small inputs only."""
    n1, n2 = bitmap.shape
    big = np.zeros((n1 + 2 * pad, n2 + 2 * pad), dtype=float)
    big[pad:pad + n1, pad:pad + n2] = bitmap
    P = np.zeros((big.shape[0] + 1, big.shape[1] + 1))
    P[1:, 1:] = big.cumsum(0).cumsum(1)
    out = np.zeros_like(big, dtype=bool)
    for a1 in range(big.shape[0]):
        for b1 in range(a1 + 1, big.shape[0] + 1):
            for a2 in range(big.shape[1]):
                for b2 in range(a2 + 1, big.shape[1] + 1):
                    mass = P[b1, b2] - P[a1, b2] - P[b1, a2] + P[a1, a2]
                    if mass > c * (b1 - a1) * (b2 - a2):
                        out[a1:b1, a2:b2] = True
    return out


def test_shadow_matches_brute_force():
    from glstar.carleson import _lattice_shadow
    from glstar.core import StepFunction

    bitmap = np.array([[1, 1, 0, 0],
                       [1, 1, 0, 0],
                       [0, 0, 0, 1]], dtype=float)
    c = 0.3
    ind = StepFunction(level=2, lo=(0, 0), values=bitmap)
    hat = _lattice_shadow(ind, c)
    pad = max(math.ceil(bitmap.shape[0] / c), math.ceil(bitmap.shape[1] / c))
    want = brute_lattice_shadow(bitmap, c, pad)
    # align the trimmed result inside the brute window
    got = np.zeros_like(want)
    r0 = hat.lo[0] - (0 - pad)
    c0 = hat.lo[1] - (0 - pad)
    got[r0:r0 + hat.shape[0], c0:c0 + hat.shape[1]] = hat.values > 0
    assert np.array_equal(got, want)


def test_shadow_containments():
    k1, k2 = std_pair(-2, 4)
    om = DyadicOpenSet((
        (k1.cube(1, (0,)), k2.cube(1, (0,))),
        (k1.cube(2, (2,)), k2.cube(2, (2,))),
    ))
    tilde, hat = shadow_sets(om, (k1, k2), c=0.125)
    ind = om.indicator()
    assert float((tilde - ind).values.min()) >= 0.0
    assert float((hat - tilde).values.min()) >= 0.0
    m = lambda f: f.values.sum() * 4.0 ** -f.level
    assert om.measure <= m(tilde) <= m(hat)


def test_shadow_shrinks_with_threshold():
    k1, k2 = std_pair(-2, 4)
    om = DyadicOpenSet((
        (k1.cube(1, (0,)), k2.cube(1, (0,))),
        (k1.cube(2, (2,)), k2.cube(2, (2,))),
    ))
    m = lambda f: f.values.sum() * 4.0 ** -f.level
    _, h8 = shadow_sets(om, (k1, k2), c=0.125)
    _, h4 = shadow_sets(om, (k1, k2), c=0.25)
    _, h2 = shadow_sets(om, (k1, k2), c=0.5)
    assert m(h2) <= m(h4) <= m(h8)


def test_shadow_threshold_validation():
    k1, k2 = std_pair(-2, 4)
    om = DyadicOpenSet(((k1.cube(1, (0,)), k2.cube(1, (0,))),))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="threshold"):
            shadow_sets(om, (k1, k2), c=bad)


def test_shadow_raster_guard():
    from glstar.carleson import _lattice_shadow
    from glstar.core import StepFunction

    ind = StepFunction(level=8, lo=(0, 0), values=np.ones((80, 3)))
    with pytest.raises(ValueError, match="guard"):
        _lattice_shadow(ind, 0.5)
