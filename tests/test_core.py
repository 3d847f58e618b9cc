"""Core layer: parameter validation, mesh and scale rules, step functions."""

import math
import warnings

import numpy as np
import pytest

from glstar import core
from glstar.core import (
    Params,
    QuadratureSpec,
    StepFunction,
    default_params,
    graded_axis_edges,
    graded_meshes,
    octave_blocks,
    octave_nodes,
    segment_nodes,
)
from glstar.gstar import weight_total


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------


def test_default_params_and_derived_exponents():
    p = default_params()
    assert (p.n, p.m) == (1, 1)
    assert p.alpha == p.beta == 0.5
    assert p.lambda1 == p.lambda2 == 3.0
    # gamma = alpha / (2 (n + alpha)) = (1/2) / 3 = 1/6
    assert p.gamma_n == 1.0 / 6.0
    assert p.gamma_m == 1.0 / 6.0


def test_gamma_tracks_alpha_not_free():
    p = Params(alpha=1.0, lambda1=4.0)
    assert p.gamma_n == 1.0 / 4.0
    assert p.gamma_m == 1.0 / 6.0  # beta untouched


def test_theorem_mode_rejects_weak_weights():
    with pytest.raises(ValueError):
        Params(lambda1=2.0)
    with pytest.raises(ValueError):
        Params(alpha=0.6)  # needs alpha <= n (lambda1 - 2)/2 = 1/2
    with pytest.raises(ValueError):
        Params(beta=2.0, lambda2=3.0)


def test_non_theorem_mode_warns_instead():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = Params(lambda1=2.0, theorem_mode=False)
    assert p.lambda1 == 2.0
    assert any("theorem region" in str(w.message) for w in caught)


def test_hard_validation_is_unconditional():
    # these are nonsense regardless of mode: integrals would diverge
    for kwargs in [dict(n=0), dict(alpha=0.0), dict(lambda1=1.0), dict(r=0)]:
        with pytest.raises(ValueError):
            Params(theorem_mode=False, **kwargs)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_cell=0)
    with pytest.raises(ValueError):
        QuadratureSpec(t_min=1.0, t_max=0.5)
    with pytest.raises(ValueError):
        QuadratureSpec(rule="simpson")


# ---------------------------------------------------------------------------
# space rules: graded edges plus segment nodes
# ---------------------------------------------------------------------------


def axis_rule(lo, hi, spec, anchors=(0.0,)):
    return segment_nodes(graded_axis_edges(lo, hi, anchors),
                         spec.points_per_cell, spec.rule)


def test_constant_integrates_to_volume():
    spec = QuadratureSpec()
    x, wx = axis_rule(0.0, 1.0, spec)
    y, wy = axis_rule(0.0, 1.0, spec)
    val = float(wx @ np.ones((x.size, y.size)) @ wy)
    assert val == pytest.approx(1.0, abs=1e-13)


def test_linear_integrand_exact():
    x, w = axis_rule(0.0, 1.0, QuadratureSpec())
    assert float(w @ x) == pytest.approx(0.5, abs=1e-12)


def test_heavy_tail_kernel_profile():
    # f(u) = (1+|u|)^(-3/2) over [-R, R], with R the minimal radius at which
    # the exact tail mass (2/a) (1+R)^(-a), a = 1/2, drops to eps = 1e-6.
    # Oracle: the odd-symmetric antiderivative gives 2 * (2 - 2 (1+R)^(-1/2)).
    a, eps = 0.5, 1e-6
    R = (2.0 / (a * eps)) ** (1.0 / a) - 1.0
    exact = 4.0 - 4.0 / math.sqrt(1.0 + R)
    u, w = axis_rule(-R, R, QuadratureSpec(points_per_cell=6, rule="gauss"))
    assert float(w @ (1.0 + np.abs(u)) ** -1.5) == pytest.approx(exact, abs=1e-4)
    # the radius leaves less than eps of the full mass 4 outside
    assert 4.0 - exact < 1e-6 * 4.0


def test_linearity_of_the_quadrature():
    x, w = axis_rule(-2.0, 3.0, QuadratureSpec())
    f = np.exp(-np.abs(x))
    g = 1.0 / (1.0 + x * x)
    a, b = 2.5, -1.25
    assert float(w @ (a * f + b * g)) == pytest.approx(
        a * float(w @ f) + b * float(w @ g), rel=1e-12)


@pytest.mark.parametrize("lam", [3.0, 4.0])
def test_weight_profile_mass(lam):
    # int_R (t/(t+|y|))^lam dy / t = 2/(lam-1) = weight_total(t, lam) / t for
    # every t > 0; R cuts the exact tail (2/a) (t/(t+R))^a, a = lam - 1, at 1e-9
    a = lam - 1.0
    spec = QuadratureSpec(points_per_cell=6, rule="gauss")
    for t in np.logspace(-12 * math.log10(2.0), 5 * math.log10(2.0), 10):
        R = t * ((2.0 / (a * 1e-9)) ** (1.0 / a) - 1.0)
        y, w = axis_rule(-R, R, spec)
        val = float(w @ ((t / (t + np.abs(y))) ** lam / t))
        assert val == pytest.approx(2.0 / a, rel=1e-6), f"t={t}"
        assert val == pytest.approx(weight_total(t, lam) / t, rel=1e-6)


# ---------------------------------------------------------------------------
# scale rules: octave blocks
# ---------------------------------------------------------------------------


def test_dyadic_band_integrates_to_log_two():
    # f(y,t) = 1_[0,1)(y) 1_(1/2,1)(t) / t; the t-integral is log 2 and the
    # y-integral is 1, both resolved exactly by octave alignment + anchor edges
    spec = QuadratureSpec()
    y, wy = axis_rule(-4.0, 4.0, spec, anchors=(0.0, 1.0))
    t, wt = octave_nodes(spec.t_min, spec.t_max, spec.t_points_per_octave,
                         spec.rule)
    f = ((y[:, None] >= 0) & (y[:, None] < 1) & (t > 0.5) & (t < 1.0)) / t
    assert float(wy @ f @ wt) == pytest.approx(math.log(2.0), abs=1e-12)


def test_zero_integrand_gives_zero():
    spec = QuadratureSpec()
    y, wy = axis_rule(-4.0, 4.0, spec)
    t, wt = octave_nodes(spec.t_min, spec.t_max, spec.t_points_per_octave)
    assert float(wy @ np.zeros((y.size, t.size)) @ wt) == 0.0


def test_octave_nodes_exact_on_dt_over_t():
    # the log-midpoint rule integrates c/t exactly over any octave span
    t, w = octave_nodes(2.0 ** -5, 2.0 ** 3, per_octave=3)
    val = float(np.sum(w / t))
    assert val == pytest.approx(8.0 * math.log(2.0), rel=1e-14)


@pytest.mark.parametrize("rule", ["midpoint", "gauss"])
@pytest.mark.parametrize("t_lo,t_hi", [(2.0 ** -14, 2.0 ** 6), (0.3, 17.0),
                                       (1e-3, 0.75), (0.3, 0.45)])
def test_octave_nodes_concatenate_the_blocks(t_lo, t_hi, rule):
    blocks = list(octave_blocks(t_lo, t_hi, 5, rule))
    t, w = octave_nodes(t_lo, t_hi, 5, rule)
    assert t.tobytes() == np.concatenate([b[2] for b in blocks]).tobytes()
    assert w.tobytes() == np.concatenate([b[3] for b in blocks]).tobytes()
    # the blocks chain from t_lo to t_hi through every power of two between
    edges = [blocks[0][0]] + [b[1] for b in blocks]
    assert edges[0] == t_lo and edges[-1] == t_hi
    assert all(b[1] == c[0] for b, c in zip(blocks, blocks[1:]))
    inner = edges[1:-1]
    k_lo, k_hi = math.floor(math.log2(t_lo)) + 1, math.ceil(math.log2(t_hi)) - 1
    assert inner == [2.0 ** k for k in range(k_lo, k_hi + 1)]
    for lo, hi, nodes, weights in blocks:
        assert np.all((lo < nodes) & (nodes < hi))
        assert nodes.size == weights.size == 5


@pytest.mark.parametrize("rule", ["midpoint", "gauss"])
def test_cached_rule_arrays_refuse_writes(rule):
    nodes, weights = core._rule01(4, rule)
    assert core._rule01(4, rule)[0] is nodes
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


def _rule_outputs(rule):
    edges = graded_axis_edges(-1.0, 2.0, anchors=(0.3,))
    out = [a for p in (1, 4, 7) for a in segment_nodes(edges, p, rule)]
    out += [a for p in (2, 5) for b in octave_blocks(2.0 ** -9, 5.0, p, rule)
            for a in b[2:]]
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("rule", ["midpoint", "gauss"])
def test_cached_rule_moves_no_node_or_weight(monkeypatch, rule):
    cached = _rule_outputs(rule)
    monkeypatch.setattr(core, "_rule01", core._rule01.__wrapped__)
    assert _rule_outputs(rule) == cached


def test_octave_blocks_reject_empty_range():
    with pytest.raises(ValueError):
        list(octave_blocks(1.0, 1.0, 2))
    with pytest.raises(ValueError):
        octave_nodes(0.0, 1.0, 2)


def test_graded_edges_include_anchor_and_limits():
    edges = graded_axis_edges(0.0, 2.0, anchors=(1.0,))
    assert edges[0] == 0.0 and edges[-1] == 2.0
    assert 1.0 in edges
    # geometric grading: gaps are within a factor ~2 of distance to anchor
    gaps = np.diff(edges)
    assert gaps.min() < 2.0 ** -40
    assert gaps.max() <= 1.0 + 1e-12


def _graded_edges_set_loop(lo, hi, anchors, rel_finest):
    """graded_axis_edges as it grew each anchor's ladder by doubling, one
    edge at a time, into a set."""
    edges = {float(lo), float(hi)}
    for a in anchors:
        a = float(a)
        dmax = max(hi - a, a - lo)
        if dmax <= 0:
            continue
        h = dmax * rel_finest
        while h < 2.0 * dmax:
            for x in (a - h, a + h):
                if lo < x < hi:
                    edges.add(x)
            h *= 2.0
        if lo < a < hi:
            edges.add(a)
    return np.array(sorted(edges))


def test_graded_edges_are_the_set_loop_bit_for_bit():
    # anchors inside and outside the interval, on its ends, repeated and on
    # a dyadic lattice (so ladders of different anchors share edges), under
    # power-of-two and general finest steps
    rng = np.random.default_rng(2024)
    for rel in (2.0 ** -48, 2.0 ** -40, 2.0 ** -20, np.nextafter(2.0 ** -20, 0.0), 3.1e-7):
        for _ in range(60):
            lo = float(rng.uniform(-5.0, 1.0))
            hi = lo + float(rng.uniform(1e-3, 8.0))
            anchors = list(rng.uniform(lo - 3.0, hi + 3.0, rng.integers(1, 42)))
            anchors += [lo, hi, anchors[0], round(anchors[-1] * 8) / 8, 0.0]
            got = graded_axis_edges(lo, hi, anchors, rel_finest=rel)
            want = _graded_edges_set_loop(lo, hi, anchors, rel)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", ["midpoint", "gauss"])
def test_graded_meshes_are_the_per_interval_meshes_bit_for_bit(rule):
    # one batch over many intervals sharing anchors, row by row the mesh of
    # graded_axis_edges plus segment_nodes on its own interval, with
    # zero-weight padding past each row's size
    rng = np.random.default_rng(7)
    for rel in (2.0 ** -20, 3.1e-7):
        lo = rng.uniform(-5.0, 1.0, 40)
        hi = lo + rng.uniform(1e-3, 8.0, 40)
        anchors = [0.0, 0.125, float(rng.uniform(-2.0, 2.0)), float(hi[3])]
        nodes, weights, sizes = graded_meshes(lo, hi, anchors, 3, rule, rel)
        assert nodes.shape == weights.shape == (40, sizes.max())
        assert np.unique(sizes).size > 1
        for a, b, u, du, m in zip(lo, hi, nodes, weights, sizes):
            want = segment_nodes(graded_axis_edges(a, b, anchors, rel), 3, rule)
            assert u[:m].tobytes() == want[0].tobytes()
            assert du[:m].tobytes() == want[1].tobytes()
            assert np.all(du[m:] == 0.0)


@pytest.mark.parametrize("rule", ["midpoint", "gauss"])
def test_graded_meshes_take_per_row_anchors_bit_for_bit(rule):
    # an (n, k) anchor array gives row i the mesh of its own k anchors, bit
    # for bit, also where an anchor lies outside its row's interval; a
    # table with another row count is refused
    rng = np.random.default_rng(11)
    for rel in (2.0 ** -20, 3.1e-7):
        lo = rng.uniform(-5.0, 1.0, 30)
        hi = lo + rng.uniform(1e-3, 8.0, 30)
        anchors = np.column_stack((
            np.zeros(30), lo + 0.3 * (hi - lo), hi + rng.uniform(0.1, 4.0, 30),
            lo - rng.uniform(0.1, 4.0, 30)))
        nodes, weights, sizes = graded_meshes(lo, hi, anchors, 3, rule, rel)
        assert np.unique(sizes).size > 1
        for a, b, row, u, du, m in zip(lo, hi, anchors, nodes, weights, sizes):
            want = segment_nodes(graded_axis_edges(a, b, list(row), rel), 3,
                                 rule)
            assert u[:m].tobytes() == want[0].tobytes()
            assert du[:m].tobytes() == want[1].tobytes()
            assert np.all(du[m:] == 0.0)
    with pytest.raises(ValueError, match="one row per interval"):
        graded_meshes(lo, hi, anchors[:-1], 3, rule)


# ---------------------------------------------------------------------------
# StepFunction
# ---------------------------------------------------------------------------


def test_step_function_evaluation_inside_and_outside():
    f = StepFunction(level=1, lo=(0,), values=np.array([1.0, 2.0]), tail=-3.0)
    assert f(0.25) == 1.0
    assert f(0.75) == 2.0
    assert f(1.5) == -3.0
    assert f(-0.1) == -3.0
    out = f(np.array([0.1, 0.6, 5.0]))
    assert out.tolist() == [1.0, 2.0, -3.0]


def test_step_function_rejects_empty_support():
    with pytest.raises(ValueError, match="empty support"):
        StepFunction(level=0, lo=(0,), values=np.zeros((0,)))


def test_addition_aligns_levels_and_boxes_exactly():
    f = StepFunction(level=0, lo=(0,), values=np.array([1.0]))
    g = StepFunction(level=2, lo=(2,), values=np.array([10.0, 20.0]))
    h = f + g
    assert h.level == 2
    assert h(0.1) == 1.0
    assert h(0.55) == 11.0
    assert h(0.8) == 21.0
    assert h(2.0) == 0.0


def test_tail_arithmetic():
    one = StepFunction(level=0, lo=(0,), values=np.ones(1), tail=1.0)
    f = StepFunction(level=0, lo=(0,), values=np.array([5.0]))
    g = f - one  # 4 on [0,1), -1 outside
    assert g(0.5) == 4.0
    assert g(17.0) == -1.0
    assert g.tail == -1.0


def test_integral_and_inner_product():
    f = StepFunction(level=1, lo=(0,), values=np.array([2.0, -2.0]))
    assert f.integral() == 0.0
    assert f.l2_norm_sq() == pytest.approx(4.0)
    g = StepFunction(level=0, lo=(0,), values=np.array([3.0]))
    assert f.inner(g) == pytest.approx(0.0)


def test_inner_with_two_tails_is_rejected():
    a = StepFunction(level=0, lo=(0,), values=np.ones(1), tail=1.0)
    b = StepFunction(level=0, lo=(0,), values=np.full(1, 2.0), tail=2.0)
    with pytest.raises(ValueError):
        a.inner(b)
    # but one tail is fine: the product vanishes far away
    c = StepFunction(level=0, lo=(0,), values=np.array([4.0]))
    assert a.inner(c) == pytest.approx(4.0)


def test_refinement_preserves_pointwise_values():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((4, 4))
    f = StepFunction(level=2, lo=(-2, 1), values=vals, tail=0.5)
    g = f.refined(5)
    pts = rng.uniform(-1.5, 2.5, size=(40, 2))
    assert np.array_equal(f(pts[:, 0], pts[:, 1]), g(pts[:, 0], pts[:, 1]))


def test_integral_is_refinement_invariant_exactly():
    f = StepFunction(level=0, lo=(0,), values=np.array([0.1, 0.3, -0.7]))
    assert f.refined(6).integral() == f.integral()


def test_two_dimensional_inner_matches_hand_sum():
    f = StepFunction(level=1, lo=(0, 0), values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert f.l2_norm_sq() == pytest.approx((1 + 4 + 9 + 16) / 4.0)


def test_quadrature_agrees_with_exact_step_integral():
    # the midpoint rule is exact on step functions when lattice edges are anchors
    f = StepFunction(level=2, lo=(1,), values=np.array([1.0, -2.0, 0.5]))
    spec = QuadratureSpec()
    lo, hi = f.box[0]
    edge_anchors = [lo + k * f.cell_side for k in range(4)]
    x, w = axis_rule(lo, hi, spec, anchors=edge_anchors)
    assert float(w @ f(x)) == pytest.approx(f.integral(), abs=1e-15)
