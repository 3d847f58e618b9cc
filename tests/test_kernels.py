"""Kernel families: closed forms, condition samplers, negative controls."""

import numpy as np
import pytest

from glstar import kernels
from glstar.core import default_params, graded_axis_edges, segment_nodes
from glstar.dyadic import trial_stream
from glstar.kernels import (
    AssumptionReport,
    ConvolutionFactor,
    Kernel,
    check_holder,
    check_mixed,
    check_size,
    make_broken,
    make_cancellative,
    make_mixed,
    make_size_only,
)

PARAMS = default_params()


def quad_profile(factor, t, radius):
    """Independent quadrature of the radial profile over [-radius, radius]."""
    edges = graded_axis_edges(-radius, radius, anchors=(0.0,), rel_finest=2.0**-40)
    nodes, weights = segment_nodes(edges, 10, "gauss")
    return float(np.sum(factor.profile(t, np.abs(nodes)) * weights))


# ---------------------------------------------------------------------------
# factor closed forms


def test_size_factor_mass_matches_quadrature():
    factor = ConvolutionFactor(1, 0.5, "size")
    assert factor.mass(0.3) == pytest.approx(4.0, rel=1e-12)  # 2 / exponent
    for t in (0.25, 1.0, 7.0):
        radius = 100.0 * t
        numeric = quad_profile(factor, t, radius)
        tail = 2.0 * (t / (t + radius)) ** 0.5 / 0.5  # exact complement of A
        assert numeric + tail == pytest.approx(4.0, abs=1e-9)


def test_size_factor_mass_general_dimension():
    # dim 2, exponent 1: mass = 2*4*Gamma(2)Gamma(1)/Gamma(3) = 4
    assert ConvolutionFactor(2, 1.0, "size").mass(1.0) == pytest.approx(4.0)


def test_cancellative_factor_integrates_to_zero():
    factor = ConvolutionFactor(1, 0.5, "cancellative")
    assert factor.mass(0.9) == 0.0
    for t in (0.125, 1.0, 5.0):
        # closed-form window integral vanishes like 2 (t/R)^a as R grows
        assert abs(factor.segment_integral(t, -1e12 * t, 1e12 * t)) <= 2.1e-6
        # quadrature cross-check of the closed form on a finite window
        numeric = quad_profile(factor, t, 50.0 * t)
        closed = float(factor.segment_integral(t, -50.0 * t, 50.0 * t))
        assert numeric == pytest.approx(closed, abs=1e-8)


def test_antiderivative_matches_quadrature():
    for flavor in ("size", "cancellative"):
        factor = ConvolutionFactor(1, 0.5, flavor)
        for t, lo, hi in ((1.0, -1.0, 3.0), (0.5, 0.2, 0.9), (2.0, -4.0, -0.5)):
            nodes, weights = segment_nodes(
                graded_axis_edges(lo, hi, anchors=(0.0,)), 6, "gauss"
            )
            numeric = float(np.sum(factor.profile(t, np.abs(nodes)) * weights))
            assert factor.segment_integral(t, lo, hi) == pytest.approx(
                numeric, abs=1e-10
            )


def test_cell_integral_is_window_integral():
    factor = ConvolutionFactor(1, 0.5, "cancellative")
    x = np.array([-0.3, 0.1, 0.9, 4.0])
    got = factor.cell_integral(0.7, x, 0.0, 1.0)
    want = [factor.segment_integral(0.7, xi - 1.0, xi - 0.0) for xi in x]
    assert np.allclose(got, want, rtol=4e-16, atol=0)


def test_cancellative_profile_termwise_domination():
    factor = ConvolutionFactor(1, 0.5, "cancellative")
    s = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 200)])
    for t in (0.1, 1.0, 10.0):
        bound = 2.0 * t**0.5 * (t + s) ** -1.5
        assert np.all(np.abs(factor.profile(t, s)) <= bound * (1 + 1e-12))


def test_cancellative_size_ratio_peaks_at_origin():
    factor = ConvolutionFactor(1, 0.5, "cancellative")
    s = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 500)])
    ratio = np.abs(factor.profile(1.0, s)) * (1.0 + s) ** 1.5
    assert ratio.max() == pytest.approx(1.0, abs=1e-12)
    assert ratio[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("flavor", ["size", "cancellative"])
def test_one_dim_value_is_the_sup_norm_profile_bit_for_bit(flavor):
    # value reads |u[..., 0]| for dim 1; the sup norm over the size-1 axis
    # is the same element, so the two formulas must agree exactly
    factor = ConvolutionFactor(1, 0.5, flavor)
    rng = np.random.default_rng(11)
    t = 0.7
    x, y = rng.normal(size=2)
    assert factor.value(t, x, y) == factor.profile(t, abs(x - y))
    for shape in ((9, 1), (4, 6, 1)):
        x, y = rng.normal(size=shape), rng.normal(size=shape)
        sup = np.max(np.abs(x - y), axis=-1)
        got = factor.value(t, x, y)
        assert got.shape == shape[:-1]
        assert np.array_equal(got, factor.profile(t, sup))


def test_factor_validation():
    with pytest.raises(ValueError):
        ConvolutionFactor(0, 0.5)
    with pytest.raises(ValueError):
        ConvolutionFactor(1, -1.0)
    with pytest.raises(ValueError):
        ConvolutionFactor(1, 0.5, "wavelet")
    with pytest.raises(NotImplementedError):
        ConvolutionFactor(2, 0.5).antiderivative(1.0, 1.0)
    with pytest.raises(ValueError):
        ConvolutionFactor(1, 0.5).segment_integral(1.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# kernel builders


def test_tensor_product_invariant():
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    rng = np.random.default_rng(7)
    for _ in range(50):
        t1, t2 = rng.uniform(0.1, 4.0, 2)
        x = rng.uniform(-3.0, 3.0, 2)
        y = rng.uniform(-3.0, 3.0, 2)
        parts = kernel.tensor_parts
        product = parts[0].value(t1, x[:1], y[:1]) * parts[1].value(t2, x[1:], y[1:])
        assert kernel.evaluate(t1, t2, x, y) == pytest.approx(
            float(product), abs=1e-12
        )


def test_size_only_on_diagonal_and_translation():
    kernel = make_size_only(1, 1, 0.5, 0.5)
    x = np.array([0.3, -1.2])
    assert kernel.evaluate(0.5, 2.0, x, x) == pytest.approx(
        0.5**-1 * 2.0**-1, rel=1e-12
    )
    y = np.array([1.0, 0.25])
    v = np.array([0.625, -2.5])  # dyadic shift keeps the differences exact
    assert kernel.evaluate(1.0, 1.0, x + v, y + v) == kernel.evaluate(1.0, 1.0, x, y)


def test_cancellative_kills_constants():
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    window = 1e12
    z1 = kernel.tensor_parts[0].segment_integral(1.0, -window, window)
    z2 = kernel.tensor_parts[1].segment_integral(0.5, -window, window)
    assert abs(float(z1) * float(z2)) <= 1e-11


def test_builders_share_the_label_format_and_pick_their_flavors():
    # labels name the family in reports, so their form is part of the output
    families = {make_size_only: ("size_only", "size", "size"),
                make_cancellative: ("cancellative", "cancellative", "cancellative"),
                make_mixed: ("mixed", "cancellative", "size")}
    for build, (kind, flavor1, flavor2) in families.items():
        kernel = build(1, 1, 0.5, 0.25)
        assert kernel.label == f"{kind}(n=1,m=1,a=0.5,b=0.25)"
        f1, f2 = kernel.tensor_parts
        assert (f1.flavor, f2.flavor) == (flavor1, flavor2)
        assert (f1.exponent, f2.exponent) == (0.5, 0.25)


def test_make_broken_empty_is_identity():
    base = make_size_only(1, 1, 0.5, 0.5)
    assert make_broken(base, ()) is base
    with pytest.raises(ValueError):
        make_broken(base, "leaky")


# ---------------------------------------------------------------------------
# pointwise checkers


def test_size_only_saturates_its_own_majorant():
    report = check_size(make_size_only(1, 1, 0.5, 0.5), PARAMS, cap=4.0)
    assert report.passed
    assert report.estimate <= 1.0 + 1e-9
    assert report.estimate >= 0.999


def test_cancellative_passes_all_three_checks():
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    for check in (check_size, check_holder, check_mixed):
        report = check(kernel, PARAMS, cap=4.0)
        assert report.passed, report.summary()
        assert report.estimate <= 4.0
    assert check_size(kernel, PARAMS, cap=4.0).estimate >= 0.9
    assert check_holder(kernel, PARAMS, cap=4.0).estimate >= 2.5


def test_holder_joint_estimate_factors_for_tensor_kernels():
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    joint = check_holder(kernel, PARAMS, cap=4.0).estimate

    def factor_sup(factor):
        # scale-invariant, so t = 1; gaps capped at t/2 like the condition
        u = np.concatenate([-np.geomspace(1e-6, 200, 2000), [0.0],
                            np.geomspace(1e-6, 200, 2000)])
        g = np.geomspace(1e-8, 0.49995, 1200)
        uu, gg = np.meshgrid(u, g, indexing="ij")
        num = np.abs(factor.profile(1.0, np.abs(uu)) - factor.profile(1.0, np.abs(uu + gg)))
        return float((num * (1.0 + np.abs(uu)) ** 1.5 / gg**0.5).max())

    product = factor_sup(kernel.tensor_parts[0]) * factor_sup(kernel.tensor_parts[1])
    # both sides approximate the same supremum on different grids
    assert joint == pytest.approx(product, rel=0.03)


def test_checkers_require_enough_samples():
    kernel = make_size_only(1, 1, 0.5, 0.5)
    for check in (check_size, check_holder, check_mixed):
        with pytest.raises(ValueError):
            check(kernel, PARAMS, samples=100)


@pytest.mark.parametrize("build, want", [
    (make_cancellative, (1.0, 3.5726452749285995, 1.8900577258253817)),
    (make_size_only, (1.0000000000000004, 1.3998568066180301, 1.1831554448245718)),
    (make_mixed, (1.0000000000000002, 2.2363344574862998, 1.8901442471220553)),
])
def test_checker_estimates_are_pinned(build, want):
    # the suprema sit in the deterministic strata, so these are exact
    kernel = build(1, 1, 0.5, 0.5)
    got = tuple(check(kernel, PARAMS).estimate
                for check in (check_size, check_holder, check_mixed))
    assert got == want


def test_each_checker_draws_from_one_stream(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return trial_stream(*args)

    monkeypatch.setattr(kernels, "trial_stream", counted)
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    for check, seed in ((check_size, 1), (check_holder, 2), (check_mixed, 3)):
        calls.clear()
        check(kernel, PARAMS)
        assert calls == [(seed,)]


def test_checkers_refuse_a_kernel_that_does_not_broadcast():
    def evaluate(t1, t2, x, y):
        return 1.0

    kernel = Kernel(evaluate, 0.5, 0.5, 1, 1)
    for check in (check_size, check_holder, check_mixed):
        with pytest.raises(ValueError, match="broadcast"):
            check(kernel, PARAMS)


def test_unit_linf_rows_and_the_zero_draw():
    rows = kernels._unit_linf(np.random.default_rng(5), 64, 3)
    assert np.all(np.max(np.abs(rows), axis=1) == 1.0)

    class Zeros:
        def uniform(self, low, high, size):
            return np.zeros(size)

    assert kernels._unit_linf(Zeros(), 2, 3).tolist() == [[1.0, 0.0, 0.0]] * 2


def test_non_finite_kernel_is_an_error():
    def evaluate(t1, t2, x, y):
        x = np.asarray(x, dtype=float)
        base = np.asarray(t1, dtype=float) * 0.0
        return np.where(x[..., 0] == 0.0, np.nan, 1.0) + base

    kernel = Kernel(evaluate, 0.5, 0.5, 1, 1)
    with pytest.raises(FloatingPointError, match="non-finite"):
        check_size(kernel, PARAMS)


def test_wrong_alpha_fails_size_and_diverges_with_radius():
    broken = make_broken(make_size_only(1, 1, 0.5, 0.5), "wrong_alpha")
    assert broken.alpha == pytest.approx(0.75)
    near = check_size(broken, PARAMS, cap=8.0, max_radius=256.0)
    far = check_size(broken, PARAMS, cap=8.0, max_radius=65536.0)
    assert not near.passed
    assert far.estimate > 2.0 * near.estimate


def test_holder_break_fails_smoothness_but_not_size():
    broken = make_broken(make_cancellative(1, 1, 0.5, 0.5), "holder_break")
    assert check_size(broken, PARAMS, cap=8.0).passed
    holder = check_holder(broken, PARAMS, cap=8.0)
    assert not holder.passed
    assert holder.estimate > 50.0


def test_report_invariants():
    with pytest.raises(ValueError):
        AssumptionReport("size", -1.0, 10, {}, 4.0, False)
    with pytest.raises(ValueError):
        AssumptionReport("size", 1.0, 10, {}, 4.0, False)  # should pass
    report = AssumptionReport("size", 5.0, 10, {}, 4.0, False)
    assert "FAIL" in report.summary() and "size" in report.summary()
