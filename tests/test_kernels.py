"""Kernel families: closed forms, condition samplers, negative controls."""

import decimal
import math

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


def blocks(p, n=1):
    """The two coordinate blocks, first n coordinates and the rest, of
    stacked points p: the form ``Kernel.evaluate`` takes."""
    p = np.asarray(p, dtype=float)
    return p[..., :n], p[..., n:]


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
        wide = factor.cell_integral(t, 0.0, (-1e12 * t, 1e12 * t))[0]
        assert abs(wide) <= 2.1e-6
        # quadrature cross-check of the closed form on a finite window
        numeric = quad_profile(factor, t, 50.0 * t)
        closed = float(factor.cell_integral(t, 0.0, (-50.0 * t, 50.0 * t))[0])
        assert numeric == pytest.approx(closed, abs=1e-8)


def test_antiderivative_matches_quadrature():
    for flavor in ("size", "cancellative"):
        factor = ConvolutionFactor(1, 0.5, flavor)
        for t, lo, hi in ((1.0, -1.0, 3.0), (0.5, 0.2, 0.9), (2.0, -4.0, -0.5)):
            nodes, weights = segment_nodes(
                graded_axis_edges(lo, hi, anchors=(0.0,)), 6, "gauss"
            )
            numeric = float(np.sum(factor.profile(t, np.abs(nodes)) * weights))
            assert factor.cell_integral(t, 0.0, (lo, hi))[0] == pytest.approx(
                numeric, abs=1e-10
            )


def test_cell_integral_is_window_integral():
    # the cell [0, 1] seen from x is the window [x - 1, x] seen from 0
    factor = ConvolutionFactor(1, 0.5, "cancellative")
    x = np.array([-0.3, 0.1, 0.9, 4.0])
    got = factor.cell_integral(0.7, x, (0.0, 1.0))[:, 0]
    want = [factor.cell_integral(0.7, 0.0, (xi - 1.0, xi - 0.0))[0]
            for xi in x]
    assert np.allclose(got, want, rtol=4e-16, atol=0)


def per_cell_integral(factor, t, x, lo, hi):
    """The cell [lo, hi] seen from x as the difference of the odd
    antiderivative at its two ends, one cell at a time."""
    def odd(s):
        return np.sign(s) * factor.antiderivative(t, np.abs(s))

    x = np.asarray(x, dtype=float)
    return odd(x - lo) - odd(x - hi)


@pytest.mark.parametrize("flavor", ["size", "cancellative"])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_cell_integral_is_the_per_cell_difference_bit_for_bit(flavor, scale):
    # the shared-end form evaluates each edge once, on the same x - edge
    # floats as the per-cell form, so each cell must come out bit for bit;
    # the points include edges, and one cell is empty
    factor = ConvolutionFactor(1, 0.7, flavor, scale=scale)
    edges = np.array([-1.5, -0.25, 0.0, 0.0, 0.625, 3.0])
    points = (0.3, -0.25, np.array([-2.0, -1.5, 0.0, 0.1, 3.0, 7.5]),
              np.linspace(-3.0, 4.0, 12).reshape(3, 4))
    for x in points:
        for t in (0.05, 1.3):
            got = factor.cell_integral(t, x, edges)
            assert got.shape == np.shape(x) + (edges.size - 1,)
            for i in range(edges.size - 1):
                want = per_cell_integral(factor, t, x, edges[i], edges[i + 1])
                assert np.array_equal(got[..., i].view(np.int64),
                                      np.asarray(want).view(np.int64))


@pytest.mark.parametrize("flavor", ["size", "cancellative"])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_antiderivative_is_its_closed_form_bit_for_bit(flavor, scale):
    # the in-place evaluation must round exactly as the formula does
    factor = ConvolutionFactor(1, 0.7, flavor, scale=scale)
    s = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 301)])
    for t in (0.05, 1.3):
        q = t / (t + s)
        if flavor == "size":
            want = scale * (1.0 - q**0.7) / 0.7
        else:
            want = s / (t + s) * q**0.7 * -scale
        assert np.array_equal(factor.antiderivative(t, s).view(np.int64),
                              want.view(np.int64))


def decimal_antiderivative(t, a, s):
    """The cancellative antiderivative sign(s) (q^(1+a) - q^a), q = t/(t +
    |s|), in 40-digit decimal arithmetic on the exact binary inputs."""
    with decimal.localcontext(decimal.Context(prec=40)):
        t, a, s = decimal.Decimal(t), decimal.Decimal(a), decimal.Decimal(s)
        q = t / (t + abs(s))
        return float((q ** (1 + a) - q ** a) * (1 if s > 0 else -1))


@pytest.mark.parametrize("a", [0.5, 0.7])
def test_cancellative_antiderivative_has_no_cancellation(a):
    # q^(1+a) - q^a cancels as s -> 0 (q -> 1) and loses digits in
    # proportion to t / |s|; q^a (q - 1) with q - 1 = -|s|/(t+|s|) rounds a
    # few times at every s
    factor = ConvolutionFactor(1, a, "cancellative")
    s = np.geomspace(1e-12, 1e9, 211)
    s = np.concatenate([-s[::-1], s])
    for t in (0.05, 1.3):
        want = np.array([decimal_antiderivative(t, a, x) for x in s])
        rel = np.abs(factor.antiderivative(t, s) - want) / np.abs(want)
        assert rel.max() <= 1e-15


@pytest.mark.parametrize("flavor", ["size", "cancellative"])
def test_antiderivative_is_odd_and_writes_where_it_is_told(flavor):
    # the integral over [0, s] for s of either sign (exactly odd, up to the
    # sign of zero), the same bits whether it allocates its result or
    # writes into given buffers
    factor = ConvolutionFactor(1, 0.7, flavor, scale=2.5)
    s = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 301)])
    for t in (0.05, 1.3):
        pos = factor.antiderivative(t, s)
        assert np.array_equal(-factor.antiderivative(t, -s), pos)
        out, scratch = np.empty(s.size), np.empty(s.size)
        got = factor.antiderivative_into(t, s, out, scratch)
        assert got is out
        assert np.array_equal(got.view(np.int64), pos.view(np.int64))


@pytest.mark.parametrize("flavor", ["size", "cancellative"])
@pytest.mark.parametrize("dim", [1, 2])
def test_scalar_and_array_inputs_give_the_same_bits(flavor, dim):
    # numpy's scalar power rounds apart from its array loop on some inputs;
    # a value must not depend on whether it was computed alone
    factor = ConvolutionFactor(dim, 0.7, flavor)
    s = np.random.default_rng(5).uniform(0.0, 10.0, 2000)
    routes = [factor.profile] + ([factor.antiderivative] if dim == 1 else [])
    for route in routes:
        whole = route(0.05, s)
        alone = np.array([route(0.05, float(x)) for x in s])
        assert np.array_equal(whole.view(np.int64), alone.view(np.int64))
        assert isinstance(route(0.05, 1.5), np.float64)


def test_cell_integral_refuses_decreasing_edges_before_any_work(monkeypatch):
    # only the edges are checked: the points may lie anywhere
    factor = ConvolutionFactor(1, 0.5)

    def unreached(self, t, s):
        raise AssertionError("antiderivative evaluated for refused edges")

    monkeypatch.setattr(ConvolutionFactor, "antiderivative", unreached)
    for edges in ((2.0, 1.0), (0.0, 1.0, 0.5), [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="nondecreasing"):
            factor.cell_integral(1.0, np.array([5.0, -5.0]), edges)


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


def two_power_profile(factor, t, s):
    """The profile in its earlier two-power form, as the one-power oracle."""
    a, d = factor.exponent, factor.dim
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if factor.flavor == "size":
        return factor.scale * t**a * (t + s) ** (-(d + a))
    return factor.scale * (
        a * t**a * (t + s) ** (-(d + a))
        - (d + a) * t ** (1 + a) * (t + s) ** (-(d + a + 1))
    )


@pytest.mark.parametrize("flavor", ["size", "cancellative"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 3.7])
@pytest.mark.parametrize("a", [0.5, 1.3])
def test_one_power_profile_matches_the_two_power_formula(flavor, dim, scale, a):
    factor = ConvolutionFactor(dim, a, flavor, scale=scale)
    rng = np.random.default_rng((dim, int(10 * a)))
    # separations as multiples of t: zero, the extremes, the zero crossing
    # q = a / (d + a) of the cancellative flavor, and random ones
    ratios = np.concatenate([[0.0, 1e-12, dim / a, 1e6],
                             10.0 ** rng.uniform(-8.0, 6.0, 60)])
    for t in (0.37, 2.0 ** rng.uniform(-12.0, 4.0, (40, 1))):
        s = ratios * t
        got = factor.profile(t, s)
        want = two_power_profile(factor, t, s)
        majorant = scale * t**a * (t + s) ** (-(dim + a))
        assert got.shape == np.broadcast_shapes(np.shape(t), s.shape)
        assert np.all(np.abs(got - want) <= 1e-14 * majorant)


FACTORS = [ConvolutionFactor(1, 0.5, "size"),
           ConvolutionFactor(1, 0.5, "cancellative"),
           ConvolutionFactor(2, 0.5, "cancellative", scale=3.7)]


def frozen(*arrays):
    """Read-only copies of the arrays."""
    out = []
    for arr in arrays:
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
        out.append(arr)
    return out


@pytest.mark.parametrize("factor", FACTORS, ids=lambda f: f.label)
def test_factor_evaluation_leaves_its_inputs_alone(factor):
    # profile and value work in place, but only on arrays they made
    rng = np.random.default_rng(17)
    t = 2.0 ** rng.uniform(-4.0, 2.0, (5, 1))
    s = rng.uniform(0.0, 3.0, (5, 7))
    t_ro, s_ro = frozen(t, s)
    got = factor.profile(t_ro, s_ro)
    assert np.array_equal(got, factor.profile(t.copy(), s.copy()))
    assert np.array_equal(t_ro, t) and np.array_equal(s_ro, s)

    x = rng.normal(size=(5, 7, factor.dim))
    y = rng.normal(size=(1, 7, factor.dim))
    x_ro, y_ro = frozen(x, y)
    got = factor.value(t_ro, x_ro, y_ro)
    assert got.shape == (5, 7)
    assert np.array_equal(got, factor.value(t.copy(), x.copy(), y.copy()))
    assert np.array_equal(x_ro, x) and np.array_equal(y_ro, y)

    # 0-d inputs still give a float-convertible value of shape ()
    want = factor.profile(np.array(0.4), np.array(0.25))
    assert np.shape(want) == ()
    for val in (factor.value(0.4, np.float64(0.5), 0.25),
                factor.value(0.4, np.full(factor.dim, 0.5),
                             np.full(factor.dim, 0.25))):
        assert np.shape(val) == () and float(val) == float(want)


def test_kernel_evaluation_leaves_its_inputs_alone():
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    rng = np.random.default_rng(23)
    t1, t2 = 2.0 ** rng.uniform(-4.0, 2.0, (2, 6, 1))
    x = rng.normal(size=(6, 1, 2))
    y = rng.normal(size=(1, 9, 2))
    args = (t1, t2, *blocks(x), *blocks(y))
    ft1, ft2, *fb = frozen(*args)
    got = kernel.evaluate(ft1, ft2, fb[:2], fb[2:])
    assert got.shape == (6, 9)
    assert np.array_equal(got, kernel.evaluate(t1.copy(), t2.copy(),
                                               blocks(x.copy()),
                                               blocks(y.copy())))
    assert all(np.array_equal(a, b) for a, b in zip((ft1, ft2, *fb), args))
    # a scale array wider than the first factor's values still broadcasts
    wide = kernel.evaluate(0.3, t2[:, :, None], blocks(x[0, 0]), blocks(y))
    assert wide.shape == (6, 1, 9)
    val = kernel.evaluate(0.3, 0.5, blocks(x[0, 0]), blocks(y[0, 0]))
    assert np.shape(val) == () and math.isfinite(float(val))


def old_tensor_value(f1, f2, t1, t2, x, y):
    """A tensor kernel's value from the two-power profiles."""
    def factor_value(factor, t, u):
        return two_power_profile(factor, t, np.max(np.abs(u), axis=-1))

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (factor_value(f1, t1, x[..., :1] - y[..., :1])
            * factor_value(f2, t2, x[..., 1:] - y[..., 1:]))


def test_rescaled_and_broken_kernels_are_unchanged():
    base = make_cancellative(1, 1, 0.5, 0.5)
    rng = np.random.default_rng(29)
    t1, t2 = 2.0 ** rng.uniform(-4.0, 2.0, (2, 50))
    x, y = rng.normal(size=(2, 50, 2))
    s1, s2 = np.abs(x - y).T
    majorant = (t1**0.5 * (t1 + s1) ** -1.5) * (t2**0.5 * (t2 + s2) ** -1.5)
    f1, f2 = base.tensor_parts
    xb, yb = blocks(x), blocks(y)

    scaled = kernels.rescale(base, 3.7)
    want = old_tensor_value(ConvolutionFactor(1, 0.5, "cancellative",
                                              scale=3.7),
                            f2, t1, t2, x, y)
    got = scaled.evaluate(t1, t2, xb, yb)
    assert np.all(np.abs(got - want) <= 1e-14 * 3.7 * majorant)

    opaque = kernels.rescale(Kernel(base.evaluate, 0.5, 0.5), 3.7)
    assert np.array_equal(opaque.evaluate(t1, t2, xb, yb),
                          3.7 * base.evaluate(t1, t2, xb, yb))

    jumped = make_broken(base, "holder_break")
    assert np.array_equal(jumped.evaluate(t1, t2, xb, yb),
                          base.evaluate(t1, t2, xb, yb)
                          * (1.0 + 0.5 * (y[:, 1] >= 0.0)))
    wrong = make_broken(base, "wrong_alpha")
    assert wrong.evaluate is base.evaluate
    got = make_broken(base, ("holder_break", "wrong_alpha")).evaluate(
        t1, t2, xb, yb)
    want = old_tensor_value(f1, f2, t1, t2, x, y) * (1.0 + 0.5 * (y[:, 1] >= 0.0))
    assert np.all(np.abs(got - want) <= 1.5e-14 * majorant)


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
        ConvolutionFactor(1, 0.5).cell_integral(1.0, 0.0, (2.0, 1.0))
    with pytest.raises(ValueError, match="last axis has length 2"):
        ConvolutionFactor(2, 0.5).value(1.0, np.zeros((4, 3)), 0.0)


def test_kernel_refuses_stacked_points():
    # stacked (N, n + m) points passed whole would read as two points, not
    # two coordinate blocks; refused, not evaluated into a wrong scalar
    kernel = make_size_only(1, 1, 0.5, 0.5)
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    with pytest.raises(ValueError, match="last axis has length 1"):
        kernel.evaluate(1.0, 1.0, x, np.zeros((3, 2)))
    values = kernel.evaluate(1.0, 1.0, blocks(x), blocks(np.zeros((3, 2))))
    assert values.shape == (3,)


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
        assert kernel.evaluate(t1, t2, blocks(x), blocks(y)) == pytest.approx(
            float(product), abs=1e-12
        )


def test_size_only_on_diagonal_and_translation():
    kernel = make_size_only(1, 1, 0.5, 0.5)
    x = np.array([0.3, -1.2])
    assert kernel.evaluate(0.5, 2.0, blocks(x), blocks(x)) == pytest.approx(
        0.5**-1 * 2.0**-1, rel=1e-12
    )
    y = np.array([1.0, 0.25])
    v = np.array([0.625, -2.5])  # dyadic shift keeps the differences exact
    assert kernel.evaluate(1.0, 1.0, blocks(x + v), blocks(y + v)) == \
        kernel.evaluate(1.0, 1.0, blocks(x), blocks(y))


def test_cancellative_kills_constants():
    kernel = make_cancellative(1, 1, 0.5, 0.5)
    window = 1e12
    z1 = kernel.tensor_parts[0].cell_integral(1.0, 0.0, (-window, window))[0]
    z2 = kernel.tensor_parts[1].cell_integral(0.5, 0.0, (-window, window))[0]
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
    (make_cancellative, (1.0, 3.5726452749286004, 1.8900577258253817)),
    (make_size_only, (1.0000000000000004, 1.3998568066180286, 1.1831554448245711)),
    (make_mixed, (1.0000000000000002, 2.236334457486299, 1.8901442471220553)),
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
        base = np.asarray(t1, dtype=float) * 0.0
        return np.where(x[0][..., 0] == 0.0, np.nan, 1.0) + base

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
