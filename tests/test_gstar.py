"""Square-function machinery: closed forms against raw quadrature oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from glstar import gstar
from glstar.core import QuadratureSpec, StepFunction, default_params
from glstar.dyadic import ShiftedGrid
from glstar.gstar import (
    _BLOCK,
    GStarValue,
    _axis_gram,
    _band_nodes,
    _grid_t_range,
    _mesh_theta,
    _position_loss,
    apply_theta,
    gstar_pointwise,
    gstar_sq_norm,
    k_quantity,
    q_quantity,
    weight_total,
)
from glstar.kernels import make_cancellative, make_mixed, make_size_only

PARAMS = default_params()
SIZE = make_size_only(1, 1, 0.5, 0.5)
CANC = make_cancellative(1, 1, 0.5, 0.5)
# same evaluate, but the dispatcher can no longer see the tensor structure:
# everything computed through this goes down the raw-evaluation paths.
OPAQUE = replace(CANC, tensor_parts=None)

# coarse-but-honest resolution used where a raw oracle is in the loop
SP_COARSE = QuadratureSpec(points_per_cell=2, t_points_per_octave=3,
                           t_min=2.0**-6, t_max=2.0**3)


def random_pair(seed, level=2, size=4):
    rng = np.random.default_rng(seed)
    f1 = StepFunction(level=level, lo=(0,), values=rng.normal(size=size))
    f2 = StepFunction(level=level, lo=(-1,), values=rng.normal(size=size))
    return f1, f2


# ---------------------------------------------------------------------------
# weight closed form


def test_weight_total_closed_form():
    # int (t/(t+|y|))^lam dy = 2t/(lam-1), checked against direct quadrature
    for t, lam in ((0.25, 3.0), (1.0, 3.0), (2.0, 4.5)):
        ys = np.linspace(-4000 * t, 4000 * t, 2_000_001)
        dy = ys[1] - ys[0]
        num = float(np.sum((t / (t + np.abs(ys))) ** lam)) * dy
        assert weight_total(t, lam) == pytest.approx(2 * t / (lam - 1), rel=1e-14)
        assert num == pytest.approx(weight_total(t, lam), rel=1e-3)


# ---------------------------------------------------------------------------
# theta


def test_theta_of_one_is_the_mass_product():
    one = StepFunction(level=0, lo=(0, 0), values=np.ones((1, 1)), tail=1.0)
    for t1, t2 in ((0.5, 0.8), (0.05, 3.0), (2.0, 2.0)):
        assert apply_theta(SIZE, one, (0.3, -0.7), t1, t2) == pytest.approx(
            16.0, rel=1e-12)
        assert apply_theta(CANC, one, (0.3, -0.7), t1, t2) == 0.0


def test_theta_is_linear():
    rng = np.random.default_rng(9)
    f = StepFunction(level=2, lo=(-2, 1), values=rng.normal(size=(5, 3)))
    g = StepFunction(level=2, lo=(0, 0), values=rng.normal(size=(4, 4)))
    y, t1, t2 = (0.31, 0.9), 0.45, 0.7
    two_f = StepFunction(level=2, lo=(-2, 1), values=2.0 * f.values)
    assert apply_theta(CANC, two_f, y, t1, t2) == \
        2.0 * apply_theta(CANC, f, y, t1, t2)
    assert apply_theta(CANC, f + g, y, t1, t2) == pytest.approx(
        apply_theta(CANC, f, y, t1, t2) + apply_theta(CANC, g, y, t1, t2),
        rel=1e-12, abs=1e-14)


def test_theta_closed_cells_match_raw_quadrature():
    # identical kernel, but the opaque copy is forced through pointwise
    # evaluation; the closed per-cell antiderivatives must reproduce it
    rng = np.random.default_rng(5)
    f = StepFunction(level=2, lo=(-2, 1), values=rng.normal(size=(5, 3)))
    sp = QuadratureSpec(points_per_cell=8, rule="midpoint")
    closed = apply_theta(CANC, f, (0.31, 0.9), 0.45, 0.7)
    raw = apply_theta(OPAQUE, f, (0.31, 0.9), 0.45, 0.7, sp)
    assert raw == pytest.approx(closed, rel=2e-3)


def meshgrid_theta(kernel, f, t1, t2, pts, z1, w1, z2, w2):
    """The whole-mesh contraction the blocked one replaced: the z-mesh as one
    (N, 2) array and one kv @ fw per chunk of points.  Returns theta and the
    (points, N) kernel values."""
    zg = np.stack(np.meshgrid(z1, z2, indexing="ij"), axis=-1).reshape(-1, 2)
    fw = (f(z1[:, None], z2[None, :]) * np.multiply.outer(w1, w2)).ravel()
    kv = np.asarray(kernel.evaluate(t1, t2, pts[:, None, :], zg[None]))
    step = max(1, int(4e6) // zg.shape[0])
    out = np.concatenate([kv[i:i + step] @ fw
                          for i in range(0, pts.shape[0], step)])
    return out, kv


def recording(kernel):
    """kernel with an evaluate that keeps every call's (x, y, values)."""
    calls = []

    def evaluate(t1, t2, x, y):
        kv = kernel.evaluate(t1, t2, x, y)
        calls.append((x, y, kv))
        return kv

    return replace(kernel, evaluate=evaluate), calls


def assert_blocks_match(calls, pts, z1, z2, kv_full):
    # each block is a point chunk against a z1-row chunk and all of z2; its
    # values must be the matching slice of the whole-mesh values, bit for bit
    covered = 0
    for x, y, kv in calls:
        i = int(np.flatnonzero(np.all(pts == x.reshape(-1, 2)[0], axis=1))[0])
        r = int(np.flatnonzero(z1 == y[0, 0, 0, 0])[0])
        rows, n2 = y.shape[1], y.shape[2]
        assert n2 == z2.size and kv.shape == (x.shape[0], rows, n2)
        assert kv.size <= max(_BLOCK, z2.size)
        ref = kv_full[i:i + x.shape[0], r * n2:(r + rows) * n2]
        assert np.array_equal(kv.reshape(ref.shape), ref)
        covered += kv.size
    assert covered == kv_full.size


@pytest.mark.parametrize("n1, n2, points", [
    (64, 64, 40),      # below a block: point chunks of 16
    (256, 256, 3),     # exactly one block per point
    (257, 256, 2),     # one row past a block: a 256-row chunk and a 1-row one
    (300, 250, 2),     # uneven row chunks of 262 and 38
    (2, 70000, 1),     # z2 alone exceeds a block: one row per block
])
def test_blocked_mesh_theta_matches_the_whole_mesh_contraction(n1, n2, points):
    rng = np.random.default_rng(n1 + n2)
    f = StepFunction(level=2, lo=(-2, 1), values=rng.normal(size=(5, 3)))
    (a1, b1), (a2, b2) = f.box
    z1 = np.sort(rng.uniform(a1 - 0.5, b1 + 0.5, n1))
    z2 = np.sort(rng.uniform(a2 - 0.5, b2 + 0.5, n2))
    w1, w2 = rng.uniform(0.5, 1.5, n1) / n1, rng.uniform(0.5, 1.5, n2) / n2
    pts = rng.uniform(-1.0, 2.0, size=(points, 2))
    kernel, calls = recording(OPAQUE)
    got = _mesh_theta(kernel, f, 0.45, 0.7, pts, z1, w1, z2, w2)
    ref, kv_full = meshgrid_theta(OPAQUE, f, 0.45, 0.7, pts, z1, w1, z2, w2)
    assert_blocks_match(calls, pts, z1, z2, kv_full)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_blocked_mesh_theta_matches_on_a_tail_window(monkeypatch):
    # a constant-tail f takes per-point graded windows; spy on the helper to
    # get the window the point was given and redo it on the whole mesh
    f = StepFunction(level=1, lo=(-1, 0), values=np.array([[1.0, -2.0],
                                                           [0.5, 3.0]]),
                     tail=1.0)
    spec = QuadratureSpec(truncation_eps=1e-4)
    seen = []

    def spy(*args):
        out = _mesh_theta(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(gstar, "_mesh_theta", spy)
    kernel, calls = recording(replace(SIZE, tensor_parts=None))
    val = apply_theta(kernel, f, (0.3, -0.2), 0.4, 0.6, spec)
    (args, out), = seen
    _, _, t1, t2, pts, z1, w1, z2, w2 = args
    assert z1.size * z2.size > _BLOCK  # the window spans several blocks
    ref, kv_full = meshgrid_theta(SIZE, f, t1, t2, pts, z1, w1, z2, w2)
    assert_blocks_match(calls, pts, z1, z2, kv_full)
    assert val == out[0]
    assert val == pytest.approx(ref[0], rel=1e-13, abs=0.0)


def axis_probes(lo, cells, h, extra):
    """Nodes along one axis: every lattice point of the box and two cells
    past it, the floats just inside and just outside each box edge, +-1e300
    (beyond the 2^62 clip of the cell index) and ``extra``."""
    lattice = h * np.arange(lo - 2, lo + cells + 3)
    edges = np.array([lo * h, (lo + cells) * h])
    near = np.concatenate([np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])
    return np.sort(np.concatenate([lattice, near, [-1e300, 1e300], extra]))


def test_padded_lookup_is_the_step_function_exactly():
    rng = np.random.default_rng(3)
    f = StepFunction(level=2, lo=(-3, 1), values=rng.normal(size=(5, 4)),
                     tail=0.75)
    z1 = axis_probes(-3, 5, 0.25, rng.uniform(-2.0, 1.0, 20))
    z2 = axis_probes(1, 4, 0.25, rng.uniform(-0.5, 2.0, 20))
    table, k1, k2 = gstar._padded_lookup(f, z1, z2)
    want = f(z1[:, None], z2[None, :])
    got = table[np.ix_(k1, k2)]
    assert np.array_equal(got, want)
    # the probes reach every cell and the tail on both axes
    assert set(k1) == set(range(6)) and set(k2) == set(range(5))
    for axis, z in ((0, z1), (1, z2)):
        assert np.array_equal(f.cell_index(axis, z)[[0, -1]],
                              [-2 ** 62 - f.lo[axis], 2 ** 62 - f.lo[axis]])


def pointwise_mesh_theta(kernel, f, t1, t2, pts, z1, w1, z2, w2):
    """The block loop that read f through ``f(rows, z2)`` per row chunk."""
    rows = min(z1.size, max(1, _BLOCK // max(1, z2.size)))
    step = max(1, _BLOCK // (rows * z2.size))
    out = np.zeros(pts.shape[0])
    for r in range(0, z1.size, rows):
        zr = z1[r:r + rows]
        zb = np.empty((zr.size, z2.size, 2))
        zb[..., 0] = zr[:, None]
        zb[..., 1] = z2
        fw = (f(zr[:, None], z2[None, :])
              * np.multiply.outer(w1[r:r + rows], w2)).ravel()
        for i in range(0, pts.shape[0], step):
            kv = kernel.evaluate(t1, t2, pts[i:i + step, None, None, :],
                                 zb[None])
            out[i:i + step] += np.asarray(kv, dtype=float).reshape(
                -1, fw.size) @ fw
    return out


@pytest.mark.parametrize("extra, points", [
    (20, 12),     # the whole mesh fits in one block
    (300, 2),     # it does not: row chunks accumulate
])
def test_mesh_theta_reads_f_like_the_pointwise_loop(extra, points):
    rng = np.random.default_rng(extra)
    f = StepFunction(level=2, lo=(-3, 1), values=rng.normal(size=(5, 4)),
                     tail=-0.6)
    z1 = axis_probes(-3, 5, 0.25, rng.uniform(-2.0, 1.0, extra))
    z2 = axis_probes(1, 4, 0.25, rng.uniform(-0.5, 2.0, extra))
    assert (z1.size * z2.size > _BLOCK) == (extra == 300)
    w1, w2 = rng.uniform(0.5, 1.5, z1.size), rng.uniform(0.5, 1.5, z2.size)
    pts = rng.uniform(-1.0, 2.0, size=(points, 2))
    got = _mesh_theta(OPAQUE, f, 0.45, 0.7, pts, z1, w1, z2, w2)
    want = pointwise_mesh_theta(OPAQUE, f, 0.45, 0.7, pts, z1, w1, z2, w2)
    assert np.array_equal(got, want)


def test_theta_rejects_bad_arguments():
    f1, _ = random_pair(0)
    with pytest.raises(ValueError, match="dimension"):
        apply_theta(CANC, f1, (0.0, 0.0), 0.5, 0.5)
    f = StepFunction(level=0, lo=(0, 0), values=np.ones((1, 1)))
    with pytest.raises(ValueError, match="positive"):
        apply_theta(CANC, f, (0.0, 0.0), -1.0, 0.5)


# ---------------------------------------------------------------------------
# pointwise square function


def test_fast_route_matches_raw_axis_oracle():
    f1, f2 = random_pair(3)
    x = (0.37, -0.11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast = gstar_pointwise(CANC, (f1, f2), x, PARAMS, spec=SP_COARSE,
                               route="fast")
        full = gstar_pointwise(CANC, (f1, f2), x, PARAMS, spec=SP_COARSE,
                               route="full")
    assert full.value == pytest.approx(fast.value, rel=1e-3)
    # the oracle shares no theta evaluator or mesh with the fast route
    assert full.value != fast.value
    assert fast.value > 0 and not fast.clamped


def test_joint_raw_route_agrees_on_tensor_products():
    # the two-axis raw accumulation (no tensor shortcuts anywhere) against
    # the factored fast path, on a small scale range to keep meshes sane
    sp = QuadratureSpec(points_per_cell=2, t_points_per_octave=2,
                        t_min=2.0**-3, t_max=2.0**2)
    rng = np.random.default_rng(5)
    f1 = StepFunction(level=1, lo=(0,), values=rng.normal(size=2))
    f2 = StepFunction(level=1, lo=(0,), values=rng.normal(size=2))
    f2d = StepFunction(level=1, lo=(0, 0),
                       values=np.multiply.outer(f1.values, f2.values))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast = gstar_pointwise(CANC, (f1, f2), (0.3, -0.2), PARAMS, spec=sp,
                               route="fast")
        joint = gstar_pointwise(OPAQUE, f2d, (0.3, -0.2), PARAMS, spec=sp,
                                route="full")
    assert joint.value == pytest.approx(fast.value, rel=5e-3)


def test_pointwise_translation_invariance():
    # shifting f by whole cells and the point by the same amount is exact
    f1, f2 = random_pair(3)
    x = (0.37, -0.11)
    s1 = StepFunction(level=2, lo=(8,), values=f1.values)
    s2 = StepFunction(level=2, lo=(-5,), values=f2.values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = gstar_pointwise(CANC, (f1, f2), x, PARAMS, spec=SP_COARSE)
        moved = gstar_pointwise(CANC, (s1, s2), (x[0] + 2.0, x[1] - 1.0),
                                PARAMS, spec=SP_COARSE)
    assert moved.value == pytest.approx(base.value, rel=1e-12)


def test_pointwise_dilation_covariance():
    # f(./2), x -> 2x, scale window doubled: the half-exponent profiles make
    # the squared value exactly invariant
    f1, f2 = random_pair(3)
    d1 = StepFunction(level=1, lo=(0,), values=f1.values)
    d2 = StepFunction(level=1, lo=(-1,), values=f2.values)
    sp2 = QuadratureSpec(points_per_cell=2, t_points_per_octave=3,
                         t_min=2 * SP_COARSE.t_min, t_max=2 * SP_COARSE.t_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = gstar_pointwise(CANC, (f1, f2), (0.37, -0.11), PARAMS,
                               spec=SP_COARSE)
        dil = gstar_pointwise(CANC, (d1, d2), (0.74, -0.22), PARAMS, spec=sp2)
    assert dil.value == pytest.approx(base.value, rel=1e-12)


def test_pointwise_reports_scale_truncation():
    # one truncated scale range gives one warning and an unbounded error on
    # every route: fast, the per-axis raw oracle and the joint raw route (the
    # last at the coarsest rule, which keeps it under a second)
    f1, f2 = random_pair(3)
    tight = QuadratureSpec(t_min=2.0**-4, t_max=2.0**1)
    coarse = replace(tight, points_per_cell=1, t_points_per_octave=1)
    for kernel, route, spec in ((CANC, "fast", tight), (CANC, "full", tight),
                                (OPAQUE, "full", coarse)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = gstar_pointwise(kernel, (f1, f2), (0.3, -0.2), PARAMS,
                                  spec=spec, route=route)
        assert [str(w.message).split(":")[0] for w in caught] == \
            ["scale-range truncation"]
        assert got.error == math.inf


def test_pointwise_route_validation():
    f1, f2 = random_pair(0)
    with pytest.raises(ValueError, match="route"):
        gstar_pointwise(CANC, (f1, f2), (0.0, 0.0), PARAMS, route="sideways")
    f2d = StepFunction(level=1, lo=(0, 0), values=np.ones((2, 2)))
    with pytest.raises(ValueError, match="fast route"):
        gstar_pointwise(CANC, f2d, (0.0, 0.0), PARAMS, route="fast")


def test_gstar_value_rejects_negative():
    with pytest.raises(ValueError):
        GStarValue(point=(0.0, 0.0), value=-1.0, error=0.0,
                   spec=QuadratureSpec())


# ---------------------------------------------------------------------------
# squared norms


def test_norm_routes_agree_on_tensor_pairs():
    f1, f2 = random_pair(11)
    sp = QuadratureSpec(points_per_cell=4, t_points_per_octave=6,
                        t_min=2.0**-7, t_max=2.0**3)
    grids = (ShiftedGrid.standard(1, -3, 6), ShiftedGrid.standard(1, -3, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        by_route = {r: gstar_sq_norm(CANC, (f1, f2), PARAMS, grids, spec=sp,
                                     route=r)
                    for r in ("gram", "whitney", "direct")}
    gram = by_route["gram"]
    assert gram > 0
    assert by_route["whitney"] == pytest.approx(gram, rel=2e-2)
    assert by_route["direct"] == pytest.approx(gram, rel=2e-2)


def test_gram_route_matches_general_assembly():
    # a genuinely non-product f: the lattice collapse against the raw
    # two-parameter assembly (slow, so the configuration is tiny)
    rng = np.random.default_rng(7)
    f = StepFunction(level=1, lo=(0, 0), values=rng.normal(size=(2, 2)))
    sp = QuadratureSpec(points_per_cell=2, t_points_per_octave=2,
                        t_min=2.0**-4, t_max=2.0**2)
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast = gstar_sq_norm(CANC, f, PARAMS, grids, spec=sp, route="gram")
        raw = gstar_sq_norm(CANC, f, PARAMS, grids, spec=sp, route="direct")
    assert raw == pytest.approx(fast, rel=5e-2)


def test_whitney_band_nodes_sit_on_the_band_level():
    # a band (lo, hi] within (side/2, side] takes the cubes of that side,
    # also the end band of a range off a power of two: (2, 2.4] is covered
    # by the side-4 cubes, not by the side-2 ones that rounding -log2(hi)
    # would pick.  One midpoint node per cube, so each weight is the side.
    grid = ShiftedGrid.standard(1, -3, 6)
    nodes = _band_nodes((0.0, 0.5), QuadratureSpec(points_per_cell=1), grid,
                        2.4, 2.0**-16)
    for lo, hi, side in ((2.0, 2.4, 4.0), (2.0, 4.0, 4.0), (0.3, 0.5, 0.5),
                         (2.0**-7, 2.0**-6, 2.0**-6), (5.0, 8.0, 8.0)):
        xs, xw = nodes(lo, hi)
        assert np.all(xw == side)
        assert np.all(np.diff(xs) == side)


def test_joint_whitney_route_agrees_with_the_per_axis_route():
    # the two layers contract the same Whitney cubes, also on the end band
    # (2, 2.4] of a range off a power of two
    rng = np.random.default_rng(7)
    f1 = StepFunction(level=1, lo=(0,), values=rng.normal(size=2))
    f2 = StepFunction(level=1, lo=(0,), values=rng.normal(size=2))
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    sp = QuadratureSpec(points_per_cell=2, t_points_per_octave=1,
                        t_min=2.0**-2, t_max=2.4)
    joint = gstar_sq_norm(OPAQUE, (f1, f2), PARAMS, grids, spec=sp)
    per_axis = gstar_sq_norm(CANC, (f1, f2), PARAMS, grids, spec=sp)
    assert joint == pytest.approx(per_axis, rel=2e-3)


# lambda = 1.2 is outside the theorem region: its weight tail is so heavy
# that the position window leaves out most of the weight mass
with pytest.warns(UserWarning, match="theorem region"):
    HEAVY = default_params(lambda1=1.2, lambda2=1.2, theorem_mode=False)
TOP = 8.0  # top scale of the standard (-3, 6) grids' strip


def test_position_loss_is_the_weight_mass_beyond_the_window():
    sp = QuadratureSpec()
    assert _position_loss((0.0, 1.0), TOP, 1.2, sp) == pytest.approx(0.5627,
                                                                      abs=1e-4)
    assert _position_loss((0.0, 1.0), TOP, 3.0, sp) == pytest.approx(0.00318,
                                                                     abs=1e-5)


@pytest.mark.parametrize("route", ["whitney", "direct"])
def test_norm_warns_when_the_window_truncates_the_weight(route):
    # at the default spec the Whitney route keeps 1403.7 of the gram route's
    # 2598.3 here; the coarse spec has the same top scale and window
    f1, f2 = random_pair(0)
    grids = (ShiftedGrid.standard(1, -3, 6), ShiftedGrid.standard(1, -3, 6))
    with pytest.warns(RuntimeWarning, match="position truncation"):
        gstar_sq_norm(SIZE, (f1, f2), HEAVY, grids, spec=SP_COARSE,
                      route=route)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gstar_sq_norm(SIZE, (f1, f2), PARAMS, grids, spec=SP_COARSE,
                      route=route)


def test_joint_norm_warns_when_the_window_truncates_the_weight():
    # the same closed-form check guards the raw joint layer
    rng = np.random.default_rng(7)
    f = StepFunction(level=0, lo=(0, 0), values=rng.normal(size=(1, 1)))
    grids = (ShiftedGrid.standard(1, -3, 1), ShiftedGrid.standard(1, -3, 1))
    sp = QuadratureSpec(points_per_cell=1, t_points_per_octave=1,
                        t_min=2.0**-2, t_max=TOP)
    with pytest.warns(RuntimeWarning, match="position truncation"):
        gstar_sq_norm(OPAQUE, f, HEAVY, grids, spec=sp)


def test_gram_route_is_the_four_index_contraction():
    # the route's matrix products give the defining four-index sum
    # sum m1[a,c] m2[b,d] v[a,b] v[c,d] on a non-product f; distinct factors
    # and scale strips per axis make m1 != m2, so a swapped axis would show
    rng = np.random.default_rng(17)
    f = StepFunction(level=3, lo=(-2, 1), values=rng.normal(size=(8, 8)))
    kernel = make_mixed(1, 1, 0.5, 0.5)
    grids = (ShiftedGrid.standard(1, -3, 6), ShiftedGrid.standard(1, -2, 4))
    sp = SP_COARSE
    g1, g2 = kernel.tensor_parts
    m1 = _axis_gram(g1, 3, 8, PARAMS.n * PARAMS.lambda1,
                    _grid_t_range(grids[0], sp), sp)
    m2 = _axis_gram(g2, 3, 8, PARAMS.m * PARAMS.lambda2,
                    _grid_t_range(grids[1], sp), sp)
    assert not np.allclose(m1, m2)
    v = f.values * f.cell_side ** 2
    four = float(np.einsum("ac,bd,ab,cd->", m1, m2, v, v))
    got = gstar_sq_norm(kernel, f, PARAMS, grids, spec=sp, route="gram")
    assert four > 0
    assert got == pytest.approx(four, rel=1e-12)


def test_norm_homogeneity_is_exact():
    rng = np.random.default_rng(3)
    sp = SP_COARSE
    grids = (ShiftedGrid.standard(1, -3, 6), ShiftedGrid.standard(1, -3, 6))
    f = StepFunction(level=2, lo=(0, 0), values=rng.normal(size=(4, 4)))
    two_f = StepFunction(level=2, lo=(0, 0), values=2.0 * f.values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert gstar_sq_norm(CANC, two_f, PARAMS, grids, spec=sp,
                             route="gram") == \
            4.0 * gstar_sq_norm(CANC, f, PARAMS, grids, spec=sp, route="gram")


def test_norm_rejects_constant_tails():
    tailed = StepFunction(level=0, lo=(0,), values=np.ones(1), tail=1.0)
    f1, f2 = random_pair(0)
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    with pytest.raises(ValueError, match="tails"):
        gstar_sq_norm(CANC, (tailed, f2), PARAMS, grids)


# ---------------------------------------------------------------------------
# localized quantities


def test_q_quantity_halving_law():
    # all first-axis lengths halved: the ancestor pattern amplitude grows by
    # sqrt(2) and nothing else moves (half-exponent scale invariance)
    grid = ShiftedGrid.standard(1, -3, 8)
    j1 = grid.cube(1, [0])
    sp = QuadratureSpec(t_min=2.0**-10, t_max=2.0**4)
    q0 = q_quantity(CANC, grid.cube(2, [0]), 2, j1, (0.1, 0.3), 3 / 16, 3 / 8,
                    PARAMS, sp)
    qh = q_quantity(CANC, grid.cube(3, [0]), 2, j1, (0.05, 0.3), 3 / 32, 3 / 8,
                    PARAMS, sp)
    assert q0 == pytest.approx(0.1702274211, rel=1e-3)  # frozen
    assert qh == pytest.approx(math.sqrt(2.0) * q0, rel=1e-12)


def test_q_quantity_refuses_kernels_without_tensor_parts():
    # the ancestor pattern has a constant tail, which only the per-axis
    # closed far field can carry; the refusal comes before the pattern is
    # built, so a generation beyond the grid truncation meets it too
    grid = ShiftedGrid.standard(1, -3, 8)
    opaque = replace(SIZE, tensor_parts=None)
    rest = (grid.cube(1, [0]), (0.1, 0.3), 3 / 16, 3 / 8, PARAMS)
    with pytest.raises(ValueError, match="ancestor exceeds"):
        q_quantity(SIZE, grid.cube(2, [0]), 6, *rest)
    for k in (2, 6):
        with pytest.raises(NotImplementedError, match="tensor kernel"):
            q_quantity(opaque, grid.cube(2, [0]), k, *rest)


def test_q_quantity_refuses_nonpositive_scales():
    # a zero scale used to return nan after a divide warning, and a negative
    # one failed in the mesh builder with an unrelated message
    grid = ShiftedGrid.standard(1, -3, 8)
    args = (SIZE, grid.cube(2, [0]), 2, grid.cube(1, [0]), (0.1, 0.3))
    for t1, t2 in [(0.0, 3 / 8), (-0.1, 3 / 8), (3 / 16, 0.0)]:
        with pytest.raises(ValueError, match="scales must be positive"):
            q_quantity(*args, t1, t2, PARAMS)


def test_k_quantity_plateau_then_decay():
    # marginally separated ancestors: order one through generation 8, then a
    # clean geometric decay once the offset grows like 2^(k/2)
    grid = ShiftedGrid.standard(1, -10, 8)
    factor = SIZE.tensor_parts[0]
    sp = QuadratureSpec(t_min=2.0**-10, t_max=2.0**4)
    vals = {}
    for k in range(1, 15):
        off = min(math.ceil(2 ** (k / 2)), 2 ** (k - 1) - 1) if k > 1 else 0
        cube = grid.cube(4, [off])
        (lo, hi), = cube.box()
        vals[k] = k_quantity(factor, cube, k, 0.5 * (lo + hi), 3 / 64,
                             PARAMS, sp)
    assert all(0.1 <= vals[k] <= 10.0 for k in range(1, 9))
    assert all(vals[k + 1] < vals[k] for k in range(4, 14))
    ks = np.arange(9, 15)
    slope = np.polyfit(ks, [math.log2(vals[k]) for k in ks], 1)[0]
    assert -0.35 <= slope <= -0.15
