"""Square-function machinery: closed forms against raw quadrature oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from glstar import experiments, gstar
from glstar.core import (
    QuadratureSpec,
    StepFunction,
    default_params,
    graded_axis_edges,
    octave_blocks,
    octave_nodes,
    segment_nodes,
)
from glstar.dyadic import ShiftedGrid
from glstar.haar import HaarIndex, haar_function, s_function
from glstar.gstar import (
    _RAW_BLOCK,
    _RAW_ROWS,
    GStarValue,
    _axis_gram,
    _band_nodes,
    _grid_t_range,
    _mesh_theta,
    _position_loss,
    apply_theta,
    axis_grams,
    gstar_pointwise,
    gstar_sq_norm,
    k_quantity,
    q_quantity,
    response_gram,
    weight_total,
)
from glstar.kernels import (
    ConvolutionFactor,
    Kernel,
    make_cancellative,
    make_mixed,
    make_size_only,
)

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


def meshgrid_theta(kernel, f, t1, t2, x1, x2, z1, w1, z2, w2):
    """The whole-mesh contraction the blocked one replaced: the point mesh
    x1 x x2 and the z-mesh each as one (N, 2) array, passed to evaluate as
    two (P, 1, 1) and two (1, N, 1) coordinate blocks, and one kv @ fw per
    chunk of points.  Returns theta on x1 x x2 and the (points, N) kernel
    values, the points in x1-major order."""
    pts = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
    zg = np.stack(np.meshgrid(z1, z2, indexing="ij"), axis=-1).reshape(-1, 2)
    fw = (f(z1[:, None], z2[None, :]) * np.multiply.outer(w1, w2)).ravel()
    kv = np.asarray(kernel.evaluate(t1, t2,
                                    (pts[:, None, :1], pts[:, None, 1:]),
                                    (zg[None, :, :1], zg[None, :, 1:])))
    step = max(1, int(4e6) // zg.shape[0])
    out = np.concatenate([kv[i:i + step] @ fw
                          for i in range(0, pts.shape[0], step)])
    return out.reshape(x1.size, x2.size), kv


def mesh_theta(kernel, f, t1, t2, x1, x2, z1, w1, z2, w2):
    """_mesh_theta on f's padded table and the two lookup axes of z1 x z2."""
    table = np.pad(f.values, (0, 1), constant_values=f.tail)
    return _mesh_theta(kernel, table, t1, t2, x1, x2,
                       gstar._lookup_axis(f, 0, z1, w1),
                       gstar._lookup_axis(f, 1, z2, w2))


def recording(kernel):
    """kernel with an evaluate that keeps every call's (x, y, values)."""
    calls = []

    def evaluate(t1, t2, x, y):
        kv = kernel.evaluate(t1, t2, x, y)
        calls.append((x, y, kv))
        return kv

    return replace(kernel, evaluate=evaluate), calls


def assert_blocks_match(calls, x1, x2, z1, z2, kv_full):
    # each block is an a x b tile of the point mesh against a z1-row chunk
    # and all of z2, passed as four unmaterialized axis blocks; its values
    # must be the matching slice of the whole-mesh values, bit for bit
    kv_mesh = kv_full.reshape(x1.size, x2.size, z1.size, z2.size)
    covered = 0
    for (b1, b2), (y1, y2), kv in calls:
        a, b, rows, n2 = b1.shape[0], b2.shape[1], y1.shape[2], y2.shape[3]
        assert b1.shape == (a, 1, 1, 1, 1) and b2.shape == (1, b, 1, 1, 1)
        assert y1.shape == (1, 1, rows, 1, 1) and y2.shape == (1, 1, 1, n2, 1)
        i, j, r = (int(np.flatnonzero(axis == block.flat[0])[0])
                   for axis, block in ((x1, b1), (x2, b2), (z1, y1)))
        assert np.array_equal(b1.ravel(), x1[i:i + a])
        assert np.array_equal(b2.ravel(), x2[j:j + b])
        assert np.array_equal(y1.ravel(), z1[r:r + rows])
        assert np.array_equal(y2.ravel(), z2)
        assert kv.shape == (a, b, rows, n2)
        assert kv.size <= max(_RAW_BLOCK, z2.size)
        assert np.array_equal(kv, kv_mesh[i:i + a, j:j + b, r:r + rows])
        covered += kv.size
    assert covered == kv_full.size


def point_mesh(rng, count):
    """``count`` x 3 points near the test boxes, as the two sorted axes of a
    tensor mesh."""
    return (np.sort(rng.uniform(-1.0, 2.0, count)),
            np.sort(rng.uniform(-1.0, 2.0, 3)))


# ``points`` x 3 point meshes: the z mesh of n1 x n2 nodes is cut into row
# chunks of at most _RAW_ROWS = 2^14 values, and each chunk meets point
# tiles of up to _RAW_BLOCK = 2^15 values
@pytest.mark.parametrize("n1, n2, points", [
    (64, 64, 40),      # below a row chunk: fifteen 8 x 1 point tiles
    (128, 128, 3),     # exactly one row chunk: 1 x 2 tiles, then 1 x 1
    (256, 256, 3),     # exactly four 64-row chunks: 1 x 2, then 1 x 1
    (257, 256, 2),     # one row past four chunks: a 1-row one, 2 x 1 tiles
    (300, 250, 2),     # uneven row chunks of 65 and 40
    (2, 70000, 1),     # z2 alone exceeds a block: one row and point a block
])
def test_blocked_mesh_theta_matches_the_whole_mesh_contraction(n1, n2, points):
    rng = np.random.default_rng(n1 + n2)
    f = StepFunction(level=2, lo=(-2, 1), values=rng.normal(size=(5, 3)))
    (a1, b1), (a2, b2) = f.box
    z1 = np.sort(rng.uniform(a1 - 0.5, b1 + 0.5, n1))
    z2 = np.sort(rng.uniform(a2 - 0.5, b2 + 0.5, n2))
    w1, w2 = rng.uniform(0.5, 1.5, n1) / n1, rng.uniform(0.5, 1.5, n2) / n2
    x1, x2 = point_mesh(rng, points)
    kernel, calls = recording(OPAQUE)
    got = mesh_theta(kernel, f, 0.45, 0.7, x1, x2, z1, w1, z2, w2)
    ref, kv_full = meshgrid_theta(OPAQUE, f, 0.45, 0.7, x1, x2, z1, w1, z2,
                                  w2)
    assert_blocks_match(calls, x1, x2, z1, z2, kv_full)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_blocked_mesh_theta_matches_on_a_tail_window(monkeypatch):
    # a constant-tail f takes two contractions: its compact part f - tail on
    # the shared mesh, then the kernel mass on the point's own window; spy on
    # the helper to get both and redo the mass window on the whole mesh
    f = StepFunction(level=1, lo=(-1, 0), values=np.array([[1.0, -2.0],
                                                           [0.5, 3.0]]),
                     tail=1.5)
    # a looser cut keeps the tail window to a few blocks
    monkeypatch.setattr(gstar, "_TRUNCATION_EPS", 1e-4)
    kernel, calls = recording(replace(SIZE, tensor_parts=None))
    seen = []

    def spy(*args):
        first = len(calls)
        out = _mesh_theta(*args)
        seen.append((args, out.copy(), calls[first:]))
        return out

    monkeypatch.setattr(gstar, "_mesh_theta", spy)
    val = apply_theta(kernel, f, (0.3, -0.2), 0.4, 0.6)
    (compact, c_out, _), (args, m_out, m_calls) = seen
    # the compact part's table: f - tail, and 0 in the slots past the box
    assert np.array_equal(compact[1], np.pad(f.values - f.tail, (0, 1)))
    ones, t1, t2, x1, x2, (z1, w1, k1), (z2, w2, k2) = args[1:]
    assert np.all(ones[np.ix_(k1, k2)] == 1.0)
    # the window spans several blocks, each one point against a row chunk
    assert z1.size * z2.size > 4 * _RAW_ROWS
    one = StepFunction(0, (0, 0), np.ones((1, 1)), tail=1.0)
    ref, kv_full = meshgrid_theta(SIZE, one, t1, t2, x1, x2, z1, w1, z2, w2)
    assert_blocks_match(m_calls, x1, x2, z1, z2, kv_full)
    assert val == c_out[0, 0] + f.tail * m_out[0, 0]
    assert m_out[0, 0] == pytest.approx(ref[0, 0], rel=1e-13, abs=0.0)


def tailed_cases(rng, count):
    """``count`` tailed step functions of four shapes, each with a point near
    its box and a scale pair."""
    shapes = [(1, 1), (2, 2), (5, 3), (4, 4)]
    for c in range(count):
        f = StepFunction(int(rng.integers(0, 3)), rng.integers(-3, 3, size=2),
                         rng.normal(size=shapes[c % 4]),
                         tail=float(rng.normal()))
        (a1, b1), (a2, b2) = f.box
        y = (rng.uniform(a1 - 0.5, b1 + 0.5), rng.uniform(a2 - 0.5, b2 + 0.5))
        t1, t2 = 2.0 ** rng.uniform(-3.0, 1.0, size=2)
        yield f, y, t1, t2


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "canc"])
def test_raw_theta_of_a_tailed_function_matches_the_closed_form(kernel):
    # the compact part plus tail times the kernel mass, each error against
    # the closed form scaled by theta|f| under the size kernel
    opaque = replace(kernel, tensor_parts=None)
    errors = []
    for f, y, t1, t2 in tailed_cases(np.random.default_rng(1), 12):
        abs_f = StepFunction(f.level, f.lo, np.abs(f.values), tail=abs(f.tail))
        scale = apply_theta(SIZE, abs_f, y, t1, t2)
        raw = apply_theta(opaque, f, y, t1, t2)
        errors.append(abs(raw - apply_theta(kernel, f, y, t1, t2)) / scale)
    assert max(errors) <= 1e-2


@pytest.mark.parametrize("alpha, beta, name", [(0.02, 0.5, "alpha"),
                                                (0.5, 0.02, "beta")])
def test_raw_tail_window_refuses_a_tiny_declared_exponent(alpha, beta, name):
    # the window radius t (2/(a eps))^(1/a) overflows a float for a below
    # about 0.03: refused by name before any kernel call, while the tensor
    # twin closes its far field and a compact f needs no window
    tensor = make_size_only(1, 1, alpha, beta)
    kernel, calls = recording(replace(tensor, tensor_parts=None))
    one = StepFunction(0, (0, 0), np.ones((1, 1)), tail=1.0)
    assert apply_theta(tensor, one, (0.1, 0.2), 0.5, 0.5) == \
        pytest.approx(400.0, rel=1e-12)
    with pytest.raises(ValueError, match=f"exponent {name} = 0.02 is too"):
        apply_theta(kernel, one, (0.1, 0.2), 0.5, 0.5)
    assert calls == []
    cell = StepFunction(0, (0, 0), np.ones((1, 1)))
    assert apply_theta(kernel, cell, (0.1, 0.2), 0.5, 0.5) == pytest.approx(
        apply_theta(tensor, cell, (0.1, 0.2), 0.5, 0.5), rel=1e-2)
    assert calls


def test_raw_theta_skips_a_zero_compact_part(monkeypatch):
    # f - tail = 0: theta f is tail times the kernel mass, one window
    # contraction per point of the 2 x 2 mesh and no compact one, and the
    # sum is that alone
    seen = []

    def spy(kernel, table, *rest):
        out = _mesh_theta(kernel, table, *rest)
        seen.append((table, out[0, 0]))
        return out

    monkeypatch.setattr(gstar, "_mesh_theta", spy)
    f = StepFunction(level=1, lo=(-1, 0), values=np.full((2, 3), 0.75),
                     tail=0.75)
    got = gstar._theta_points_general(replace(SIZE, tensor_parts=None), f,
                                      0.4, 0.6, [0.3, 2.5], [-0.2, 1.25],
                                      QuadratureSpec())
    assert [np.array_equal(table, np.ones((2, 2))) for table, _ in seen] == \
        [True] * 4
    assert got.shape == (2, 2)
    assert np.array_equal(got.ravel(), [0.75 * mass for _, mass in seen])


def test_raw_tail_window_is_anchored_at_the_point_alone(monkeypatch):
    # the mass window is graded toward the point only: f's box ends are no
    # kinks of the kernel mass, so they take no ladder; each axis's window
    # is made once per coordinate, not once per point of the 2 x 2 mesh
    anchors = []

    def spy(lo, hi, anchors_, rel_finest):
        anchors.append(tuple(anchors_))
        return graded_axis_edges(lo, hi, anchors_, rel_finest=rel_finest)

    monkeypatch.setattr(gstar, "graded_axis_edges", spy)
    f = StepFunction(level=1, lo=(-1, 0), values=np.ones((2, 3)), tail=-0.5)
    gstar._theta_points_general(OPAQUE, f, 0.4, 0.6, [0.3, 2.5],
                                [-0.2, 1.25], QuadratureSpec())
    assert anchors == [(0.3,), (2.5,), (-0.2,), (1.25,)]


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
    table = np.pad(f.values, (0, 1), constant_values=f.tail)
    (_, _, k1), (_, _, k2) = (gstar._lookup_axis(f, axis, z, None)
                              for axis, z in enumerate((z1, z2)))
    want = f(z1[:, None], z2[None, :])
    got = table[np.ix_(k1, k2)]
    assert np.array_equal(got, want)
    # the probes reach every cell and the tail on both axes
    assert set(k1) == set(range(6)) and set(k2) == set(range(5))
    for axis, z in ((0, z1), (1, z2)):
        assert np.array_equal(f.cell_index(axis, z)[[0, -1]],
                              [-2 ** 62 - f.lo[axis], 2 ** 62 - f.lo[axis]])


def pointwise_mesh_theta(kernel, f, t1, t2, x1, x2, z1, w1, z2, w2):
    """The block loop that read f through ``f(rows, z2)`` per row chunk,
    its point tiles and mesh passed as axis blocks."""
    rows = min(z1.size, max(1, _RAW_ROWS // max(1, z2.size)))
    a, b = gstar._tile(x1.size, x2.size, _RAW_BLOCK // (rows * z2.size))
    out = np.zeros((x1.size, x2.size))
    for r in range(0, z1.size, rows):
        zr = z1[r:r + rows]
        fw = (f(zr[:, None], z2[None, :])
              * np.multiply.outer(w1[r:r + rows], w2)).ravel()
        for i in range(0, x1.size, a):
            for j in range(0, x2.size, b):
                kv = kernel.evaluate(
                    t1, t2, (x1[i:i + a, None, None, None, None],
                             x2[None, j:j + b, None, None, None]),
                    (zr[None, None, :, None, None],
                     z2[None, None, None, :, None]))
                tile = out[i:i + a, j:j + b]
                tile += (np.asarray(kv, dtype=float).reshape(-1, fw.size)
                         @ fw).reshape(tile.shape)
    return out


def probe_mesh(extra, points):
    """A tailed f, probe meshes reaching its every cell with ``extra`` more
    nodes per axis, their weights and a ``points`` x 3 point mesh near the
    box."""
    rng = np.random.default_rng(extra)
    f = StepFunction(level=2, lo=(-3, 1), values=rng.normal(size=(5, 4)),
                     tail=-0.6)
    z1 = axis_probes(-3, 5, 0.25, rng.uniform(-2.0, 1.0, extra))
    z2 = axis_probes(1, 4, 0.25, rng.uniform(-0.5, 2.0, extra))
    assert (z1.size * z2.size > _RAW_ROWS) == (extra == 300)
    w1, w2 = rng.uniform(0.5, 1.5, z1.size), rng.uniform(0.5, 1.5, z2.size)
    return (f, *point_mesh(rng, points), z1, w1, z2, w2)


MESH_CASES = pytest.mark.parametrize("extra, points", [
    (20, 12),     # the whole z mesh is one row chunk: two 6 x 3 tiles
    (300, 2),     # it is not: six 52-row chunks and a 4-row one add up
])


@MESH_CASES
def test_mesh_theta_reads_f_like_the_pointwise_loop(extra, points):
    f, *mesh = probe_mesh(extra, points)
    got = mesh_theta(OPAQUE, f, 0.45, 0.7, *mesh)
    want = pointwise_mesh_theta(OPAQUE, f, 0.45, 0.7, *mesh)
    assert np.array_equal(got, want)


def coupled_kernel():
    """A kernel that does not separate: the size profile, at scale t1 + t2,
    of |x1 - y1| + |x2 - y2|."""
    factor = ConvolutionFactor(1, 0.5)

    def evaluate(t1, t2, x, y):
        s = np.abs(x[0] - y[0])[..., 0] + np.abs(x[1] - y[1])[..., 0]
        return factor.profile(t1 + t2, s)

    return Kernel(evaluate, 0.5, 0.5, label="coupled")


@MESH_CASES
def test_mesh_theta_on_a_kernel_that_does_not_separate(extra, points):
    # each block's values couple its point tile, rows and z2, so the kernel
    # returns and the layer contracts the whole block: on the tensor point
    # mesh, the tiled block loop's theta, and slices of the whole mesh's
    # values bit for bit
    f, *mesh = probe_mesh(extra, points)
    kernel, calls = recording(coupled_kernel())
    got = mesh_theta(kernel, f, 0.45, 0.7, *mesh)
    want = pointwise_mesh_theta(coupled_kernel(), f, 0.45, 0.7, *mesh)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    ref, kv_full = meshgrid_theta(coupled_kernel(), f, 0.45, 0.7, *mesh)
    x1, x2, z1, _, z2, _ = mesh
    assert_blocks_match(calls, x1, x2, z1, z2, kv_full)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("evaluate, one_point", [
    (lambda t1, t2, x, y: SIZE.tensor_parts[0].value(t1, x[0], y[0]), True),
    (lambda t1, t2, x, y: 1.0, True),
    (lambda t1, t2, x, y: SIZE.evaluate(t1, t2, (x[0], x[0]), y), False),
], ids=["first_block_only", "constant", "x1_for_both"])
def test_mesh_theta_refuses_a_kernel_that_does_not_broadcast(evaluate,
                                                            one_point):
    # values lacking the (a, b, rows, z2) shape are refused by the broadcast
    # contract, not reshaped into wrong sums.  On a tensor point mesh the x1
    # and x2 blocks lie along separate axes, so a kernel that reads x1 for
    # both is refused too; a one-point mesh cannot tell it apart
    kernel = Kernel(evaluate, 0.5, 0.5)
    f = StepFunction(level=1, lo=(0, 0), values=np.ones((2, 2)))
    with pytest.raises(ValueError, match="broadcast over its coordinate"):
        gstar._theta_points_general(kernel, f, 0.5, 0.5, [0.3, 0.7],
                                    [0.2, -0.1, 0.6], QuadratureSpec())
    if one_point:
        with pytest.raises(ValueError, match="broadcast over its coordinate"):
            apply_theta(kernel, f, (0.3, 0.2), 0.5, 0.5)


@pytest.mark.parametrize("make", [make_size_only, make_cancellative],
                         ids=["size", "cancellative"])
def test_block_evaluate_is_the_profile_product_on_the_whole_mesh(make):
    # away from a = 0.5 the power takes no sqrt shortcut; each factor's
    # values on a x R and b x Z2 must still be the bits of its profile on
    # the whole materialized a x b x R x Z2 mesh
    kernel = make(1, 1, 0.7, 0.3)
    f1, f2 = kernel.tensor_parts
    rng = np.random.default_rng(31)
    x1, x2 = rng.uniform(-1.0, 2.0, 5), rng.uniform(-1.0, 2.0, 3)
    z1, z2 = rng.uniform(-2.0, 3.0, 64), rng.uniform(-2.0, 3.0, 257)
    got = kernel.evaluate(0.45, 0.7, (x1[:, None, None, None, None],
                                      x2[None, :, None, None, None]),
                          (z1[None, None, :, None, None],
                           z2[None, None, None, :, None]))
    p1, p2, m1, m2 = np.meshgrid(x1, x2, z1, z2, indexing="ij")
    want = f1.profile(0.45, np.abs(p1 - m1)) * f2.profile(0.7, np.abs(p2 - m2))
    assert got.shape == want.shape == (5, 3, 64, 257)
    assert np.array_equal(got, want)


def test_theta_rejects_bad_arguments():
    f1, _ = random_pair(0)
    with pytest.raises(ValueError, match="dimension"):
        apply_theta(CANC, f1, (0.0, 0.0), 0.5, 0.5)
    f = StepFunction(level=0, lo=(0, 0), values=np.ones((1, 1)))
    with pytest.raises(ValueError, match="positive"):
        apply_theta(CANC, f, (0.0, 0.0), -1.0, 0.5)


def counted_factors(monkeypatch):
    """Spy on every factor evaluation, exact or raw: a list that gets one
    entry per ``profile`` or ``antiderivative_into`` call, its size."""
    counts = []
    for name in ("profile", "antiderivative_into"):
        real = getattr(ConvolutionFactor, name)

        def spy(self, *args, real=real):
            out = real(self, *args)
            counts.append(int(np.size(out)))
            return out

        monkeypatch.setattr(ConvolutionFactor, name, spy)
    return counts


NON_FINITE_POINTS = pytest.mark.parametrize("point", [
    (math.nan, 0.2), (0.3, math.inf), (-math.inf, math.nan),
], ids=["nan", "inf", "both"])


@pytest.mark.parametrize("kernel", [SIZE, OPAQUE], ids=["tensor", "opaque"])
@NON_FINITE_POINTS
def test_theta_and_pointwise_refuse_a_non_finite_point(monkeypatch, kernel,
                                                       point):
    # refused by name before any kernel or factor call, on both layers
    # (the tensor one returned nan, the raw one raised on an empty axis
    # interval or a nan square-function value)
    kernel, calls = recording(kernel)
    counts = counted_factors(monkeypatch)
    f = StepFunction(level=1, lo=(0, 0), values=np.ones((2, 2)))
    spec = QuadratureSpec(points_per_cell=1, t_points_per_octave=1,
                          t_min=0.25, t_max=1.0)
    with pytest.raises(ValueError, match="the point must be finite"):
        apply_theta(kernel, f, point, 0.5, 0.5)
    with pytest.raises(ValueError, match="the point must be finite"):
        gstar_pointwise(kernel, f, point, PARAMS, spec)
    assert calls == [] and counts == []


@pytest.mark.parametrize("kernel", [SIZE, OPAQUE], ids=["tensor", "opaque"])
@pytest.mark.parametrize("t1", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_theta_and_pointwise_refuse_a_scale_that_is_not_finite_and_positive(
        monkeypatch, kernel, t1):
    # apply_theta takes its scales as arguments (nan passed the old t <= 0
    # guard and raised converting nan to an integer; inf returned nan), the
    # pointwise value from its spec, which admits t_max = inf
    kernel, calls = recording(kernel)
    counts = counted_factors(monkeypatch)
    f = StepFunction(level=1, lo=(0, 0), values=np.ones((2, 2)))
    with pytest.raises(ValueError, match="the scales finite and positive"):
        apply_theta(kernel, f, (0.3, 0.2), t1, 0.5)
    with pytest.raises(ValueError, match="the scales finite and positive"):
        apply_theta(kernel, f, (0.3, 0.2), 0.5, t1)
    if t1 == math.inf:
        spec = QuadratureSpec(points_per_cell=1, t_points_per_octave=1,
                              t_min=0.25, t_max=t1)
        with pytest.raises(ValueError, match="the scales finite and positive"):
            gstar_pointwise(kernel, f, (0.3, 0.2), PARAMS, spec)
    assert calls == [] and counts == []


@pytest.mark.parametrize("n1, n2, cap", [
    (86, 86, 128), (86, 86, 64), (13, 13, 9), (40, 3, 8), (1, 100, 7),
    (100, 1, 7), (5, 3, 1), (1, 1, 5), (86, 86, 7396),
])
def test_point_tiles_are_as_full_as_the_cap_allows(n1, n2, cap):
    # the a x b tile covers the n1 x n2 point mesh in the fewest tiles of at
    # most cap points, against every tile shape; tiles along one u1 row
    # would take 172 at (86, 86, 64), not 121
    a, b = gstar._tile(n1, n2, cap)
    assert 1 <= a <= n1 and 1 <= b <= n2 and a * b <= cap
    count = math.ceil(n1 / a) * math.ceil(n2 / b)
    assert count == min(math.ceil(n1 / p) * math.ceil(n2 / q)
                        for p in range(1, n1 + 1) for q in range(1, n2 + 1)
                        if p * q <= cap)
    assert (count == 1) == (n1 * n2 <= cap)


def test_raw_block_evaluates_each_factor_on_one_point_axis(monkeypatch):
    # one scale pair of a separable opaque kernel: every block evaluates
    # factor 1 on its a u1 values against its r z1 rows and factor 2 on its
    # b u2 values against all Z2, so at most U1 Z1 + U2 Z2 profile values a
    # block, and the pair far below the P (Z1 + Z2) of point-by-point blocks
    counts = counted_factors(monkeypatch)
    kernel, calls = recording(OPAQUE)
    per_block = []

    def evaluate(t1, t2, x, y):
        first = len(counts)
        kv = kernel.evaluate(t1, t2, x, y)
        per_block.append((x, y, sum(counts[first:])))
        return kv

    spec = QuadratureSpec(points_per_cell=2)
    f = StepFunction(1, (0, 0), np.random.default_rng(4).normal(size=(2, 2)))
    t1, t2 = 0.25, 0.3
    axes = [gstar._raw_axis(f, axis, t, 0.4, 3.0, spec)
            for axis, t in enumerate((t1, t2))]
    (u1, _, (z1, _, _)), (u2, _, (z2, _, _)) = axes
    gstar._raw_block(replace(OPAQUE, evaluate=evaluate), f, t1, t2, *axes,
                     spec)
    assert len(per_block) > 1
    for (x1, x2), (y1, y2), elements in per_block:
        a, b, r, n2 = x1.shape[0], x2.shape[1], y1.shape[2], y2.shape[3]
        assert elements == a * r + b * n2
        assert elements <= u1.size * z1.size + u2.size * z2.size
    total = sum(elements for *_, elements in per_block)
    assert total * 8 < u1.size * u2.size * (z1.size + z2.size)


# ---------------------------------------------------------------------------
# response grams


def offset_mesh(box, t, spec, anchors):
    """One scale's offset mesh node by node: :func:`gstar._offset_span`
    graded toward every anchor at the per-axis layer's density; its nodes,
    weights and two edges."""
    lo, hi = gstar._offset_span(box, t, anchors)
    u, du = segment_nodes(graded_axis_edges(lo, hi, anchors,
                                            rel_finest=gstar._MESH_REL),
                          spec.points_per_cell, spec.rule)
    return u, du, float(lo), float(hi)


def test_response_gram_is_the_gram_of_its_rows():
    # entry (i, j) is the weighted inner product of the responses to rows i
    # and j, so it polarizes from one-row grams, at a point as over an
    # interval; no rows means f itself
    rng = np.random.default_rng(12)
    factor = CANC.tensor_parts[0]
    f = StepFunction(level=2, lo=(-1,), values=rng.normal(size=5))
    rows = rng.normal(size=(3, 5))
    for at in (0.4, (0.1, 0.9)):
        def gram(r):
            return response_gram(factor, f, at, 0.3, 3.0, SP_COARSE, r)

        full = gram(rows)
        assert full.shape == (3, 3) and np.all(np.diag(full) > 0)
        for i in range(3):
            for j in range(3):
                polar = (gram(rows[i] + rows[j])
                         - gram(rows[i] - rows[j]))[0, 0] / 4
                assert full[i, j] == pytest.approx(polar, rel=1e-12)
        assert np.array_equal(gram(None), gram(f.values[None]))
    plane = StepFunction(level=0, lo=(0, 0), values=np.ones((1, 1)))
    with pytest.raises(ValueError, match="one-dimensional"):
        response_gram(factor, plane, 0.4, 0.3, 3.0, SP_COARSE)


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "cancellative"])
def test_batched_response_gram_is_the_scalar_calls(kernel):
    # an array of scales gives, gram by gram, the one-scale call bit for bit:
    # the unit cell and synthesis rows at points per scale, at one shared
    # point and over one shared interval, a tailed f with its far field at
    # points, and the raw oracle; 40 scales over 14 octaves make blocks of
    # differing meshes
    factor = kernel.tensor_parts[0]
    spec = QuadratureSpec()
    rng = np.random.default_rng(21)
    t = np.geomspace(2.0 ** -9, 2.0 ** 5, 40)
    points = rng.uniform(-1.5, 2.5, t.size)
    lattice = StepFunction(level=2, lo=(-1,), values=np.zeros(6))
    rows = rng.normal(size=(3, 6))
    tailed = StepFunction(level=3, lo=(-4,), values=rng.normal(size=9),
                          tail=0.7)
    unit = StepFunction(level=0, lo=(0,), values=np.ones(1))
    cases = [(unit, points, None), (lattice, points, rows),
             (lattice, 0.3, rows), (lattice, (-0.5, 1.5), rows),
             (tailed, points, None), (tailed, 1.1, None)]
    for f, at, r in cases:
        got = response_gram(factor, f, at, t, 3.0, spec, r)
        k = 1 if r is None else r.shape[0]
        assert got.shape == (t.size, k, k)
        for n in range(t.size):
            x = at[n] if isinstance(at, np.ndarray) else at
            want = response_gram(factor, f, x, t[n], 3.0, spec, r)
            assert got[n].tobytes() == want.tobytes()
    few = t[::8]
    got = response_gram(factor, lattice, points[::8], few, 3.0, SP_COARSE,
                        rows, raw=True)
    for n, (x, tn) in enumerate(zip(points[::8], few)):
        want = response_gram(factor, lattice, x, tn, 3.0, SP_COARSE, rows,
                             raw=True)
        assert got[n].tobytes() == want.tobytes()


def test_response_gram_refuses_a_position_that_fits_no_scale():
    # a tuple is an interval and any array one point per scale
    factor = SIZE.tensor_parts[0]
    f = StepFunction(level=0, lo=(0,), values=np.ones(1))
    t = np.array([0.3, 0.5, 0.9])
    for at, scales in ((np.array([0.1, 0.2]), t), (np.array([0.1]), 0.3),
                       ([0.1, 0.2], 0.3), (np.zeros((3, 1)), t)):
        with pytest.raises(ValueError, match="one point per scale"):
            response_gram(factor, f, at, scales, 3.0, SP_COARSE)
    with pytest.raises(ValueError, match=r"\(lo, hi\) tuple"):
        response_gram(factor, f, (0.0, 0.5, 1.0), t, 3.0, SP_COARSE)
    with pytest.raises(ValueError, match="1-d array"):
        response_gram(factor, f, 0.5, t[None], 3.0, SP_COARSE)


def test_interval_gram_is_the_integral_of_point_grams():
    # the closed-form position integral against a Gauss sum of point grams
    # over the interval, its x-pieces split at f's cell edges; a tailed f
    # has a far field no interval weight closes, so it is refused
    rng = np.random.default_rng(5)
    f = StepFunction(level=2, lo=(-1,), values=rng.normal(size=5))
    rows = rng.normal(size=(2, 5))
    lo, hi = -0.7, 1.6
    sp = QuadratureSpec(rule="gauss")
    edges = np.union1d(np.linspace(lo, hi, 33), gstar._axis_edges(f))
    xs, xw = segment_nodes(edges, 4, "gauss")
    for kernel in (SIZE, CANC):
        factor = kernel.tensor_parts[0]
        for t in (0.05, 0.3, 2.0):
            got = response_gram(factor, f, (lo, hi), t, 3.0, sp, rows)
            want = sum(w * response_gram(factor, f, x, t, 3.0, sp, rows)
                       for x, w in zip(xs, xw))
            assert np.abs(got - want).max() <= 5e-6 * np.abs(want).max()
    tailed = StepFunction(level=0, lo=(0,), values=np.ones(1), tail=1.0)
    with pytest.raises(ValueError, match="compact"):
        response_gram(SIZE.tensor_parts[0], tailed, (lo, hi), 0.3, 3.0, sp)


def response_gram_per_cell(factor, f, at, t, lam, spec, rows=None):
    """The exact response gram with theta as the cell integrals against the
    cell values, cell by cell: one (u-nodes x cells) matrix per call."""
    rows = np.atleast_2d(f.values if rows is None else rows)
    edges = gstar._axis_edges(f)
    anchors = list(edges) if edges.size <= 33 else [edges[0], edges[-1]]
    anchors = anchors + list(np.atleast_1d(at))
    far = f.tail * factor.mass(t)
    u, du, ulo, uhi = offset_mesh(f.box[0], t, spec, anchors)
    theta = (factor.cell_integral(t, u, edges) @ (rows - f.tail).T).T + far
    return gstar._weighted_theta_gram(
        theta[None], u[None], du[None], np.array([u.size]), np.array([ulo]),
        np.array([uhi]), far, at if isinstance(at, tuple) else np.array([at]),
        np.array([t]), lam)[0]


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "cancellative"])
def test_response_gram_by_parts_is_the_per_cell_sum(kernel):
    # summation by parts reorders the sum over cells into one over value
    # jumps, so the two agree to rounding: on the ancestor patterns of
    # run_kdecay's ladder (tail and all), a Haar function, the synthesis
    # rows of run_cases and a tailed f with random values
    factor = kernel.tensor_parts[0]
    lam = PARAMS.weight_powers[0]
    spec = QuadratureSpec()
    grid = ShiftedGrid.standard(1, -10, 8)
    base = grid.cube(4, (0,))
    cases = []
    for k in range(1, 15):
        cube, x1, t1 = experiments._ladder_probe(grid, base, k)
        cases.append((s_function(cube, k), x1, t1, None))
    haar = haar_function(HaarIndex(cube=grid.cube(1, (0,)), eta=(1,)))
    cases.append((haar, 0.3, 0.375, None))
    members = [HaarIndex(cube=grid.cube(lev, (k,)), eta=(1,))
               for lev in range(4) for k in range(-1, 2)]
    lattice, rows = experiments._haar_synthesis(members)
    cases += [(lattice, (-0.5, 1.5), 0.2, rows), (lattice, 0.6, 0.05, rows)]
    rng = np.random.default_rng(8)
    tailed = StepFunction(level=3, lo=(-4,), values=rng.normal(size=9),
                          tail=0.7)
    cases += [(tailed, 0.1, t, None) for t in (0.01, 0.3, 4.0)]
    for f, at, t, r in cases:
        got = response_gram(factor, f, at, t, lam, spec, r)
        want = response_gram_per_cell(factor, f, at, t, lam, spec, r)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cell_work_is_one_antiderivative_per_edge(monkeypatch):
    # adjacent cells share an end, so n cells cost n + 1 antiderivative
    # evaluations per u-node, not 2 n, per scale node of an axis gram; a
    # response gram sums by parts, so it costs one per u-node and edge where
    # some row's value jumps (zero past both ends).  The spy sits on the one
    # routine every antiderivative goes through, spying the u-mesh batch
    # each caller builds: one mesh per scale node
    sizes, meshes = [], []
    original = ConvolutionFactor.antiderivative_into

    def spy(self, t, s, out, scratch):
        sizes.append(np.size(s))
        return original(self, t, s, out, scratch)

    monkeypatch.setattr(ConvolutionFactor, "antiderivative_into", spy)
    original_batch = gstar.graded_meshes

    def batch_spy(*args, **kwargs):
        u, du, counts = original_batch(*args, **kwargs)
        meshes.extend(counts.tolist())
        return u, du, counts

    monkeypatch.setattr(gstar, "graded_meshes", batch_spy)
    factor = SIZE.tensor_parts[0]
    t_range = (2.0**-4, 2.0)
    scale_nodes, _ = octave_nodes(*t_range, SP_COARSE.t_points_per_octave,
                                  SP_COARSE.rule)
    for n_cells in (1, 6):
        sizes.clear()
        meshes.clear()
        gstar._unit_lag_table.cache_clear()  # a cold gram forms every node
        _axis_gram.__wrapped__(factor, 3, n_cells, 3.0, t_range, SP_COARSE)
        assert len(meshes) == scale_nodes.size
        assert sizes == [m * (n_cells + 1) for m in meshes]

    # every edge jumps; two flat runs leave 3 of 6; a tail adds none
    for values, tail, jumps in (([1.0, 2.0, 3.0, 4.0, 5.0], 0.0, 6),
                                ([1.0, 1.0, 2.0, 2.0, 2.0], 0.0, 3),
                                ([1.0, 1.0, 2.0, 2.0, 2.0], 0.5, 3)):
        f = StepFunction(level=2, lo=(-1,), values=np.array(values), tail=tail)
        for at in (0.4, (0.1, 0.9)) if tail == 0.0 else (0.4,):
            sizes.clear()
            meshes.clear()
            response_gram(factor, f, at, 0.3, 3.0, SP_COARSE)
            assert len(meshes) == 1
            assert sum(sizes) == meshes[0] * jumps


def unit_octaves(level, t_range, spec):
    """The tau-octaves of a level-``level`` axis gram, each as its nodes and
    dt weights: the t-range's octave pieces times 2^level."""
    dilation = 2.0 ** level
    return [octave_nodes(lo * dilation, hi * dilation,
                         spec.t_points_per_octave, spec.rule)
            for lo, hi, _, _ in octave_blocks(*t_range,
                                              spec.t_points_per_octave,
                                              spec.rule)]


@pytest.mark.parametrize("level, t_range", [(7, (2.0**-8, 2.0)),
                                            (3, (2.0**-12, 2.0**4))])
def test_axis_gram_meshes_are_the_per_node_meshes(monkeypatch, level, t_range):
    # the one batch of a cold axis gram holds, row by row, the unit cell's
    # offset mesh at each tau-node of its octaves, bit for bit; at level 3
    # over this range the rows differ in size
    batches = []
    original = gstar.graded_meshes

    def spy(*args, **kwargs):
        batches.append(original(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(gstar, "graded_meshes", spy)
    spec = QuadratureSpec()
    factor = SIZE.tensor_parts[0]
    gstar._unit_lag_table.cache_clear()
    _axis_gram.__wrapped__(factor, level, 8, 3.0, t_range, spec)
    (us, dus, sizes), = batches
    taus = np.concatenate([tau for tau, _ in unit_octaves(level, t_range, spec)])
    assert sizes.size == taus.size
    if level == 3:
        assert np.unique(sizes).size > 1
    for tau, u, du, m in zip(taus, us, dus, sizes):
        want_u, want_du, _, _ = offset_mesh((0.0, 1.0), tau, spec,
                                                   (0.0, 1.0))
        assert u[:m].tobytes() == want_u.tobytes()
        assert du[:m].tobytes() == want_du.tobytes()


def axis_gram_per_scale(factor, level, n_cells, lam, t_range, spec):
    """The axis gram at level ``level`` itself, as one cell_integral per
    scale node, each node making its own arrays: every lag from the
    shared-end call on the edges left to right, columns reversed.  The
    sums run in extended precision: in doubles their rounding alone reached
    9.9e-16 of the largest entry against a 40-digit evaluation of the same
    formula, nearly the 1e-15 its comparison allows."""
    h = 2.0 ** -level
    edges = h * np.arange(1 - n_cells, 2)
    row = np.zeros(n_cells, dtype=np.longdouble)
    tn, tw = octave_nodes(*t_range, spec.t_points_per_octave, spec.rule)
    for t, w in zip(tn, tw):
        u, du, _, _ = offset_mesh((0.0, h), t, spec, (0.0, h))
        psi = factor.cell_integral(t, u, edges)[:, ::-1].astype(np.longdouble) / h
        auto = (psi[:, 0] * du) @ psi
        row += auto * (np.longdouble(weight_total(t, lam)) / t ** 2 * w)
    row = row.astype(float)
    return row[np.abs(np.arange(n_cells)[:, None] - np.arange(n_cells))]


def axis_gram_unit_nodes(factor, level, n_cells, lam, t_range, spec):
    """The axis gram by dilation, each tau-node making its own arrays: a
    fresh cell_integral of the unit-amplitude factor on the unit cell's
    mesh, every lag from the shared-end call on the edges left to right,
    one row per lag; the octaves' rows summed and scaled by scale^2
    weight_total(1, lam) / h."""
    unit = ConvolutionFactor(factor.dim, factor.exponent, factor.flavor)
    edges = np.arange(1.0 - n_cells, 2.0)
    row = np.zeros(n_cells)
    for taus, ws in unit_octaves(level, t_range, spec):
        lags = np.zeros(n_cells)
        for tau, w in zip(taus, ws):
            v, dv, _, _ = offset_mesh((0.0, 1.0), tau, spec, (0.0, 1.0))
            psi = np.ascontiguousarray(unit.cell_integral(tau, v, edges).T[::-1])
            lags += np.einsum("ki,i->k", psi, psi[0] * dv) * (w / tau)
        row += lags
    row *= factor.scale ** 2 * weight_total(1.0, lam) * 2.0 ** level
    return row[np.abs(np.arange(n_cells)[:, None] - np.arange(n_cells))]


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "cancellative"])
@pytest.mark.parametrize("level, t_range", [(7, (2.0**-8, 2.0)),
                                            (3, (2.0**-12, 2.0**4))])
def test_axis_gram_reuses_one_workspace(monkeypatch, kernel, level, t_range):
    # one workspace per cold gram: every tau-node writes into the same two
    # buffers, also where the meshes differ in size (level 3 over this
    # range), and the gram is bit for bit the one of a fresh cell_integral
    # per node in unit coordinates
    buffers = []
    original = ConvolutionFactor.antiderivative_into

    def spy(self, t, s, out, scratch):
        buffers.append((out.__array_interface__["data"][0],
                        scratch.__array_interface__["data"][0], out.size))
        return original(self, t, s, out, scratch)

    monkeypatch.setattr(ConvolutionFactor, "antiderivative_into", spy)
    factor = kernel.tensor_parts[0]
    spec = QuadratureSpec()
    args = (factor, level, 64, 3.0, t_range, spec)
    gstar._unit_lag_table.cache_clear()
    got = _axis_gram.__wrapped__(*args)
    assert len(buffers) == sum(tau.size for tau, _ in
                               unit_octaves(level, t_range, spec))
    assert len({(out, scratch) for out, scratch, _ in buffers}) == 1
    if level == 3:
        assert len({rows for _, _, rows in buffers}) > 1
    monkeypatch.setattr(ConvolutionFactor, "antiderivative_into", original)
    want = axis_gram_unit_nodes(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "cancellative"])
@pytest.mark.parametrize("level", [0, 3, 7])
@pytest.mark.parametrize("n_cells", [1, 5, 128])
def test_axis_gram_is_the_level_gram_by_dilation(kernel, level, n_cells):
    # the gram read from unit-lattice rows is the level's own per-node
    # quadrature to rounding: the tau-nodes are the t-nodes times 2^level
    # only up to the last bit, on octave-aligned and clipped ranges, and the
    # factor's amplitude enters squared
    spec = QuadratureSpec()
    for t_range in ((2.0**-8, 2.0), (3e-3, 1.7)):
        for scale in (1.0, 2.0, 3.0):
            factor = replace(kernel.tensor_parts[0], scale=scale, label="")
            args = (factor, level, n_cells, 3.0, t_range, spec)
            got = _axis_gram.__wrapped__(*args)
            want = axis_gram_per_scale(*args)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "cancellative"])
def test_axis_grams_do_not_depend_on_the_order_asked(kernel):
    # a lag row is the same however many lags it was formed with, so the
    # grams of levels 4..7 read bit for bit alike whether the table grew
    # from the coarsest level, from the finest, or fresh for each
    factor = kernel.tensor_parts[0]
    spec = QuadratureSpec()
    t_range = (2.0**-13, 2.0**6)
    levels = (4, 5, 6, 7)

    def grams(order, cold_each=False):
        out = {}
        for level in order:
            if cold_each or not out:
                _axis_gram.cache_clear()
                gstar._unit_lag_table.cache_clear()
            out[level] = _axis_gram(factor, level, 2 ** level, 3.0, t_range,
                                    spec).tobytes()
        return out

    alone = grams(levels, cold_each=True)
    assert grams(levels) == alone
    assert grams(levels[::-1]) == alone
    # a one-cell gram is lag 0 of the widest row the table already holds
    one = _axis_gram(factor, 7, 1, 3.0, t_range, spec)
    assert one.tobytes() == _axis_gram(factor, 7, 128, 3.0, t_range,
                                       spec)[:1, :1].tobytes()


def axis_gram_per_lag(factor, level, n_cells, lam, t_range, spec):
    """The axis gram one lag at a time: the unit cell's response at u
    against its response at u + k h, each from its own two ends."""
    h = 2.0 ** -level
    lags = h * np.arange(n_cells)
    row = np.zeros(n_cells)
    tn, tw = octave_nodes(*t_range, spec.t_points_per_octave, spec.rule)
    for t, w in zip(tn, tw):
        pad = gstar._PAD_UNITS * t + h
        grid = graded_axis_edges(-pad, h + pad, (0.0, h),
                                 rel_finest=gstar._MESH_REL)
        u, du = segment_nodes(grid, spec.points_per_cell, spec.rule)
        base = factor.cell_integral(t, u, (0.0, h))[:, 0] / h
        shifted = factor.cell_integral(t, u[:, None] + lags, (0.0, h))[..., 0]
        row += (base * du) @ (shifted / h) * weight_total(t, lam) / t ** 2 * w
    return row[np.abs(np.arange(n_cells)[:, None] - np.arange(n_cells))]


@pytest.mark.parametrize("kernel", [SIZE, CANC], ids=["size", "cancellative"])
@pytest.mark.parametrize("n_cells", [1, 5, 128])
def test_axis_gram_matches_the_per_lag_formula(kernel, n_cells):
    # the shared-end call evaluates u + (k - 1) h where the per-lag formula
    # evaluates (u + k h) - h, so the two agree to rounding only
    factor = kernel.tensor_parts[0]
    args = (factor, 7, n_cells, 3.0, (2.0**-8, 2.0), SP_COARSE)
    got = _axis_gram.__wrapped__(*args)
    want = axis_gram_per_lag(*args)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


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
    # the kernel alone picks the layer: "fast" needs tensor parts, whatever f
    f1, f2 = random_pair(0)
    with pytest.raises(ValueError, match="route"):
        gstar_pointwise(CANC, (f1, f2), (0.0, 0.0), PARAMS, route="sideways")
    f2d = StepFunction(level=1, lo=(0, 0), values=np.ones((2, 2)))
    for f in (f2d, (f1, f2)):
        with pytest.raises(ValueError, match="fast route"):
            gstar_pointwise(OPAQUE, f, (0.0, 0.0), PARAMS, route="fast")


def test_plane_value_is_the_polarization_of_pair_values():
    # theta is bilinear in the two factors, so on a rank-2 V the squared
    # plane value is the polarization of four pair values, to roundoff
    rng = np.random.default_rng(21)
    a, b, c, d = (StepFunction(2, (k,), rng.normal(size=4)) for k in (0, -1, 0, -1))
    plane = StepFunction(2, (0, -1), np.multiply.outer(a.values, b.values)
                         + np.multiply.outer(c.values, d.values))
    x = (0.37, -0.11)

    def sq(f):
        return gstar_pointwise(CANC, f, x, PARAMS, spec=SP_COARSE).value ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        polar = (sq((a, b)) + sq((c, d))
                 + (sq((a + c, b + d)) - sq((a + c, b - d))
                    - sq((a - c, b + d)) + sq((a - c, b - d))) / 8.0)
        got = sq(plane)
    assert got == pytest.approx(polar, rel=1e-12)


def test_plane_fast_route_matches_raw_axis_oracle():
    # the per-axis raw oracle carries the plane f's unit-cell rows too
    rng = np.random.default_rng(4)
    f = StepFunction(level=1, lo=(0, -1), values=rng.normal(size=(2, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast, full = (gstar_pointwise(CANC, f, (0.37, -0.11), PARAMS,
                                      spec=SP_COARSE, route=r).value
                      for r in ("fast", "full"))
    assert full == pytest.approx(fast, rel=1e-3)
    assert full != fast


def test_tensor_kernels_never_take_the_joint_raw_layer(monkeypatch):
    def no_raw(*args, **kwargs):
        raise AssertionError("a tensor kernel reached the joint raw layer")

    monkeypatch.setattr(gstar, "_theta_points_general", no_raw)
    rng = np.random.default_rng(7)
    plane = StepFunction(level=1, lo=(0, 0), values=rng.normal(size=(2, 2)))
    pair = random_pair(1, level=1, size=2)
    sp = QuadratureSpec(points_per_cell=1, t_points_per_octave=1,
                        t_min=2.0**-3, t_max=2.0)
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for f in (plane, pair):
            for route in ("auto", "fast", "full"):
                gstar_pointwise(CANC, f, (0.3, 0.2), PARAMS, spec=sp,
                                route=route)
            for route in ("whitney", "direct", "gram"):
                gstar_sq_norm(CANC, f, PARAMS, grids, spec=sp, route=route)
    with pytest.raises(AssertionError, match="joint raw layer"):
        gstar_pointwise(OPAQUE, plane, (0.3, 0.2), PARAMS, spec=sp)


def wide_axis_value(factor, f, x, lam, spec):
    """The squared pointwise value of one axis for a one-cell f, on a
    y-mesh a thousand times wider than everything in sight, graded toward
    the weight peak and the response kinks, with no far-field closure."""
    (lo, hi), = f.box
    value, = f.values
    total = 0.0
    for t, w in zip(*octave_nodes(spec.t_min, spec.t_max,
                                  spec.t_points_per_octave, spec.rule)):
        radius = 1e3 * max(t, hi - lo, abs(x - lo), abs(x - hi))
        edges = graded_axis_edges(-radius, radius, (0.0, x - hi, x - lo),
                                  rel_finest=t / (64.0 * radius))
        y, dy = segment_nodes(edges, 4, "gauss")
        theta = value * factor.cell_integral(t, x - y, (lo, hi))[:, 0]
        total += float(np.sum(theta ** 2 * (t / (t + np.abs(y))) ** lam * dy)) \
            / t * (w / t)
    return total


def test_pointwise_value_far_from_the_support():
    # at x1 = 3.67 the weight peak u = x1 lies outside the structure zone of
    # [2, 2.25] at the finest scales (128 t + 1/4 < 1.42 for t < 2^-7); the
    # mesh must still reach it, or about 18 % of the value is lost.  The
    # Gauss rule keeps the quadrature error itself near 1e-5: the midpoint
    # rule's 4 nodes per graded segment read the weight peak 2-3e-3 low, at
    # points inside the support too
    f1 = StepFunction(level=2, lo=(8,), values=np.ones(1))
    f2 = StepFunction(level=0, lo=(0,), values=np.ones(1))
    x = (3.67, 0.5)
    sp = QuadratureSpec(t_min=2.0**-8, t_max=2.0**-6, rule="gauss")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = gstar_pointwise(SIZE, (f1, f2), x, PARAMS, spec=sp).value
    g1, g2 = SIZE.tensor_parts
    lam1, lam2 = PARAMS.weight_powers
    want = math.sqrt(wide_axis_value(g1, f1, x[0], lam1, sp)
                     * wide_axis_value(g2, f2, x[1], lam2, sp))
    assert got == pytest.approx(want, rel=1e-3)


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
    # a genuinely non-product f: the lattice collapse against the per-axis
    # response grams of both windowed routes, and against the raw
    # two-parameter assembly (slow, so the configuration is tiny)
    rng = np.random.default_rng(7)
    f = StepFunction(level=1, lo=(0, 0), values=rng.normal(size=(2, 2)))
    sp = QuadratureSpec(points_per_cell=2, t_points_per_octave=2,
                        t_min=2.0**-4, t_max=2.0**2)
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fast = gstar_sq_norm(CANC, f, PARAMS, grids, spec=sp, route="gram")
        per_axis = {r: gstar_sq_norm(CANC, f, PARAMS, grids, spec=sp, route=r)
                    for r in ("direct", "whitney")}
        raw = gstar_sq_norm(OPAQUE, f, PARAMS, grids, spec=sp, route="direct")
    assert per_axis["direct"] == pytest.approx(fast, rel=1e-2)
    assert per_axis["whitney"] == pytest.approx(fast, rel=1e-2)
    assert raw == pytest.approx(fast, rel=5e-2)


def test_whitney_band_nodes_sit_on_the_band_level():
    # a band (lo, hi] within (side/2, side] integrates over the union of the
    # cubes of that side meeting its window, also the end band of a range
    # off a power of two: (2, 2.4] takes the side-4 cubes, not the side-2
    # ones that rounding -log2(hi) would pick.  The union's ends are the
    # outermost cubes' box ends exactly, on a shifted grid as well.
    box = (0.0, 0.5)
    shifted = ShiftedGrid.random(1, -3, 6, seed=4)
    assert all(shifted.shift(level)[0] != 0.0 for level in (-3, -2, 1))
    for grid in (ShiftedGrid.standard(1, -3, 6), shifted):
        band = _band_nodes(box, grid, 2.4)
        for lo, hi, side in ((2.0, 2.4, 4.0), (2.0, 4.0, 4.0), (0.3, 0.5, 0.5),
                             (2.0**-7, 2.0**-6, 2.0**-6), (5.0, 8.0, 8.0)):
            level = -round(math.log2(side))
            cubes = list(grid.cubes_overlapping(
                level, [gstar._norm_window(box, hi)]))
            assert band(lo, hi) == (cubes[0].box()[0][0], cubes[-1].box()[0][1])
    assert _band_nodes(box, None, 2.4)(0.3, 0.5) == \
        gstar._norm_window(box, 2.4)


def test_joint_layer_builds_one_mesh_per_scale_node(monkeypatch):
    # each scale node's u-mesh is made once per sweep and shared by every
    # scale pair it enters, not rebuilt per pair
    spans = []

    def spy(lo, hi, anchors, rel_finest):
        spans.append((lo, hi))
        return graded_axis_edges(lo, hi, anchors, rel_finest=rel_finest)

    monkeypatch.setattr(gstar, "graded_axis_edges", spy)
    rng = np.random.default_rng(2)
    # boxes (0, 1) and (-0.5, 0.5): the two axes' spans differ at every scale
    f = StepFunction(level=1, lo=(0, -1), values=rng.normal(size=(2, 2)))
    sp = QuadratureSpec(points_per_cell=1, t_points_per_octave=2,
                        t_min=2.0**-2, t_max=2.0)
    nodes = octave_nodes(sp.t_min, sp.t_max, sp.t_points_per_octave)[0].size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gstar_pointwise(OPAQUE, f, (0.3, 0.2), PARAMS, spec=sp, route="full")
    assert nodes == 6 and len(spans) == len(set(spans)) == 2 * nodes


def test_joint_whitney_route_agrees_with_the_per_axis_route(monkeypatch):
    # the two layers integrate over the same band interval at every scale
    # node, also on the end band (2, 2.4] of a range off a power of two, and
    # agree in value
    rng = np.random.default_rng(7)
    f1 = StepFunction(level=1, lo=(0,), values=rng.normal(size=2))
    f2 = StepFunction(level=1, lo=(0,), values=rng.normal(size=2))
    grids = (ShiftedGrid.standard(1, -2, 3), ShiftedGrid.standard(1, -2, 3))
    sp = QuadratureSpec(points_per_cell=2, t_points_per_octave=1,
                        t_min=2.0**-2, t_max=2.4)
    per_axis, joint = set(), set()
    gram, raw_axis = gstar.response_gram, gstar._raw_axis

    def gram_spy(factor, f, at, t, *rest):
        per_axis.add((t, at))
        return gram(factor, f, at, t, *rest)

    def axis_spy(f, axis, t, at, *rest):
        joint.add((t, at))
        return raw_axis(f, axis, t, at, *rest)

    monkeypatch.setattr(gstar, "response_gram", gram_spy)
    monkeypatch.setattr(gstar, "_raw_axis", axis_spy)
    gstar_sq_norm(OPAQUE, (f1, f2), PARAMS, grids, spec=sp)
    whitney = gstar_sq_norm(CANC, (f1, f2), PARAMS, grids, spec=sp)
    assert joint == per_axis and max(t for t, _ in joint) > 2.0
    monkeypatch.undo()
    assert whitney == pytest.approx(
        gstar_sq_norm(CANC, (f1, f2), PARAMS, grids, spec=sp, route="gram"),
        rel=2e-3)
    sp = replace(sp, points_per_cell=4)
    assert gstar_sq_norm(OPAQUE, (f1, f2), PARAMS, grids, spec=sp) == \
        pytest.approx(gstar_sq_norm(CANC, (f1, f2), PARAMS, grids, spec=sp),
                      rel=2e-3)


# lambda = 1.2 is outside the theorem region: its weight tail is so heavy
# that the position window leaves out most of the weight mass
with pytest.warns(UserWarning, match="theorem region"):
    HEAVY = default_params(lambda1=1.2, lambda2=1.2, theorem_mode=False)
TOP = 8.0  # top scale of the standard (-3, 6) grids' strip


def test_position_loss_is_the_weight_mass_beyond_the_window():
    assert _position_loss((0.0, 1.0), TOP, 1.2) == pytest.approx(0.5627,
                                                                  abs=1e-4)
    assert _position_loss((0.0, 1.0), TOP, 3.0) == pytest.approx(0.00318,
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


def test_axis_grams_are_the_route_grams_of_the_lattice():
    # the accessor serves the route's cached matrices, read-only; a pair of
    # axis functions reads the lattice of its tensor product
    f1, f2 = random_pair(4, level=3, size=8)
    kernel = make_mixed(1, 1, 0.5, 0.5)
    grids = (ShiftedGrid.standard(1, -3, 6), ShiftedGrid.standard(1, -2, 4))
    sp = SP_COARSE
    m1, m2 = axis_grams(kernel, (f1, f2), PARAMS, grids, sp)
    g1, g2 = kernel.tensor_parts
    assert m1 is _axis_gram(g1, 3, 8, PARAMS.n * PARAMS.lambda1,
                            _grid_t_range(grids[0], sp), sp)
    assert m2 is _axis_gram(g2, 3, 8, PARAMS.m * PARAMS.lambda2,
                            _grid_t_range(grids[1], sp), sp)
    assert not (m1.flags.writeable or m2.flags.writeable)
    plane = StepFunction(level=3, lo=(0, 0), values=np.zeros((8, 8)))
    assert all(a is b for a, b in
               zip(axis_grams(kernel, plane, PARAMS, grids, sp), (m1, m2)))
    with pytest.raises(NotImplementedError, match="tensor kernel"):
        axis_grams(OPAQUE, plane, PARAMS, grids, sp)
    with pytest.raises(ValueError, match="plane"):
        axis_grams(kernel, f1, PARAMS, grids, sp)


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


def _ladder_rungs(ks):
    # run_kdecay's probes: a level-4 cube ~2^(k/2) cells into its ancestor
    grid = ShiftedGrid.standard(1, -10, 8)
    cubes = [grid.cube(4, [min(math.ceil(2 ** (k / 2)), 2 ** (k - 1) - 1)
                           if k > 1 else 0]) for k in ks]
    xs = [0.5 * sum(c.box()[0]) for c in cubes]
    return grid, cubes, xs, [3 / 64 * (1 + k % 3) for k in ks]


def test_ladders_are_their_rungs_bit_for_bit():
    # a ladder batches its rungs' meshes and grams (k) or forms the shared
    # Haar-side gram once (q); every rung reads as its one-rung call
    ks = [1, 3, 6, 9, 13, 14]
    grid, cubes, xs, ts = _ladder_rungs(ks)
    factor = SIZE.tensor_parts[0]
    j1 = grid.cube(1, [0])
    sp = QuadratureSpec(t_min=2.0**-10, t_max=2.0**4)
    got = k_quantity(factor, cubes, ks, xs, ts, PARAMS, sp)
    assert got.tolist() == [k_quantity(factor, c, k, x, t, PARAMS, sp)
                            for c, k, x, t in zip(cubes, ks, xs, ts)]
    got = q_quantity(SIZE, cubes, ks, j1, (xs, 0.3), ts, 0.375, PARAMS, sp)
    assert got.tolist() == [q_quantity(SIZE, c, k, j1, (x, 0.3), t, 0.375,
                                       PARAMS, sp)
                            for c, k, x, t in zip(cubes, ks, xs, ts)]


def test_ladders_refuse_ragged_or_empty_rungs():
    ks = [2, 5]
    grid, cubes, xs, ts = _ladder_rungs(ks)
    factor = SIZE.tensor_parts[0]
    j1 = grid.cube(1, [0])
    for args in ((cubes, ks, xs[:1], ts), (cubes, ks[:1], xs, ts), ([], [], [], [])):
        with pytest.raises(ValueError, match="one generation, point and scale"):
            k_quantity(factor, *args, PARAMS)
        c, k, x, t = args
        with pytest.raises(ValueError, match="one generation, point and scale"):
            q_quantity(SIZE, c, k, j1, (x, 0.3), t, 0.375, PARAMS)
    with pytest.raises(ValueError, match="need k >= 1"):
        k_quantity(factor, cubes, [2, 0], xs, ts, PARAMS)


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
