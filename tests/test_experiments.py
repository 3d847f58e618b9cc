"""Driver smoke tests at the benchmark's tiny sizes."""

import inspect
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from glstar import carleson, core, dyadic, experiments, gstar
from glstar.core import (
    QuadratureSpec,
    StepFunction,
    default_params,
    graded_axis_edges,
    octave_nodes,
    segment_nodes,
)
from glstar.dyadic import (
    DyadicCube,
    ShiftedGrid,
    is_good,
    pi_good_exact,
    random_grids,
)
from glstar.experiments import (
    ExperimentReport,
    Lemma32Config,
    NamedIntegrand,
    run_averaging,
    run_boundratio,
    run_carleson,
    run_cases,
    run_kdecay,
    run_lemma32,
    run_schur,
    sample_lemma32_configs,
)
from glstar.gstar import axis_grams, gstar_sq_norm
from glstar.kernels import ConvolutionFactor, make_cancellative, rescale

PARAMS = default_params()

# the caches a driver may fill; a cold run and a warm rerun must agree
CACHES = (gstar._axis_gram, gstar._unit_lag_table, carleson._cij_scales,
          core._rule01, dyadic._offset_cutoffs)


def _finite(values):
    return all(math.isfinite(v) and v > 0 for v in values)


def _check_averaging(rep):
    assert rep.summary["partition_worst_rel"] <= 1e-10
    # pi at the trial grids' own depth lev - j_min, not at ``octaves``
    levels = [int(lev) for lev in rep.summary["pi_exact"]]
    j_min = min(levels) - PARAMS.r - (rep.params["octaves"] - 1)
    gamma = Fraction(PARAMS.gamma_n).limit_denominator(1000)
    assert rep.summary["pi_exact"] == {
        str(lev): float(pi_good_exact(gamma, PARAMS.r, lev - j_min)) for lev in levels
    }


def _check_boundratio(rep):
    assert [r["level"] for r in rep.records] == [3, 4]
    for r in rep.records:
        assert 0 < r["min_ratio"] <= r["max_ratio"]
        assert 0 < r["random_max"] <= r["max_ratio"]
    assert rep.summary["homogeneity_dev"] <= 1e-12
    assert rep.passed


def _check_carleson(rep):
    # one record per kernel and open set, plus the unit square
    assert len(rep.records) == 3 * 1 + 1
    assert all(math.isfinite(r["ratio"]) and r["ratio"] >= 0
               for r in rep.records)
    assert rep.summary["unit_square_count"] == 4.0
    assert rep.summary["second_differences"] == [2.0, 2.0]
    assert rep.summary["vanishing_ok"] and rep.passed


def _check_cases(rep):
    # r = 20 exceeds every depth of the (-13, 6) grids, so goodness is
    # vacuous and every region interval is kept: this pins the expansion at
    # the grids' finest level and the case split's mechanics, not goodness
    assert rep.passed
    assert rep.summary["identity_ok"] and rep.summary["counts_reconcile"]
    assert rep.summary["good_regions"] == (8, 8)
    assert rep.summary["tag_counts"] == {"separated": 3, "nested": 0,
                                         "adjacent": 44}
    assert rep.summary["norm_sq"] == pytest.approx(1.0, rel=1e-12)


def _check_kdecay(rep):
    assert [r["k"] for r in rep.records] == list(range(1, 11))
    assert _finite([r["k_value"] for r in rep.records]
                   + [r["q_value"] for r in rep.records])
    assert rep.passed


def _check_lemma32(rep):
    assert len(rep.records) == 4 and rep.summary["configs"] == 4
    assert _finite([r["ratio"] for r in rep.records]
                   + [r["ratio_refined"] for r in rep.records])
    assert rep.passed


def _check_schur(rep):
    norms = [rep.summary["norms"][str(s)] for s in (8, 16, 32)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert rep.summary["singleton"] == 2 ** -1.5


# every driver's quick settings: (params, keywords, the run's own checks)
QUICK = {
    "run_averaging": (PARAMS, {"trials": 10, "octaves": 1}, _check_averaging),
    "run_boundratio": (PARAMS, {"count": 4, "levels": (3, 4)}, _check_boundratio),
    "run_carleson": (PARAMS, {"omega_count": 1, "levels": 1}, _check_carleson),
    "run_cases": (default_params(r=20),
                  {"whitney_levels": (0, 1), "pad": 0.5,
                   "spec": QuadratureSpec(points_per_cell=2, t_points_per_octave=2)},
                  _check_cases),
    "run_kdecay": (PARAMS, {"k_range": range(1, 11), "side_runs": False},
                   _check_kdecay),
    "run_lemma32": (PARAMS, {"configs": sample_lemma32_configs(count=4, seed=5)},
                    _check_lemma32),
    "run_schur": (PARAMS, {"collection_sizes": (8, 16, 32)}, _check_schur),
}


def test_the_driver_table_is_every_driver():
    # a new driver needs a quick row here, and its report a timing it does
    # not take itself
    drivers = experiments.DRIVERS
    assert sorted(drivers) == sorted(n for n in experiments.__all__
                                     if n.startswith("run_"))
    assert sorted(QUICK) == sorted(drivers)
    for name, run in drivers.items():
        assert run is getattr(experiments, name)
        assert "perf_counter" not in inspect.getsource(run.__wrapped__)


@pytest.mark.parametrize("name", sorted(QUICK))
def test_driver_smoke(name):
    params, kwargs, check = QUICK[name]
    run = experiments.DRIVERS[name]
    for cache in CACHES:
        cache.cache_clear()
    rep = run(params, **kwargs)
    assert rep.name == name.removeprefix("run_")
    json.dumps(rep.to_dict())  # plain data: no serializer hook needed
    assert rep.wall_time > 0
    assert rep.to_dict() == run(params, **kwargs).to_dict()  # warm caches
    check(rep)


def test_boundratio_supremum_is_attained_by_the_top_eigenvectors():
    # the outer product of the two grams' top eigenvectors, as a unit-norm
    # plane function, reaches the reported supremum through the public norm
    level = 4
    rep = run_boundratio(PARAMS, count=1, levels=(3, level))
    kernel = make_cancellative(PARAMS.n, PARAMS.m, 0.5, 0.5)
    grids = (ShiftedGrid.standard(1, -12, 12),) * 2
    lattice = StepFunction(level, (0, 0), np.zeros((2 ** level, 2 ** level)))
    m1, m2 = axis_grams(kernel, lattice, PARAMS, grids)
    u1, u2 = (np.linalg.eigh(m)[1][:, -1] for m in (m1, m2))
    h = 2.0 ** -level
    f = StepFunction(level, (0, 0), np.multiply.outer(u1, u2) / h)
    assert float(np.sum(f.values ** 2)) * h * h == pytest.approx(1.0, rel=1e-14)
    got = math.sqrt(gstar_sq_norm(kernel, f, PARAMS, grids, route="gram"))
    assert got == pytest.approx(rep.records[-1]["max_ratio"], rel=1e-12)


def test_boundratio_refuses_an_indefinite_gram(monkeypatch):
    # the Kronecker bound needs positive semi-definite grams
    def indefinite(kernel, f, *args, **kwargs):
        n = f.shape[0]
        m = np.eye(n)
        m[0, 0] = -0.5
        return m, np.eye(n)

    def no_report(*args, **kwargs):
        raise AssertionError("a report was built from an indefinite gram")

    monkeypatch.setattr(experiments, "axis_grams", indefinite)
    monkeypatch.setattr(experiments, "ExperimentReport", no_report)
    with pytest.raises(RuntimeError, match="not positive semi-definite"):
        run_boundratio(PARAMS, count=1, levels=(3, 4))


def test_boundratio_refuses_empty_sweeps_before_checking(monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a checker ran before the sweep was validated")

    monkeypatch.setattr(experiments, "check_size", no_check)
    with pytest.raises(ValueError, match="count"):
        run_boundratio(PARAMS, count=0)
    with pytest.raises(ValueError, match="level"):
        run_boundratio(PARAMS, levels=())


@pytest.mark.parametrize("levels", [(-1, 4), (4, 13)])
def test_boundratio_refuses_levels_it_cannot_hold(monkeypatch, levels):
    # a negative level has no lattice and level 13 would take 512 MB grams
    # and an eigensolve of 8192 x 8192: refused before any checker or gram
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the levels were validated")

    monkeypatch.setattr(experiments, "check_size", no_work)
    monkeypatch.setattr(experiments, "axis_grams", no_work)

    def refused():
        with pytest.raises(ValueError, match=r"0\.\.10"):
            run_boundratio(PARAMS, levels=levels)

    assert traced_peak(refused) < 2 ** 20


def test_boundratio_evaluates_each_lag_row_once(monkeypatch):
    # every level's and amplitude's gram reads the same unit-lattice lag
    # rows: a cold default run evaluates the finest level's rows and each
    # coarser level's one bottom octave (9,879,660 antiderivative values
    # when each level formed its own), and the amplitude twin none
    evaluated = []
    original = ConvolutionFactor.antiderivative_into

    def spy(self, t, s, out, scratch):
        evaluated.append(s.size)
        return original(self, t, s, out, scratch)

    monkeypatch.setattr(ConvolutionFactor, "antiderivative_into", spy)
    for cache in CACHES:
        cache.cache_clear()
    run_boundratio(PARAMS)
    assert 0 < sum(evaluated) <= 5_200_000
    kernel = make_cancellative(PARAMS.n, PARAMS.m, 0.5, 0.5)
    grids = (ShiftedGrid.standard(1, -12, 12),) * 2
    gstar._axis_gram.cache_clear()
    evaluated.clear()
    for level in (7, 6, 5, 4):
        lattice = StepFunction(level, (0, 0), np.zeros((2 ** level,) * 2))
        axis_grams(rescale(kernel, 2.0), lattice, PARAMS, grids)
    assert evaluated == []


@pytest.mark.parametrize("levels", [(3,), (4, 4)])
def test_boundratio_refuses_one_level_sweeps(monkeypatch, levels):
    # one distinct level has no growth, so a pass would mean homogeneity only
    def no_check(*args, **kwargs):
        raise AssertionError("a checker ran before the sweep was validated")

    monkeypatch.setattr(experiments, "check_size", no_check)
    with pytest.raises(ValueError, match="two distinct levels"):
        run_boundratio(PARAMS, count=1, levels=levels)


def test_averaging_good_sums_use_the_exact_pi():
    # each trial's good sum is its good cubes' exact masses over the exact pi,
    # recomputed here from the trial's grid; the unit box has one band level
    octaves, seed = 1, 7
    rep = run_averaging(PARAMS, trials=5, seed=seed, octaves=octaves)
    lev, = (int(k) for k in rep.summary["pi_exact"])
    j_min = lev - PARAMS.r - (octaves - 1)
    inv_pi = 1.0 / float(pi_good_exact(Fraction(1, 6), PARAMS.r, lev - j_min))
    sums = []
    grids = random_grids(1, j_min, lev + 1, seed,
                         [rec["trial"] for rec in rep.records])
    for rec, grid in zip(rep.records, grids):
        good = 0.0
        for cube in grid.cubes_overlapping(lev, [(0.0, 1.0)]):
            lo = Fraction(cube.lattice_corner(grid.j_max)[0], 2 ** grid.j_max)
            hi = lo + Fraction(1, 2 ** lev)
            w = float(min(hi, 1) - max(lo, 0)) * math.log(2.0)
            if w > 0 and is_good(cube, grid, PARAMS):
                good += w * inv_pi
        sums.append(good)
        assert rec["good_sum"] == pytest.approx(good, rel=1e-15, abs=0)
    assert any(sums)  # some trial has a good cube, so pi is really applied


def test_averaging_refuses_a_starved_radius_before_drawing(monkeypatch):
    # at r = 8 the exact pi is 0 at the band level: refused with no shift drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a shift was drawn before the refusal")

    monkeypatch.setattr(dyadic, "_shift_bits", no_draw)
    with pytest.raises(RuntimeError, match="goodness-starved"):
        run_averaging(default_params(r=8))


@pytest.mark.parametrize("octaves", [0, -3])
def test_averaging_refuses_vacuous_goodness_before_drawing(monkeypatch, octaves):
    # with no qualifying octave pi is 1 at every band level and every cube is
    # good vacuously, so a pass would check the partition only
    def no_draw(*args, **kwargs):
        raise AssertionError("a shift was drawn before the refusal")

    monkeypatch.setattr(dyadic, "_shift_bits", no_draw)
    with pytest.raises(ValueError, match="qualifying octave"):
        run_averaging(PARAMS, trials=10, octaves=octaves)


@pytest.mark.parametrize("trials", [1, 0])
def test_averaging_refuses_fewer_than_two_trials_before_drawing(monkeypatch,
                                                                trials):
    # one trial has no spread, so its 95 % half-width would read 0 and the
    # stochastic check would rest on nothing
    def no_draw(*args, **kwargs):
        raise AssertionError("a shift was drawn before the refusal")

    monkeypatch.setattr(dyadic, "_shift_bits", no_draw)
    with pytest.raises(ValueError, match="at least two trials"):
        run_averaging(PARAMS, trials=trials)


def test_averaging_at_defaults():
    rep = run_averaging(PARAMS)
    assert rep.passed
    assert "pi_hat" not in rep.summary
    assert rep.summary["estimate"] == pytest.approx(0.9229428546067622,
                                                    rel=1e-12)


def _old_interval_integral(f, cube):
    unit = max(f.level, cube.grid.j_max)
    a, = cube.lattice_corner(unit)
    b = a + (1 << (unit - cube.level))
    cell = 1 << (unit - f.level)
    parts = []
    for i, v in enumerate(f.values):
        if v == 0.0:
            continue
        lo = (f.lo[0] + i) * cell
        w = min(b, lo + cell) - max(a, lo)
        if w > 0:
            parts.append(math.ldexp(w, -unit) * float(v))
    return math.fsum(parts)


def _old_run_averaging(params, integrand=None, trials=1000, seed=7, octaves=12):
    """run_averaging as it built one grid per trial and tested its cubes one
    at a time with is_good."""
    integrand = integrand or NamedIntegrand.unit_box()
    levels = experiments._band_levels(integrand)
    j_min = min(levels) - params.r - (octaves - 1)
    j_max = max(levels) + 1
    closed = integrand.x_integral() * math.log(integrand.t_hi / integrand.t_lo)
    gamma = params.gamma_n if params.n == 1 else params.gamma_m
    pi_exact = {lev: pi_good_exact(gamma, params.r, lev - j_min) for lev in levels}
    support, = integrand.x_part.box

    def one_trial(grid):
        full = []
        good = 0.0
        for lev in levels:
            blog = integrand.band_log(2.0 ** -(lev + 1), 2.0 ** -lev)
            inv_pi = 1.0 / pi_exact[lev]
            for cube in grid.cubes_overlapping(lev, [support]):
                w = _old_interval_integral(integrand.x_part, cube) * blog
                full.append(w)
                if w != 0.0 and is_good(cube, grid, params):
                    good += w * inv_pi
        det = math.fsum(full)
        rel = abs(det - closed) / abs(closed) if closed else abs(det)
        return rel, good

    results = [one_trial(grid) for grid in
               random_grids(1, j_min, j_max, seed, range(trials))]
    rels = np.array([r for r, _ in results])
    sums = np.array([s for _, s in results])
    estimate = float(np.mean(sums))
    sd = float(np.std(sums, ddof=1)) if trials > 1 else 0.0
    ci95 = 1.96 * sd / math.sqrt(trials)
    partition_worst = float(np.max(rels))
    return ExperimentReport(
        name="averaging",
        params=experiments._snapshot(params, integrand=integrand.name,
                                     octaves=octaves, trials=trials),
        seed=seed,
        records=tuple({"trial": t, "partition_rel": float(rels[t]),
                       "good_sum": float(sums[t])} for t in range(min(trials, 100))),
        summary={
            "integrand": integrand.name,
            "closed_total": closed,
            "partition_worst_rel": partition_worst,
            "estimate": estimate,
            "ci95": ci95,
            "rel_err": abs(estimate - closed) / abs(closed) if closed else abs(estimate),
            "trials": trials,
            "pi_exact": {str(l): float(pi) for l, pi in pi_exact.items()},
        },
        passed=(partition_worst <= 1e-10
                and abs(estimate - closed) <= max(ci95, 1e-15)),
        wall_time=0.0,
        notes=(f"trial grids span levels [{j_min}, {j_max}]; band levels {levels}; "
               f"{octaves} qualifying octaves per cube; partial scale bands "
               "integrate in closed form, so the partition check carries no "
               "quadrature error"),
    )


_FIVE_CELLS = NamedIntegrand("five", StepFunction(3, (-2,), np.array([1.5, -0.25, 3.0, 0.0, 2.0])),
                             2.0 ** -5, 1.0)  # band levels 0..4, j_max 5 > level 3
_FINE = NamedIntegrand("fine", StepFunction(6, (-3,), np.arange(1.0, 12.0)), 0.3, 0.9)
# a coarse cube's cell pieces cancel: only an exact sum gets them right
_CANCEL = NamedIntegrand("cancel", StepFunction(3, (0,), np.array([1e16, 1.0, -1e16, 3.0])),
                         0.25, 1.0)


@pytest.mark.parametrize("params, kwargs", [
    (PARAMS, {}),
    (PARAMS, {"seed": 8}),
    (PARAMS, {"octaves": 3, "trials": 50}),
    (PARAMS, {"seed": 3, "trials": 200}),
    (PARAMS, {"integrand": _FIVE_CELLS, "trials": 200}),
    # r = 12 at shallow depth: about 40 % of the trials have a good cube
    (default_params(r=12), {"integrand": _FIVE_CELLS, "trials": 200, "octaves": 3}),
    # x_part.level 6 > j_max 2: the integer corners are finer than the grids
    (default_params(r=12), {"integrand": _FINE, "trials": 100, "octaves": 2}),
    (default_params(r=12), {"integrand": _CANCEL, "trials": 50, "octaves": 2}),
    # depth 50 <= 53, where the float cubes_overlapping route is still exact
    (default_params(r=20), {"octaves": 30, "trials": 100}),
    # depth 70: the table and every corner are Python integers
    (default_params(r=30), {"octaves": 40, "trials": 30}),
])
def test_averaging_is_the_per_trial_loop(params, kwargs):
    new = run_averaging(params, **kwargs)
    assert new.to_dict() == _old_run_averaging(params, **kwargs).to_dict()


@pytest.mark.parametrize("block", [1, 7, 64])
def test_averaging_in_trial_blocks_is_one_block(monkeypatch, block):
    # trials run in blocks to bound memory; a block's columns past some
    # trial's last cube weigh 0, so the split leaves every number unchanged
    whole = run_averaging(PARAMS, trials=150, seed=4, octaves=3).to_dict()
    monkeypatch.setattr(dyadic, "_TRIAL_BLOCK", block)
    assert run_averaging(PARAMS, trials=150, seed=4, octaves=3).to_dict() == whole


def test_averaging_builds_no_grid_or_cube(monkeypatch):
    built = {"grids": 0, "cubes": 0}
    post_init, cube_init = ShiftedGrid.__post_init__, DyadicCube.__init__

    def count_grid(self):
        built["grids"] += 1
        post_init(self)

    def count_cube(self, *args, **kwargs):
        built["cubes"] += 1
        cube_init(self, *args, **kwargs)

    monkeypatch.setattr(ShiftedGrid, "__post_init__", count_grid)
    monkeypatch.setattr(DyadicCube, "__init__", count_cube)
    ShiftedGrid.standard(1, 0, 2).cube(1, (0,))  # the counters do count
    assert built == {"grids": 1, "cubes": 1}
    run_averaging(PARAMS, trials=50)
    assert built == {"grids": 1, "cubes": 1}


def test_trial_sweeps_build_no_generator(monkeypatch):
    # every trial's shift bits come from one array Philox over the trials'
    # counters, not from a numpy generator per trial
    built = []
    philox, generator = np.random.Philox, np.random.Generator

    def count_philox(*args, **kwargs):
        built.append("Philox")
        return philox(*args, **kwargs)

    def count_generator(*args, **kwargs):
        built.append("Generator")
        return generator(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", count_philox)
    monkeypatch.setattr(np.random, "Generator", count_generator)
    dyadic.trial_stream(5, 1)  # the counters do count
    assert sorted(built) == ["Generator", "Philox"]
    built.clear()
    dyadic.estimate_pi_good(PARAMS, 3000, 12, 3000, j_min=1)
    run_averaging(PARAMS)
    assert built == []


def test_schur_norms_are_the_top_eigenvalues():
    # the matrix is nonnegative and symmetric, so its Perron root is its
    # largest eigenvalue and the exact supremum of the quadratic form: the
    # power iteration must land on eigvalsh's at every section
    rep = run_schur(PARAMS)
    grid, levels, index = experiments._draw_collection(512, 23)
    big = dyadic.box_schur_matrix(grid.boxes(levels, index), levels, 0.5)
    for size, norm in rep.summary["norms"].items():
        s = int(size)
        top = np.linalg.eigvalsh(big[:s, :s])[-1]
        assert abs(norm / top - 1.0) <= 1e-12, size
    assert not rep.passed and rep.summary["final_growth"] > 0.05


def test_draw_collection_draws_levels_uniformly():
    # cube (l, k) is weighted 1 / (9 * 4 * 2^l), so a family's first cube
    # has a uniform level, as when level and position are drawn uniformly
    _, levels, index = experiments._draw_collection(512, 7)
    assert np.all((0 <= index[:, 0]) & (index[:, 0] < 4 << levels))
    firsts = [int(experiments._draw_collection(1, seed)[1][0])
              for seed in range(360)]
    assert np.all(np.abs(np.bincount(firsts, minlength=9) / 360 - 1 / 9) < 0.06)


@pytest.mark.parametrize("sizes", [(8,), (64, 64)])
def test_schur_refuses_fewer_than_two_sizes_before_drawing(monkeypatch, sizes):
    # one distinct size has no growth, so a pass would not mean saturation
    def no_draw(*args, **kwargs):
        raise AssertionError("a cube was drawn before the refusal")

    monkeypatch.setattr(experiments, "_draw_collection", no_draw)
    with pytest.raises(ValueError, match="two distinct positive"):
        run_schur(PARAMS, collection_sizes=sizes)


def test_schur_refuses_more_cubes_than_the_draw_holds(monkeypatch):
    # levels 0..8 with positions in [0, 4) hold 2,044 distinct cubes; the
    # draw reaches every one of them, and a larger family would never end
    _, levels, index = experiments._draw_collection(2044, 23)
    assert len(set(zip(levels.tolist(), index[:, 0].tolist()))) == 2044

    def no_draw(*args, **kwargs):
        raise AssertionError("a cube was drawn before the refusal")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(ShiftedGrid, "random", no_draw)
    with pytest.raises(ValueError, match="at most 2044 distinct cubes"):
        run_schur(PARAMS, collection_sizes=(8, 2045))


def test_draw_collection_refuses_an_oversized_family_before_drawing(monkeypatch):
    # called directly, a family above 2,044 cubes is refused too, before
    # its generator or grid exists, instead of drawing forever
    def no_draw(*args, **kwargs):
        raise AssertionError("a cube was drawn before the refusal")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(ShiftedGrid, "random", no_draw)
    with pytest.raises(ValueError, match="at most 2044 distinct cubes"):
        experiments._draw_collection(2045, 23)


def test_lemma32_refuses_an_empty_configuration_list():
    with pytest.raises(ValueError, match="at least one configuration"):
        run_lemma32(PARAMS, configs=[])


@pytest.mark.parametrize("i1", [(0.0, 0.75), (0.1, 0.6), (0.25, 0.75)])
def test_lemma32_refuses_a_non_dyadic_target_interval(i1):
    with pytest.raises(ValueError, match="dyadic"):
        run_lemma32(PARAMS, configs=[Lemma32Config(i1, (0.0, 1.0), 0.5, 0.75)])


def test_lemma32_refuses_an_exponent_outside_the_band_before_quadrature(
        monkeypatch):
    # lambda1 = 2.5 admits exponents up to n (lambda1 - 2)/2 = 0.25, below
    # the fixed 0.5
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a response gram ran before the refusal")

    monkeypatch.setattr(experiments, "response_gram", no_quadrature)
    with pytest.raises(ValueError, match="admissible band"):
        run_lemma32(default_params(lambda1=2.5, alpha=0.25))


@pytest.mark.parametrize("bad, match", [
    (Lemma32Config((0.0, 0.75), (0.0, 1.0), 0.5, 0.75), "dyadic"),
    (Lemma32Config((0.0, 1.0), (0.0, 1.0), 0.5, 0.25), "Whitney region"),
])
def test_lemma32_checks_every_configuration_before_quadrature(
        monkeypatch, bad, match):
    # a bad last configuration is refused before the first gram of the
    # 119 good ones before it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a response gram ran before the refusal")

    monkeypatch.setattr(experiments, "response_gram", counted)
    with pytest.raises(ValueError, match=match):
        run_lemma32(PARAMS, configs=sample_lemma32_configs(count=119) + [bad])
    assert calls == []


LEMMA32_ALPHA = 0.5  # run_lemma32's fixed exponent


def lemma32_lhs(cfg, lam, spec):
    """The one-factor tail integral on its own wide y-mesh: 64 times the
    configuration span, graded toward the weight peak and the interval
    edges, with no far-field closure."""
    lo1, hi1 = cfg.i1
    x1, t1, a = cfg.x1, cfg.t1, LEMMA32_ALPHA
    factor = ConvolutionFactor(1, a, "size")
    span = max(t1, hi1 - lo1, abs(x1 - lo1), abs(x1 - hi1), 1.0)
    radius = 64.0 * span
    fine = min(2.0 ** -16, t1 / (16.0 * radius))
    edges = graded_axis_edges(-radius, radius, (0.0, x1 - hi1, x1 - lo1),
                              rel_finest=fine)
    y, dy = segment_nodes(edges, spec.points_per_cell, spec.rule)
    inner = factor.cell_integral(t1, x1 - y, (lo1, hi1))[:, 0] / t1 ** a
    weight = (t1 / (t1 + np.abs(y))) ** lam
    return math.sqrt(float(np.sum(inner ** 2 * weight * dy / t1)))


def test_lemma32_matches_the_wide_mesh_oracle():
    # the response gram of 1_{I1} against the wide-mesh integral, at the
    # default spec and its refinement, on every default configuration
    rep = run_lemma32(PARAMS)
    spec = QuadratureSpec()
    lam = PARAMS.weight_powers[0]
    worst = 0.0
    for cfg, rec in zip(sample_lemma32_configs(), rep.records):
        (lo1, hi1), (lo2, hi2) = cfg.i1, cfg.i2
        gap = max(0.0, lo2 - hi1, lo1 - hi2)
        rhs = (hi1 - lo1) / (hi2 - lo2 + gap) ** (1.0 + LEMMA32_ALPHA)
        for key, sp in (("ratio", spec), ("ratio_refined", spec.refined())):
            worst = max(worst, abs(rec[key] * rhs / lemma32_lhs(cfg, lam, sp) - 1.0))
    assert len(rep.records) == 120
    assert worst <= 1e-3


@pytest.mark.parametrize("spec",
                         [QuadratureSpec(), QuadratureSpec().refined()],
                         ids=["default", "refined"])
def test_lemma32_grams_are_unit_cell_grams_by_dilation(spec):
    # the factor and dy/t commute with x -> (x - lo)/|I|, t -> t/|I|, so the
    # gram of 1_I at (x, t) is the unit cell's at the mapped point, up to
    # the rounding of the two meshes
    factor = ConvolutionFactor(1, LEMMA32_ALPHA, "size")
    lam = PARAMS.weight_powers[0]
    unit = StepFunction(0, (0,), np.ones(1))
    worst = 0.0
    for cfg in sample_lemma32_configs():
        lo, side = cfg.i1[0], cfg.i1[1] - cfg.i1[0]
        level = -int(math.log2(side))
        target = StepFunction(level, (round(lo / side),), np.ones(1))
        got = gstar.response_gram(factor, target, cfg.x1, cfg.t1, lam, spec)
        want = gstar.response_gram(factor, unit, (cfg.x1 - lo) / side,
                                   cfg.t1 / side, lam, spec)
        worst = max(worst, abs(got[0, 0] / want[0, 0] - 1.0))
    assert worst <= 1e-13


def traced_peak(run):
    """The tracemalloc peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kdecay_peak_memory_is_bounded():
    # the ancestor pattern at k = 14 spans 1,024 cells but jumps at three
    # edges; its response sums by parts over the jumps, so no (u-nodes x
    # cells) matrix is made and the traced peak stays under 2 MB
    run_kdecay(default_params())
    assert traced_peak(lambda: run_kdecay(default_params())) < 2 * 2 ** 20


@pytest.mark.parametrize("run, budget_mb", [(run_carleson, 2.0),
                                            (run_boundratio, 3.0),
                                            (run_lemma32, 2.0)])
def test_driver_peak_memory_is_within_its_budget(run, budget_mb):
    # cold, so the peak holds every open set's kept containment masks and
    # row counts and the lag rows' mesh batches: 0.45 and 1.9 MB at their
    # defaults; the 240 interval grams of run_lemma32 run in row blocks,
    # 0.9 MB
    for cache in CACHES:
        cache.cache_clear()
    assert traced_peak(lambda: run(default_params())) < budget_mb * 2 ** 20


def test_cases_refuses_a_domain_above_the_cell_guard():
    # at grid seed 8 the domain cube containing f spans 512 x 262,144 cells
    # at the expansion level; expand refuses it before building its table
    def refused():
        with pytest.raises(ValueError, match="_MAX_CELLS"):
            run_cases(default_params(), grid_pair_seed=8)

    assert traced_peak(refused) < 64 * 2 ** 20


def test_kdecay_forms_the_haar_side_gram_once(monkeypatch):
    # each generation's modified pattern takes its own response gram, but
    # the Haar side's (J1, x2, t2) is the same at every generation: 14 + 1
    # grams at the defaults, not two per generation
    grams, gram = [], gstar.response_gram

    def counted(*args, **kwargs):
        grams.append(args[1])
        return gram(*args, **kwargs)

    monkeypatch.setattr(gstar, "response_gram", counted)
    assert run_kdecay(PARAMS).passed
    assert len(grams) <= 15


def test_kdecay_refuses_ladders_it_cannot_fit(monkeypatch):
    # range(1, 9) leaves no generation above plateau_upto=8, range(1, 10)
    # one, and range(9, 15) none at or below it, so no plateau to check;
    # each is refused before any quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quantity was computed before the refusal")

    monkeypatch.setattr(experiments, "k_quantity", no_quadrature)
    monkeypatch.setattr(experiments, "q_quantity", no_quadrature)
    for ks in (range(1, 9), range(1, 10), range(9, 15)):
        with pytest.raises(ValueError, match="plateau_upto"):
            run_kdecay(PARAMS, k_range=ks, side_runs=False)


def test_carleson_draws_its_grids_in_one_call(monkeypatch):
    # the 2 omega_count grids come from one array Philox, not one draw each
    draws = []
    original = dyadic._shift_bits

    def spy(dim, j_min, j_max, seed, trials):
        draws.append(list(trials))
        return original(dim, j_min, j_max, seed, trials)

    monkeypatch.setattr(dyadic, "_shift_bits", spy)
    run_carleson(PARAMS, omega_count=3, levels=1)
    assert draws == [list(range(6))]


def test_carleson_at_defaults():
    # three kernels over the default four open sets, plus the unit square
    # under the size-only kernel, whose depth law it also keeps
    rep = run_carleson(PARAMS)
    assert rep.passed
    assert len(rep.records) == 3 * 4 + 1
    assert rep.summary["unit_square_count"] == (3 + 1) ** 2
    assert rep.summary["second_differences"] == [2.0] * 5
    for r in rep.records:
        if r["kernel"].startswith("size"):
            assert 0.0 < r["ratio"] < r["ratio_deeper"]
        else:
            assert r["ratio"] == r["ratio_deeper"] == 0.0


def test_cases_skips_levels_with_no_cube_in_the_box():
    # pad = -0.6 gives the reversed box (0.6, 0.4): no cube at levels 3 and
    # up, none at 1-2 on the first grid of grid_pair_seed 13 and none at 2 on
    # the second, while goodness is in force (r = 13) at every level here
    params = default_params(r=13)
    spec = QuadratureSpec(points_per_cell=2, t_points_per_octave=2)
    rep = run_cases(params, whitney_levels=(0, 2), pad=-0.6, spec=spec)
    kept = []
    for grid in random_grids(1, -13, 6, 13, (0, 1)):
        cubes = [c for lev in range(3) for c in grid.cubes_overlapping(lev, [(0.6, 0.4)])]
        kept.append(sum(is_good(c, grid, params) for c in cubes))
    assert rep.summary["good_regions"] == tuple(kept) == (1, 2)
    with pytest.raises(RuntimeError, match="no good region"):
        run_cases(params, whitney_levels=(3, 4), pad=-0.6, spec=spec)


def test_cases_keeps_the_regions_is_good_keeps():
    # at r = 13 goodness filters: 11 of the 24 region intervals near the
    # support are good on each of the (-13, 6) grids of grid_pair_seed 13,
    # and the per-level array test keeps exactly the cubes is_good keeps
    params = default_params(r=13)
    rep = run_cases(params, whitney_levels=(0, 2), pad=1.0,
                    spec=QuadratureSpec(points_per_cell=2, t_points_per_octave=2))
    kept, seen = [], []
    for grid in random_grids(1, -13, 6, 13, (0, 1)):
        cubes = [c for lev in range(3) for c in grid.cubes_overlapping(lev, [(-1.0, 2.0)])]
        kept.append(sum(is_good(c, grid, params) for c in cubes))
        seen.append(len(cubes))
    assert rep.passed
    assert rep.summary["good_regions"] == tuple(kept) == (11, 11)
    assert seen == [24, 24]


def member_theta(factor, idx, t, u):
    """Response of one Haar member under the convolution factor at scale t."""
    (lo, hi), = idx.cube.box()
    scale = idx.cube.side ** -0.5
    if idx.cancellative:
        halves = factor.cell_integral(t, u, (lo, 0.5 * (lo + hi), hi))
        return scale * (halves[..., 0] - halves[..., 1])
    return scale * factor.cell_integral(t, u, (lo, hi))[..., 0]


def whitney_gram(factor, members, w_cube, lam, spec):
    """Gram matrix of member responses over one Whitney region, member by
    member on a wide y-mesh per scale and position node, graded toward the
    weight peak and every member's edges and midpoint.  The position runs
    over 4 Gauss nodes across the region cube."""
    (wlo, whi), = w_cube.box()
    side = w_cube.side
    tn, tw = octave_nodes(side / 2.0, side, spec.t_points_per_octave, spec.rule)
    xs, xw = segment_nodes(np.array([wlo, whi]), 4, "gauss")
    edges = sorted({b for m in members for b in
                    (m.cube.box()[0][0], m.cube.box()[0][1],
                     0.5 * sum(m.cube.box()[0]))})
    gram = np.zeros((len(members), len(members)))
    for t, wt in zip(tn, tw):
        radius = 48.0 * max(t, whi - wlo, 1.0)
        for x, wx in zip(xs, xw):
            anchors = tuple(x - e for e in edges) + (0.0,)
            fine = min(2.0 ** -16, t / (8.0 * radius))
            mesh = graded_axis_edges(-radius, radius, anchors, rel_finest=fine)
            y, dy = segment_nodes(mesh, 2, spec.rule)
            theta = np.stack([member_theta(factor, m, t, x - y) for m in members])
            weight = (t / (t + np.abs(y))) ** lam * dy / t
            gram += (wt / t * wx) * ((theta * weight) @ theta.T)
    return gram


def test_cases_region_grams_match_the_member_oracle(monkeypatch):
    # every region gram of the smoke run against the member-by-member
    # quadrature, in relative Frobenius norm
    seen = []

    def spy(factor, lattice, rows, cube, lam, spec):
        gram = region_gram(factor, lattice, rows, cube, lam, spec)
        seen.append((factor, cube, lam, spec, gram))
        return gram

    region_gram = experiments._region_gram
    members = []
    synthesis = experiments._haar_synthesis
    monkeypatch.setattr(experiments, "_region_gram", spy)
    monkeypatch.setattr(experiments, "_haar_synthesis",
                        lambda ms: members.append(ms) or synthesis(ms))
    rep = run_cases(default_params(r=20), whitney_levels=(0, 1), pad=0.5,
                    spec=QuadratureSpec(points_per_cell=2, t_points_per_octave=2))
    assert rep.summary["good_regions"] == (8, 8) and len(seen) == 16
    worst = 0.0
    for k, (factor, cube, lam, spec, gram) in enumerate(seen):
        want = whitney_gram(factor, members[k // 8], cube, lam, spec)
        worst = max(worst, np.linalg.norm(gram - want) / np.linalg.norm(want))
    assert worst <= 1e-2
