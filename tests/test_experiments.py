"""Driver smoke tests at the benchmark's tiny sizes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from glstar import dyadic, experiments
from glstar.core import (
    QuadratureSpec,
    StepFunction,
    default_params,
    graded_axis_edges,
    octave_nodes,
    segment_nodes,
)
from glstar.dyadic import DyadicCube, ShiftedGrid, is_good, pi_good_exact
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
from glstar.kernels import ConvolutionFactor

PARAMS = default_params()


def test_boundratio_smoke():
    rep = run_boundratio(PARAMS, count=4, levels=(3, 4))
    assert [r["level"] for r in rep.records] == [3, 4]
    assert all(r["max_ratio"] > 0 for r in rep.records)
    assert rep.summary["homogeneity_dev"] <= 1e-12


def test_boundratio_refuses_empty_sweeps_before_checking(monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a checker ran before the sweep was validated")

    monkeypatch.setattr(experiments, "check_size", no_check)
    with pytest.raises(ValueError, match="count"):
        run_boundratio(PARAMS, count=0)
    with pytest.raises(ValueError, match="level"):
        run_boundratio(PARAMS, levels=())


@pytest.mark.parametrize("levels", [(3,), (4, 4)])
def test_boundratio_refuses_one_level_sweeps(monkeypatch, levels):
    # one distinct level has no growth, so a pass would mean homogeneity only
    def no_check(*args, **kwargs):
        raise AssertionError("a checker ran before the sweep was validated")

    monkeypatch.setattr(experiments, "check_size", no_check)
    with pytest.raises(ValueError, match="two distinct levels"):
        run_boundratio(PARAMS, count=1, levels=levels)


def test_averaging_smoke():
    octaves = 1
    rep = run_averaging(PARAMS, trials=10, octaves=octaves)
    assert rep.summary["partition_worst_rel"] <= 1e-10
    # pi at the trial grids' own depth lev - j_min, not at ``octaves``
    levels = [int(lev) for lev in rep.summary["pi_exact"]]
    j_min = min(levels) - PARAMS.r - (octaves - 1)
    gamma = Fraction(PARAMS.gamma_n).limit_denominator(1000)
    assert rep.summary["pi_exact"] == {
        str(lev): float(pi_good_exact(gamma, PARAMS.r, lev - j_min)) for lev in levels
    }


def test_averaging_good_sums_use_the_exact_pi():
    # each trial's good sum is its good cubes' exact masses over the exact pi,
    # recomputed here from the trial's grid; the unit box has one band level
    octaves, seed = 1, 7
    rep = run_averaging(PARAMS, trials=5, seed=seed, octaves=octaves)
    lev, = (int(k) for k in rep.summary["pi_exact"])
    j_min = lev - PARAMS.r - (octaves - 1)
    inv_pi = 1.0 / float(pi_good_exact(Fraction(1, 6), PARAMS.r, lev - j_min))
    sums = []
    for rec in rep.records:
        grid = ShiftedGrid.random(1, j_min, lev + 1, seed, trial=rec["trial"])
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

    def one_trial(trial):
        grid = ShiftedGrid.random(1, j_min, j_max, seed, trial=trial)
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

    results = [one_trial(t) for t in range(trials)]
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
    monkeypatch.setattr(experiments, "_TRIAL_BLOCK", block)
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


@pytest.mark.parametrize("draws", [0, -1])
def test_schur_refuses_a_check_without_draws_before_building(monkeypatch, draws):
    # no draw would leave the quadratic inequality checked on nothing
    def no_matrix(*args, **kwargs):
        raise AssertionError("the matrix was built before the refusal")

    monkeypatch.setattr(experiments, "schur_matrix", no_matrix)
    with pytest.raises(ValueError, match="at least one draw"):
        run_schur(PARAMS, collection_sizes=(8, 16), draws=draws)


def test_schur_smoke():
    rep = run_schur(PARAMS, collection_sizes=(8, 16, 32), draws=20)
    norms = [rep.summary["norms"][str(s)] for s in (8, 16, 32)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert rep.summary["singleton"] == 2 ** -1.5


@pytest.mark.parametrize("sizes", [(8,), (64, 64)])
def test_schur_refuses_fewer_than_two_sizes_before_drawing(monkeypatch, sizes):
    # one distinct size has no growth, so a pass would not mean saturation
    def no_draw(*args, **kwargs):
        raise AssertionError("a cube was drawn before the refusal")

    monkeypatch.setattr(experiments, "_draw_collection", no_draw)
    with pytest.raises(ValueError, match="two distinct positive"):
        run_schur(PARAMS, collection_sizes=sizes, draws=1)


def _finite(values):
    return all(math.isfinite(v) and v > 0 for v in values)


def test_lemma32_smoke():
    rep = run_lemma32(PARAMS, configs=sample_lemma32_configs(count=4, seed=5))
    assert len(rep.records) == 4 and rep.summary["configs"] == 4
    assert _finite([r["ratio"] for r in rep.records]
                   + [r["ratio_refined"] for r in rep.records])
    assert rep.passed


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


def test_kdecay_smoke():
    rep = run_kdecay(PARAMS, k_range=range(1, 11), side_runs=False)
    assert [r["k"] for r in rep.records] == list(range(1, 11))
    assert _finite([r["k_value"] for r in rep.records]
                   + [r["q_value"] for r in rep.records])
    assert rep.passed


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


def test_carleson_smoke():
    rep = run_carleson(PARAMS, omega_count=1, levels=1)
    # one record per kernel and open set, plus the unit square
    assert len(rep.records) == 3 * 1 + 1
    assert all(math.isfinite(r["ratio"]) and r["ratio"] >= 0
               for r in rep.records)
    assert rep.summary["pattern_ok"] and rep.passed


def test_carleson_at_defaults():
    # three kernels over the default four open sets, plus the unit square
    rep = run_carleson(PARAMS)
    assert rep.passed and rep.summary["pattern_ok"]
    assert len(rep.records) == 3 * 4 + 1
    assert rep.summary["unit_square_law_rel_err"] < 0.05


def test_cases_smoke():
    # r = 20 exceeds every depth of the (-13, 6) grids, so goodness is
    # vacuous and every region interval is kept: this pins the expansion at
    # the grids' finest level and the case split's mechanics, not goodness
    rep = run_cases(default_params(r=20), whitney_levels=(0, 1), pad=0.5,
                    spec=QuadratureSpec(points_per_cell=2, t_points_per_octave=2))
    assert rep.passed
    assert rep.summary["identity_ok"] and rep.summary["counts_reconcile"]
    assert rep.summary["good_regions"] == (8, 8)
    assert rep.summary["tag_counts"] == {"separated": 3, "nested": 0,
                                         "adjacent": 44}
    assert rep.summary["norm_sq"] == pytest.approx(1.0, rel=1e-12)


def test_cases_skips_levels_with_no_cube_in_the_box():
    # pad = -0.6 gives the reversed box (0.6, 0.4): no cube at levels 3 and
    # up, none at 1-2 on the first grid of grid_pair_seed 13 and none at 2 on
    # the second, while goodness is in force (r = 13) at every level here
    params = default_params(r=13)
    spec = QuadratureSpec(points_per_cell=2, t_points_per_octave=2)
    rep = run_cases(params, whitney_levels=(0, 2), pad=-0.6, spec=spec)
    kept = []
    for trial in (0, 1):
        grid = ShiftedGrid.random(1, -13, 6, 13, trial=trial)
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
    for trial in (0, 1):
        grid = ShiftedGrid.random(1, -13, 6, 13, trial=trial)
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
