"""Driver smoke tests at the benchmark's tiny sizes."""

import math
from fractions import Fraction

import pytest

from glstar import dyadic, experiments
from glstar.core import QuadratureSpec, default_params
from glstar.dyadic import ShiftedGrid, is_good, pi_good_exact
from glstar.experiments import (
    run_averaging,
    run_boundratio,
    run_carleson,
    run_cases,
    run_kdecay,
    run_lemma32,
    run_schur,
    sample_lemma32_configs,
)

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
    def no_stream(*args, **kwargs):
        raise AssertionError("a shift was drawn before the refusal")

    monkeypatch.setattr(dyadic, "trial_stream", no_stream)
    with pytest.raises(RuntimeError, match="goodness-starved"):
        run_averaging(default_params(r=8))


def test_averaging_at_defaults():
    rep = run_averaging(PARAMS)
    assert rep.passed
    assert "pi_hat" not in rep.summary
    assert rep.summary["estimate"] == pytest.approx(0.9229428546067622,
                                                    rel=1e-12)


def test_schur_smoke():
    rep = run_schur(PARAMS, collection_sizes=(8, 16, 32), draws=20)
    norms = [rep.summary["norms"][str(s)] for s in (8, 16, 32)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert rep.summary["singleton"] == 2 ** -1.5


def _finite(values):
    return all(math.isfinite(v) and v > 0 for v in values)


def test_lemma32_smoke():
    rep = run_lemma32(PARAMS, configs=sample_lemma32_configs(count=4, seed=5))
    assert len(rep.records) == 4 and rep.summary["configs"] == 4
    assert _finite([r["ratio"] for r in rep.records]
                   + [r["ratio_refined"] for r in rep.records])
    assert rep.passed


def test_kdecay_smoke():
    rep = run_kdecay(PARAMS, k_range=range(1, 11), side_runs=False)
    assert [r["k"] for r in rep.records] == list(range(1, 11))
    assert _finite([r["k_value"] for r in rep.records]
                   + [r["q_value"] for r in rep.records])
    assert rep.passed


def test_kdecay_refuses_ladders_it_cannot_fit():
    # range(1, 9) leaves no generation above plateau_upto=8, range(1, 10) one
    for ks in (range(1, 9), range(1, 10)):
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
