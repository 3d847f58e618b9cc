"""Driver smoke tests at the benchmark's tiny sizes."""

from fractions import Fraction

from glstar.core import default_params
from glstar.dyadic import pi_good_exact
from glstar.experiments import run_averaging, run_boundratio, run_schur

PARAMS = default_params()


def test_boundratio_smoke():
    rep = run_boundratio(PARAMS, count=4, levels=(3, 4))
    assert [r["level"] for r in rep.records] == [3, 4]
    assert all(r["max_ratio"] > 0 for r in rep.records)
    assert rep.summary["homogeneity_dev"] <= 1e-12


def test_averaging_smoke():
    octaves = 1
    rep = run_averaging(PARAMS, trials=10, octaves=octaves, pi_trials=200)
    assert rep.summary["partition_worst_rel"] <= 1e-10
    # pi at the trial grids' own depth lev - j_min, not at ``octaves``
    levels = [int(lev) for lev in rep.summary["pi_exact"]]
    j_min = min(levels) - PARAMS.r - (octaves - 1)
    gamma = Fraction(PARAMS.gamma_n).limit_denominator(1000)
    assert rep.summary["pi_exact"] == {
        str(lev): float(pi_good_exact(gamma, PARAMS.r, lev - j_min)) for lev in levels
    }


def test_schur_smoke():
    rep = run_schur(PARAMS, collection_sizes=(8, 16, 32), draws=20)
    norms = [rep.summary["norms"][str(s)] for s in (8, 16, 32)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert rep.summary["singleton"] == 2 ** -1.5
