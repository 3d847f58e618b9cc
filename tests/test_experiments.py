"""Driver smoke tests at the benchmark's tiny sizes."""

from glstar.core import default_params
from glstar.experiments import run_averaging, run_boundratio

PARAMS = default_params()


def test_boundratio_smoke():
    rep = run_boundratio(PARAMS, count=4, levels=(3, 4))
    assert [r["level"] for r in rep.records] == [3, 4]
    assert all(r["max_ratio"] > 0 for r in rep.records)
    assert rep.summary["homogeneity_dev"] <= 1e-12


def test_averaging_smoke():
    rep = run_averaging(PARAMS, trials=10, octaves=1, pi_trials=200)
    assert rep.summary["partition_worst_rel"] <= 1e-10
