"""Seed-0 report digests of every driver, pinned.

Each digest is the SHA-256 of a report's ``to_dict()``, computed by the
benchmark's own ``perfbench/workloads.py:report_digest``, for the driver
operations that the benchmark's ``drivers`` and ``lattice`` workloads build
at seed 0 (taken from ``build``, so the pins follow the benchmark's calls),
plus `run_cases` at its quick settings in ``tests/test_experiments.py``.  A
change that moves a digest names the move; ``tests/digests.json`` is
written only by

    PYTHONPATH=src python tests/test_digests.py --write

The digests depend on numpy's float reductions, so the file records the
Python, numpy and BLAS it was written with, and a failing check prints
both stacks: a mismatch on another stack reads as a stack change.
"""

import importlib.util
import json
import pathlib
import platform
import sys

import numpy as np
import pytest

from glstar import experiments
from test_experiments import QUICK

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "digests.json"


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()
report_digest = WORKLOADS.report_digest



def _quick_run(name):
    """The driver at its quick row of ``tests/test_experiments.py``."""
    params, kwargs, _ = QUICK[name]
    return lambda: getattr(experiments, name)(params, **kwargs)


# the seed-0 driver operations of the benchmark, under the benchmark's own
# names, plus run_cases, which no workload runs
OPS = {
    **{op.name: op.run for workload in ("drivers", "lattice")
       for op in WORKLOADS.build(workload, 0) if op.digest is not None},
    "run_cases[smoke]": _quick_run("run_cases"),
}


def _stack() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def test_every_driver_is_pinned():
    # a row of the driver table with no pinned operation fails here
    assert {name.split("[")[0] for name in OPS} == set(experiments.DRIVERS)
    assert sorted(json.loads(PINNED.read_text())["digests"]) == sorted(OPS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_report_digest_is_pinned(name):
    pinned = json.loads(PINNED.read_text())
    got = report_digest(OPS[name]())
    assert got == pinned["digests"][name], (
        f"{name} moved to {got}; pinned on {pinned['stack']}, "
        f"run on {_stack()}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_digests.py --write")
    digests = {name: report_digest(run()) for name, run in OPS.items()}
    PINNED.write_text(json.dumps({"stack": _stack(), "digests": digests},
                                 indent=2, sort_keys=True) + "\n")
