"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and spec.py name the same workloads and metrics;
that every workload prints every metric with its unit, untraced and traced;
that the tracer rebinds the names other modules imported and that its self
times add up to the traced time; and that the benchmark refuses to run
without the glstar sources.  Exits with code 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def check_manifest() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    if doc["command"] != ["python3", "perfbench/run.py"] or doc["paths"] != ["perfbench"]:
        fail("BENCHMARK.json command or paths")
    if tuple(w["name"] for w in doc["workloads"]) != WORKLOADS:
        fail("BENCHMARK.json workloads differ from spec.WORKLOADS")
    for key, listed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in doc[key]] != list(listed):
            fail(f"BENCHMARK.json {key} differs from spec.py")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_outputs() -> None:
    for workload in WORKLOADS:
        for trace, listed in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where} result keys {sorted(result)}")
            if not (result["correct"] is True and result["failed"] == 0
                    and result["attempted"] >= 1):
                fail(f"{where} reported a failed operation:\n{proc.stdout}")
            if [(k, v["unit"]) for k, v in result["metrics"].items()] != list(listed):
                fail(f"{where} metric names or units differ from spec.py")
            for name, m in result["metrics"].items():
                if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
                    fail(f"{where} metric {name} is {m}")
            print(f"ok  {where}: {len(listed)} metrics")


def check_tracer() -> None:
    import glstar
    from glstar import core, dyadic, experiments

    from tracer import Tracer

    original = dyadic.is_good
    tracer = Tracer()
    tracer.install()
    if not (experiments.is_good is dyadic.is_good is glstar.is_good
            and dyadic.is_good is not original):
        fail("is_good not rebound in every module that imported it")
    tracer.active = True
    dyadic.estimate_pi_good(core.default_params(), 100, 11, 1, j_min=0)
    tracer.active = False
    table = tracer.span_table()
    if int(table["calls"][tracer.labels.index("dyadic.is_good")]) != 100:
        fail("is_good calls not counted")
    if tracer.counts["dyadic.DyadicCube.box.calls"] <= 0:
        fail("DyadicCube.box calls not counted")
    if not math.isclose(float(table["self_s"].sum()), table["top_s"],
                        rel_tol=1e-9):
        fail("self times do not add up to the traced time")
    tracer.uninstall()
    if dyadic.is_good is not original or experiments.is_good is not original:
        fail("uninstall did not restore is_good")
    print("ok  tracer rebinding and self-time accounting")


def check_bare_directory() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run_bench("drivers", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("ran without the glstar sources")
    print("ok  refuses to run without the glstar sources")


if __name__ == "__main__":
    check_manifest()
    check_tracer()
    check_bare_directory()
    check_outputs()
    print("selftest passed")
