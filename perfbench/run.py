"""The glstar benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload drivers --seed 0 --seconds 40 --trace 0

``--workload all`` measures the three workloads in turn, for a person
reading the tables; the benchmark proper runs one workload per call.

Run it from the root of a checkout.  Each pass of the workload runs in a
fresh single-threaded interpreter (module caches start cold, BLAS gets one
thread), one after another, until the next pass would end after
``--seconds``.  Short extra interpreters that only import glstar and build
the inputs, three after each pass, add samples of the set-up time.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the passes); with ``--trace 1`` untraced
and traced passes alternate and the object holds the per-layer metrics.
Lines before it give quartiles, sample counts, every operation's outcome and
the SHA-256 of each driver report.  Full results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HARD_LIMIT_S = 170.0   # a run must end within 180 s, whatever --seconds says
SETUP_PROBES = 3       # set-up-only interpreters after each untraced pass
FAILED = ("raised", "wrong")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args, workload: str) -> None:
        self.args = args
        self.workload = workload
        self.t0 = time.monotonic()
        self.env = child_env()

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def spawn(self, mode: str) -> dict:
        remaining = HARD_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before the next pass")
        a = self.args
        extra = ["--tiny"] if a.size == "tiny" else []
        if mode == "trace":
            extra += ["--spans-out",
                      str(OUT / f"spans-{self.workload}-seed{a.seed}.json")]
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(a.seed), "--mode", mode, "--src", str(SRC), *extra,
               "--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass did not end within the time limit")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} pass exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def measure(self, modes: tuple[str, ...]) -> dict[str, list[dict]]:
        """Run rounds of ``modes`` until the next round would end after the
        deadline; at least one round."""
        got = {m: [] for m in set(modes)}
        rounds = []
        while True:
            start = time.monotonic()
            for m in modes:
                got[m].append(self.spawn(m))
            rounds.append(time.monotonic() - start)
            if self.elapsed() + statistics.median(rounds) > self.args.seconds:
                return got


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize_ops(passes: list[dict]) -> tuple[dict, list[str]]:
    """Outcome counts over every pass, and the problems found: a failed
    operation, or a driver report that differs between passes."""
    counts = Counter()
    digests: dict[str, set] = {}
    problems = []
    for p in passes:
        for op in p["ops"]:
            counts[op["outcome"]] += 1
            if op["outcome"] in FAILED:
                problems.append(f"{op['name']} {op['outcome']}: {op.get('detail', '')}")
            if "digest" in op:
                digests.setdefault(op["name"], set()).add(op["digest"])
    for name, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"{name} report differs between passes of one seed")
    return counts, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="all: each workload in turn, one result line each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for the harness self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "glstar" / "__init__.py").is_file():
        print(f"perfbench: no glstar sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "glstar"), quiet=1):
        print("perfbench: glstar does not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = bench(args, workload)
        if status:
            return status
    return 0


def bench(args, workload: str) -> int:
    """Measure one workload and print its result; 0 when a result was printed."""
    runner = Runner(args, workload)
    try:
        if args.trace:
            got = runner.measure(("run", "trace"))
        else:
            got = runner.measure(("run",) + ("setup",) * SETUP_PROBES)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = got["run"]
    traced = got.get("trace", [])
    passes = plain + traced
    counts, problems = summarize_ops(passes)
    attempted = sum(counts.values())
    failed = sum(counts[o] for o in FAILED)

    samples: dict[str, list[float]] = {}
    if args.trace:
        overhead = [statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1.0]
        for name, _ in PER_LAYER:
            samples[name] = overhead if name == "trace.overhead_frac" else \
                [p["layers"][name] for p in traced]
        units = dict(PER_LAYER)
    else:
        samples["setup_s"] = [p["setup_s"] for p in plain + got["setup"]]
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [p[name] for p in plain]
        samples["pass_frac"] = [counts["ok"] / attempted]
        units = dict(END_TO_END)

    env = plain[0]["env"]
    print(f"glstar benchmark: workload={workload} seed={args.seed} "
          f"trace={args.trace} size={args.size} passes={len(plain)}"
          + (f"+{len(traced)} traced" if traced else "")
          + f" elapsed={runner.elapsed():.1f}s")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in plain[0]["ops"]:
        print(f"op {op['name']:<24} {op['outcome']:<8} {op['wall_s']:9.3f} s"
              + (f"  sha256={op['digest']}" if "digest" in op else ""))
    print("outcomes: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
          + f"  fail_frac={(attempted - counts['ok']) / attempted:.4f} fraction")
    for problem in problems:
        print("problem: " + problem)
    print(f"{'metric':<46}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"{name:<46}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}  "
              f"{units[name]}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=args.seed,
                  trace=args.trace, size=args.size, env=env, samples=samples,
                  passes=passes)
    out_file = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
