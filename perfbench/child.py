"""One pass of a workload in a fresh interpreter.

Started by run.py, never by hand: it imports glstar, generates the
workload's inputs, runs each operation (timed) and its check (untimed), and
prints one JSON line with the pass's measurements.  ``--mode setup`` stops
after the inputs exist; ``--mode trace`` runs the operations under the
tracer and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when not found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import numpy as np
    import glstar

    src = os.path.realpath(args.src)
    if not os.path.realpath(glstar.__file__).startswith(src + os.sep):
        sys.exit(f"glstar imported from {glstar.__file__}, not from {src}")

    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # the small scale ranges used here leave a truncation tail on purpose
    warnings.simplefilter("ignore", RuntimeWarning)
    results = []
    wall = cpu = 0.0
    for op in ops:
        row = {"name": op.name}
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.active = True
            out = op.run()
        except Exception:
            row["outcome"] = "raised"
            row["detail"] = traceback.format_exc(limit=-3)
            out = None
        finally:
            if tracer is not None:
                tracer.active = False
            t1 = time.perf_counter()
            c1 = time.process_time()
        row["wall_s"] = t1 - t0
        wall += t1 - t0
        cpu += c1 - c0
        if "outcome" not in row:
            try:
                problem = op.check(out)
                if op.digest is not None:
                    row["digest"] = op.digest(out)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=-2)
            if problem is not None:
                row["outcome"], row["detail"] = "wrong", problem
            elif op.verdict is not None and not op.verdict(out):
                row["outcome"] = "refuted"
            else:
                row["outcome"] = "ok"
        results.append(row)

    doc = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics(wall)
        doc["trace_missing"] = tracer.missing
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
