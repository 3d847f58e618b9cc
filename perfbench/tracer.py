"""Per-module call tracing of the glstar package, installed from outside it.

Each traced entry point is rebound to a wrapper: a module-level function in
its defining module and in every loaded glstar module that imported the same
object, a method on its class.  While the tracer is active a wrapper records
one span (name, parent, start, end) per call, or, for the hottest helpers,
only a call counter.  Spans stay in memory in flat arrays and are written
out as JSON on request; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from spec import PER_LAYER

PACKAGE = "glstar"

# Entry points that get a timed span, by module.  ``Class.method`` names are
# wrapped on the class.
SPANNED = {
    "experiments": ["run_lemma32", "run_kdecay", "run_carleson",
                    "run_boundratio", "run_schur", "run_averaging"],
    "dyadic": ["is_good", "estimate_pi_good", "pi_good_exact",
               "ShiftedGrid.random", "schur_coeff", "strong_maximal_dyadic"],
    "haar": ["expand", "reconstruct"],
    "carleson": ["shadow_sets", "carleson_sum", "c_ij"],
    "gstar": ["gstar_sq_norm", "_axis_gram", "_axis_sq_profile", "k_quantity",
              "q_quantity", "_theta_points_general", "gstar_pointwise"],
    "kernels": ["ConvolutionFactor.cell_integral", "ConvolutionFactor.profile",
                "check_size", "check_holder", "check_mixed",
                "check_carleson_combo"],
    "core": ["StepFunction.__call__"],
}

# Helpers called often enough (up to ~10^6 times a pass) that a span per
# call would cost more than the call: these only count.  Their time stays
# with the nearest spanned caller.
COUNTED = {
    "dyadic": ["DyadicCube.box"],
    "core": ["segment_nodes", "graded_axis_edges", "octave_nodes"],
}

CHECKERS = ("kernels.check_size", "kernels.check_holder", "kernels.check_mixed",
            "kernels.check_carleson_combo")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _repeat(tracer, label, key):
    seen = tracer.seen[label]
    tracer.counts[label + ".repeats"] += key in seen
    seen.add(key)


def _is_good(tracer, args, kwargs, out, dur):
    tracer.counts["dyadic.is_good.good"] += bool(out)


def _pi_good_exact(tracer, args, kwargs, out, dur):
    depth = _arg(args, kwargs, 2, "octaves")
    best = tracer.marks.get("pi_depth")
    if best is None or (depth, dur) > best:
        tracer.marks["pi_depth"] = (depth, dur)


def _axis_gram(tracer, args, kwargs, out, dur):
    # same arguments as an earlier call in this process: a repeat, whatever
    # the module does about it
    _repeat(tracer, "gstar._axis_gram",
            (args, tuple(sorted(kwargs.items()))))


def _c_ij(tracer, args, kwargs, out, dur):
    # c_ij is position independent, so a repeat is a repeated scale pair
    kernel = _arg(args, kwargs, 0, "kernel")
    i, j = _arg(args, kwargs, 1, "i"), _arg(args, kwargs, 2, "j")
    params = _arg(args, kwargs, 3, "params")
    spec = args[4] if len(args) > 4 else kwargs.get("spec")
    _repeat(tracer, "carleson.c_ij", (kernel, i.level, j.level, params, spec))


def _size(stat):
    def hook(tracer, args, kwargs, out, dur):
        tracer.counts[stat] += int(np.size(out))
    return hook


def _carleson_sum(tracer, args, kwargs, out, dur):
    tracer.counts["carleson.carleson_sum.rects"] += len(out.rect_values)


def _segment_nodes(tracer, args, kwargs, out, dur):
    tracer.counts["core.segment_nodes.nodes"] += int(np.size(out[0]))


HOOKS = {
    "dyadic.is_good": _is_good,
    "dyadic.pi_good_exact": _pi_good_exact,
    "gstar._axis_gram": _axis_gram,
    "carleson.c_ij": _c_ij,
    "carleson.carleson_sum": _carleson_sum,
    "gstar._theta_points_general": _size("gstar._theta_points_general.points"),
    "kernels.ConvolutionFactor.profile":
        _size("kernels.ConvolutionFactor.profile.elements"),
    "kernels.ConvolutionFactor.cell_integral":
        _size("kernels.ConvolutionFactor.cell_integral.elements"),
    "core.StepFunction.__call__": _size("core.StepFunction.__call__.points"),
    "core.segment_nodes": _segment_nodes,
}


class Tracer:
    """Spans and counters for the calls made while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.labels: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self.marks: dict[str, tuple] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, label: str, fn):
        nid = len(self.labels)
        self.labels.append(label)
        hook = HOOKS.get(label)
        stack, name, parent, start, end = (self._stack, self.name, self.parent,
                                           self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out, end[idx] - start[idx])
            return out

        return traced

    def _counted(self, label: str, fn):
        key = label + ".calls"
        counts = self.counts
        hook = HOOKS.get(label)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, out, 0.0)
            return out

        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every traced entry point of the already imported package.

        A target the package no longer has is skipped and listed in
        ``missing``; its metrics then read 0."""
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for modname, attrs in table.items():
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{modname}")
                except ImportError:
                    self.missing.extend(f"{modname}.{a}" for a in attrs)
                    continue
                for attr in attrs:
                    label = f"{modname}.{attr}"
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name, None)
                        raw = None if cls is None else cls.__dict__.get(meth)
                        if raw is None:
                            self.missing.append(label)
                        elif isinstance(raw, classmethod):
                            self._patch(cls, meth,
                                        classmethod(make(label, raw.__func__)))
                        else:
                            self._patch(cls, meth, make(label, raw))
                        continue
                    orig = mod.__dict__.get(attr)
                    if orig is None:
                        self.missing.append(label)
                        continue
                    new = make(label, orig)
                    for m in loaded:
                        for k, v in list(vars(m).items()):
                            if v is orig:
                                self._patch(m, k, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def span_table(self) -> dict:
        """Per-label calls, total seconds and self seconds, from the spans.

        A span's self time is its duration minus the durations of its child
        spans; time in untraced helpers stays with the nearest traced caller."""
        n = len(self.labels)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return {
            "calls": np.bincount(name, minlength=n),
            "s": np.bincount(name, weights=dur, minlength=n),
            "self_s": np.bincount(name, weights=dur - child, minlength=n),
            "top_s": float(dur[~nested].sum()),
        }

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of ``spec.PER_LAYER`` that one traced pass
        gives (all but ``trace.overhead_frac``, which needs an untraced pass).
        ``wall_s`` is the pass's traced operation time."""
        table = self.span_table()
        out: dict[str, float] = defaultdict(float)
        for i, label in enumerate(self.labels):
            out[label + ".calls"] = int(table["calls"][i])
            out[label + ".s"] = float(table["s"][i])
            out[label.split(".")[0] + ".self_s"] += float(table["self_s"][i])
        out.update(self.counts)

        def frac(num, den):
            return num / den if den else 0.0

        out["dyadic.is_good.good_frac"] = frac(
            out["dyadic.is_good.good"], out["dyadic.is_good.calls"])
        out["dyadic.pi_good_exact.max_depth_s"] = \
            self.marks.get("pi_depth", (0, 0.0))[1]
        for label in ("gstar._axis_gram", "carleson.c_ij"):
            out[label + ".repeat_frac"] = frac(out[label + ".repeats"],
                                               out[label + ".calls"])
        out["kernels.check.s"] = sum(out[c + ".s"] for c in CHECKERS)
        out["trace.covered_frac"] = frac(table["top_s"], wall_s)
        return {name: out[name] for name, _ in PER_LAYER
                if name != "trace.overhead_frac"}

    def write_spans(self, path) -> None:
        """The raw spans as columns; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "labels": self.labels,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
