"""The benchmark's workloads.

``build(name, seed, tiny)`` generates a workload's inputs from the seed and
returns its operations.  An operation is one timed call into glstar plus the
benchmark's own, untimed check of the result.  Every call goes through a
module attribute at call time, so a tracer that rebinds those attributes
sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from glstar import carleson, core, dyadic, experiments, gstar, haar, kernels


@dataclass
class Op:
    """One operation of a workload.

    ``check`` returns None when the benchmark's own check of the result
    holds and a reason otherwise; ``verdict`` reads the program's own pass
    flag where the result carries one."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    verdict: Optional[Callable[[Any], bool]] = None
    digest: Optional[Callable[[Any], str]] = None


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


def report_digest(report) -> str:
    """SHA-256 of a driver report's ``to_dict()``, for diffing two commits."""
    blob = json.dumps(report.to_dict(), sort_keys=True, default=_plain,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _driver_op(name: str, run, check) -> Op:
    return Op(name, run, check, verdict=lambda rep: bool(rep.passed),
              digest=report_digest)


def _bad(values) -> bool:
    return not all(math.isfinite(v) and v > 0 for v in values)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


# ---------------------------------------------------------------------------
# drivers: what a user reproducing the paper runs


def _drivers(seed: int, tiny: bool) -> list[Op]:
    params = core.default_params()
    # each driver's own default seed, offset by the benchmark seed
    configs = experiments.sample_lemma32_configs(count=4 if tiny else 120,
                                                 seed=5 + seed)
    ks = tuple(range(1, 11 if tiny else 15))
    kdecay_kw = {"k_range": ks, "side_runs": False} if tiny else {}
    # run_carleson's time and memory depend on its random open sets, so a
    # pass runs it on three seeds (the first its default at seed 0)
    carleson_seeds = [11 + 3 * seed + k for k in range(3)]
    omegas = 1 if tiny else 4
    carleson_kw = {"omega_count": omegas, "levels": 1} if tiny else {}
    levels = (3, 4) if tiny else (4, 5, 6, 7)
    boundratio_kw = {"count": 4, "levels": levels} if tiny else {}
    schur_kw = {"collection_sizes": (8, 16, 32), "draws": 20} if tiny else {}

    def check_lemma32(rep):
        if len(rep.records) != len(configs):
            return "one record per configuration expected"
        if _bad([r["ratio"] for r in rep.records]
                + [r["ratio_refined"] for r in rep.records]):
            return "a tail ratio is not finite and positive"
        return None

    def check_kdecay(rep):
        if [r["k"] for r in rep.records] != list(ks):
            return "one record per ancestor generation expected"
        if _bad([r["k_value"] for r in rep.records]
                + [r["q_value"] for r in rep.records]):
            return "a ladder value is not finite and positive"
        return None

    def check_carleson(rep):
        if len(rep.records) != 3 * omegas + 1:
            return "one record per kernel and set, plus the unit square"
        for r in rep.records:
            size_only = r["kernel"].startswith("size")
            # a cancellative factor has zero mass, so every box quantity of
            # the cancellative and the mixed kernel vanishes exactly
            if size_only and not r["ratio"] > 0:
                return "size-only packing ratio must be positive"
            if not size_only and (r["ratio"] != 0.0 or r["ratio_deeper"] != 0.0):
                return f"{r['kernel']} packing ratio must vanish"
        return None

    def check_boundratio(rep):
        if [r["level"] for r in rep.records] != list(levels):
            return "one record per refinement level expected"
        if _bad([r["max_ratio"] for r in rep.records]):
            return "a norm ratio is not finite and positive"
        return None

    def check_schur(rep):
        norms = [r["norm"] for r in rep.records]
        # the Perron root of a nonnegative matrix never shrinks on a larger
        # principal section
        if any(b < a * (1.0 - 1e-9) for a, b in zip(norms, norms[1:])):
            return "coupling norm shrank on a larger nested collection"
        if rep.summary["singleton"] != 2.0 ** -1.5:
            return "one-cube norm differs from 2^(-3/2)"
        return None

    return [
        _driver_op("run_lemma32",
                   lambda: experiments.run_lemma32(params, configs=configs),
                   check_lemma32),
        _driver_op("run_kdecay",
                   lambda: experiments.run_kdecay(params, **kdecay_kw),
                   check_kdecay),
        *[_driver_op(f"run_carleson[{s}]",
                     lambda s=s: experiments.run_carleson(params, seed=s,
                                                          **carleson_kw),
                     check_carleson)
          for s in carleson_seeds],
        _driver_op("run_boundratio",
                   lambda: experiments.run_boundratio(params, seed=41 + seed,
                                                      **boundratio_kw),
                   check_boundratio),
        _driver_op("run_schur",
                   lambda: experiments.run_schur(params, seed=23 + seed,
                                                 **schur_kw),
                   check_schur),
    ]


# ---------------------------------------------------------------------------
# lattice: exact integer and rational work, no quadrature


def _iroot_floor(target: int, q: int) -> int:
    """Largest integer d >= 0 with d**q <= target, by bisection."""
    lo, hi = 0, 1
    while hi ** q <= target:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** q <= target:
            lo = mid
        else:
            hi = mid
    return lo


def brute_pi_good(gamma: Fraction, r: int, depth: int) -> Fraction:
    """Good-cube probability by enumerating every offset o in [0, 2^depth):
    good when min(o_k, 2^k - 1 - o_k) > 2^(k (1 - gamma)) for every
    generation k = r..depth, with o_k = o mod 2^k."""
    p, q = gamma.numerator, gamma.denominator
    o = np.arange(1 << depth, dtype=np.int64)
    good = np.ones(o.size, dtype=bool)
    for k in range(r, depth + 1):
        ok = o & ((1 << k) - 1)
        gap = np.minimum(ok, (1 << k) - 1 - ok)
        # gap > 2^(k (q - p) / q)  <=>  gap > floor of that root, in integers
        good &= gap > _iroot_floor(1 << (k * (q - p)), q)
    return Fraction(int(good.sum()), 1 << depth)


_BRUTE_MAX_DEPTH = 16


def _lattice(seed: int, tiny: bool) -> list[Op]:
    params = core.default_params()
    gamma = Fraction(params.gamma_n).limit_denominator(1000)
    rng = np.random.default_rng((seed, 0x1A77))

    averaging_kw = {"trials": 10, "octaves": 1, "pi_trials": 200} if tiny else {}

    pi_level = 12 + seed % 5
    pi_depth = 11 + seed % 3
    pi_trials = 200 if tiny else 3000
    ladder = range(12, 17 if tiny else 33)

    haar_level = 3 if tiny else 6
    n_haar = 2 ** haar_level
    f_haar = core.StepFunction(haar_level, (0, 0),
                               rng.integers(-8, 9, (n_haar, n_haar)).astype(float))
    std = dyadic.ShiftedGrid.standard(1, 0, haar_level)
    domain = (std.cube(0, (0,)), std.cube(0, (0,)))

    max_level = 4 if tiny else 8
    n_max = 2 ** max_level
    # small integers keep every prefix sum, and so every average, exact
    f_max = core.StepFunction(max_level, (0, 0),
                              rng.integers(0, 8, (n_max, n_max)).astype(float))
    max_grids = (dyadic.ShiftedGrid.random(1, 0, max_level, 1000 + seed, 0),
                 dyadic.ShiftedGrid.random(1, 0, max_level, 1000 + seed, 1))

    shadow_grids = (dyadic.ShiftedGrid.random(1, -2, 4, 2000 + seed, 0),
                    dyadic.ShiftedGrid.random(1, -2, 4, 2000 + seed, 1))
    omega = carleson.random_open_set(shadow_grids, rng, n_rects=3,
                                     level_range=(1, 2))

    def check_averaging(rep):
        if rep.summary["partition_worst_rel"] > 1e-10:
            return "Whitney regions do not tile the scale strip"
        if not math.isfinite(rep.summary["estimate"]):
            return "averaged estimate is not finite"
        return None

    def check_pi_estimate(out):
        est, half = out
        exact = float(dyadic.pi_good_exact(gamma, params.r, pi_depth))
        # three 95% half-widths: a right estimator misses with p < 1e-8
        if abs(est - exact) > 3.0 * half:
            return f"estimate {est:.4g} +/- {half:.2g} misses exact {exact:.4g}"
        return None

    def check_ladder(values):
        if any(b > a for a, b in zip(values, values[1:])):
            return "good-cube probability grew with depth"
        for depth, v in zip(ladder, values):
            if depth <= _BRUTE_MAX_DEPTH and v != brute_pi_good(gamma, params.r,
                                                               depth):
                return f"depth {depth} disagrees with enumeration"
        return None

    def check_haar(g):
        if (g.level, g.lo) != (f_haar.level, f_haar.lo) or \
                not np.array_equal(g.values, f_haar.values):
            return "round trip is not exact"
        return None

    def check_maximal(m):
        if (m.level, m.lo, m.shape) != (f_max.level, f_max.lo, f_max.shape):
            return "maximal function not on the input's lattice"
        if not np.all(m.values >= f_max.values):
            return "M f < f somewhere"
        return None

    def check_shadow(out):
        tilde, hat = out
        ind = omega.indicator()
        if float((tilde - ind).values.min()) < 0.0:
            return "open set not inside its dyadic shadow"
        if float((hat - tilde).values.min()) < 0.0:
            return "dyadic shadow not inside the full shadow"
        return None

    return [
        _driver_op("run_averaging",
                   lambda: experiments.run_averaging(params, seed=7 + seed,
                                                     **averaging_kw),
                   check_averaging),
        Op("estimate_pi_good",
           lambda: dyadic.estimate_pi_good(params, pi_trials, pi_level,
                                           3000 + seed,
                                           j_min=pi_level - pi_depth),
           check_pi_estimate),
        Op("pi_good_exact_ladder",
           lambda: [dyadic.pi_good_exact(gamma, params.r, k) for k in ladder],
           check_ladder),
        Op("haar_round_trip",
           lambda: haar.reconstruct(haar.expand(f_haar, domain, haar_level)),
           check_haar),
        Op("strong_maximal_dyadic",
           lambda: dyadic.strong_maximal_dyadic(f_max, max_grids),
           check_maximal),
        Op("shadow_sets",
           lambda: carleson.shadow_sets(omega, shadow_grids),
           check_shadow),
    ]


# ---------------------------------------------------------------------------
# opaque: a user kernel whose tensor structure is hidden


def _opaque(seed: int, tiny: bool) -> list[Op]:
    params = core.default_params()
    size = kernels.make_size_only(1, 1, 0.5, 0.5)
    canc = kernels.make_cancellative(1, 1, 0.5, 0.5)
    # same evaluate; without tensor_parts every quantity takes the raw path
    opaque_size = replace(size, tensor_parts=None)
    opaque_canc = replace(canc, tensor_parts=None)
    rng = np.random.default_rng((seed, 0x0BA0))
    samples = 1000 if tiny else 2000

    def checker_op(name: str, base_seed: int) -> Op:
        def run():
            return getattr(kernels, name)(opaque_canc, params, samples=samples,
                                          seed=base_seed + seed)

        def check(rep):
            twin = getattr(kernels, name)(canc, params, samples=samples,
                                          seed=base_seed + seed)
            if rep.passed != twin.passed or _rel(rep.estimate, twin.estimate) > 1e-12:
                return f"{name} differs from the tensor twin"
            return None

        return Op(name, run, check)

    # c_ij at one scale pair, twice at different positions
    cij_spec = core.QuadratureSpec(t_points_per_octave=1)
    grid = dyadic.ShiftedGrid.standard(1, -3, 8)
    cubes = [(grid.cube(2, (int(rng.integers(-8, 8)),)),
              grid.cube(3, (int(rng.integers(-8, 8)),))) for _ in range(2)]

    def check_cij(values):
        i, j = cubes[0]
        closed = carleson.c_ij(size, i, j, params, cij_spec)
        if values[1] != values[0]:
            return "c_ij depends on position"
        if _rel(values[0], closed) > 1e-2:
            return f"c_ij {values[0]:.6g} vs closed form {closed:.6g}"
        return None

    # a rank-2, so non-product, plane function for the pointwise value
    lo_t, hi_t = (-1.0, 1.0) if tiny else (-2.0, 1.0)
    point_spec = core.QuadratureSpec(points_per_cell=2,
                                     t_points_per_octave=1 if tiny else 2,
                                     t_min=2.0 ** lo_t, t_max=2.0 ** hi_t)
    a, b, c, d = (core.StepFunction(1, (0,), rng.normal(size=2))
                  for _ in range(4))
    f_rank2 = core.StepFunction(1, (0, 0), np.multiply.outer(a.values, b.values)
                                + np.multiply.outer(c.values, d.values))
    x = tuple(rng.uniform(-0.25, 1.25, 2))

    def check_pointwise(value):
        def fast(g, h):
            return gstar.gstar_pointwise(canc, (g, h), x, params,
                                         spec=point_spec, route="fast").value ** 2
        # bilinearity of the squared value in each factor (polarization)
        sq = (fast(a, b) + fast(c, d)
              + (fast(a + c, b + d) - fast(a + c, b - d)
                 - fast(a - c, b + d) + fast(a - c, b - d)) / 8.0)
        closed = math.sqrt(sq)
        # the full route's raw meshes (16-t windows, 2 points a cell) land
        # within 2.5e-2 of the closed form over 30 seeds; the 5e-3 of the
        # Tier-1 test holds only for that test's own inputs
        if _rel(value, closed) > 5e-2:
            return f"full route {value:.6g} vs closed form {closed:.6g}"
        return None

    norm_spec = core.QuadratureSpec(points_per_cell=2, t_points_per_octave=2,
                                    t_min=2.0 ** (-1 if tiny else -2),
                                    t_max=2.0 ** 2)
    f_norm = core.StepFunction(1, (0, 0), rng.normal(size=(2, 2)))
    norm_grids = (dyadic.ShiftedGrid.standard(1, -2, 3),
                  dyadic.ShiftedGrid.standard(1, -2, 3))

    def check_norm(value):
        closed = gstar.gstar_sq_norm(canc, f_norm, params, norm_grids,
                                     spec=norm_spec, route="gram")
        if _rel(value, closed) > 5e-2:
            return f"direct route {value:.6g} vs gram route {closed:.6g}"
        return None

    return [
        checker_op("check_size", 1),
        checker_op("check_holder", 2),
        checker_op("check_mixed", 3),
        Op("c_ij",
           lambda: [carleson.c_ij(opaque_size, i, j, params, cij_spec)
                    for i, j in cubes],
           check_cij),
        Op("gstar_pointwise",
           lambda: gstar.gstar_pointwise(opaque_canc, f_rank2, x, params,
                                         spec=point_spec, route="full").value,
           check_pointwise),
        Op("gstar_sq_norm",
           lambda: gstar.gstar_sq_norm(opaque_canc, f_norm, params, norm_grids,
                                       spec=norm_spec, route="direct"),
           check_norm),
    ]


BUILDERS = {"drivers": _drivers, "lattice": _lattice, "opaque": _opaque}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    return BUILDERS[name](seed, tiny)
