"""End-to-end experiments tying the library's public routes to the structural
claims.

Every run in here returns an :class:`ExperimentReport`: a name, the exact
configuration that produced it, per-trial records, summary statistics, and a
pass flag.  Reports are reproducible bit for bit from (name, params, seed,
spec) -- wall-clock time is carried separately so serializers can drop it.
Each driver is registered in `DRIVERS`, name to callable, by the `_driver`
decorator, which also times the call and stamps the report's ``wall_time``.

The runs are deliberately opinionated about their configurations: each fixes
its kernel, exponents and quadrature spec (its docstring names them), every
fixed value was frozen after a refinement study, and the notes field of each
report says what was truncated and how hard.  The drivers reach the other
modules through their public functions only.  Their θ integrals: the
one-factor tail of `run_lemma32` and the region grams of `run_cases` are
`gstar.response_gram`s; `run_kdecay` runs its ladders through
`gstar.k_quantity` (one weighted θ row per generation, the generations'
meshes one batch) and `gstar.q_quantity` (a response gram per generation
times one Haar-side gram shared by the ladder); `run_boundratio` reads
the cached axis grams of `gstar.axis_grams`, which the gram route of
`gstar_sq_norm` also contracts; every level's and the amplitude twin's
grams are dilations of one table of unit-lattice lag rows, formed by the
finest level, which it asks for first.  The others take no θ
quadrature: a box value of `run_carleson` (`carleson.carleson_sum`) is one
closed-form constant of the factors' masses times |I||J|, and
`run_averaging` and `run_schur` are exact integrals and coupling entries.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    Params,
    QuadratureSpec,
    StepFunction,
    octave_nodes,
)
from .dyadic import (
    DyadicCube,
    ShiftedGrid,
    box_schur_matrix,
    goodness_gamma,
    is_good_offset,
    pi_good_exact,
    random_grids,
    schur_coeff,
    shift_table_blocks,
)
from .gstar import (
    axis_grams,
    gstar_sq_norm,
    k_quantity,
    q_quantity,
    response_gram,
)
from .haar import HaarIndex, expand, haar_function
from .kernels import (
    ConvolutionFactor,
    Kernel,
    check_holder,
    check_mixed,
    check_size,
    make_cancellative,
    make_mixed,
    make_size_only,
    rescale,
)
from .carleson import carleson_check, carleson_sum, random_open_set

__all__ = [
    "DRIVERS",
    "ExperimentReport",
    "Lemma32Config",
    "NamedIntegrand",
    "run_averaging",
    "run_boundratio",
    "run_carleson",
    "run_cases",
    "run_kdecay",
    "run_lemma32",
    "run_schur",
    "sample_lemma32_configs",
]


# ---------------------------------------------------------------------------
# report container


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment run.

    ``records`` holds per-trial (or per-configuration) rows as plain dicts;
    ``summary`` the fitted constants, estimates and intervals.  Everything
    except ``wall_time`` is a pure function of the run's inputs; a driver
    builds its report without it, and the `_driver` decorator stamps the
    call's wall time on the report it returns.
    """

    name: str
    params: Mapping[str, object]
    seed: int
    records: tuple
    summary: Mapping[str, object]
    passed: bool
    notes: str = ""
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a report needs a name")
        if self.wall_time < 0.0:
            raise ValueError("wall time cannot be negative")
        object.__setattr__(self, "records", tuple(self.records))

    def to_dict(self) -> dict:
        """Plain-dict form without the timing, so reruns compare byte-equal."""
        return {
            "name": self.name,
            "params": dict(self.params),
            "seed": self.seed,
            "records": [dict(r) for r in self.records],
            "summary": dict(self.summary),
            "passed": self.passed,
            "notes": self.notes,
        }


# Every driver by name, in definition order; `_driver` fills it.
DRIVERS: dict[str, Callable[..., ExperimentReport]] = {}


def _driver(run: Callable[..., ExperimentReport]) -> Callable[..., ExperimentReport]:
    """Register ``run`` in `DRIVERS` and stamp its report's ``wall_time``."""
    @functools.wraps(run)
    def timed(*args, **kwargs) -> ExperimentReport:
        t0 = time.perf_counter()
        report = run(*args, **kwargs)
        return dataclasses.replace(report, wall_time=time.perf_counter() - t0)

    DRIVERS[run.__name__] = timed
    return timed


def _snapshot(params: Params, **extra) -> dict:
    out = {k: v for k, v in params.as_dict().items()
           if k not in ("alpha", "beta")}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# averaging identity

@dataclass(frozen=True)
class NamedIntegrand:
    """Separable integrand F(x, t) = x_part(x) * 1_(t_lo, t_hi](t) / t.

    The x factor is a one-dimensional step function, so its integral over any
    interval is exact, and the t factor integrates in closed form over any
    scale band.  That makes the full integral and every Whitney-region piece
    exact up to float summation -- the partition check needs no quadrature.
    """

    name: str
    x_part: StepFunction
    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        if len(self.x_part.shape) != 1:
            raise ValueError("the position factor must be one-dimensional")
        if self.x_part.tail != 0.0:
            raise ValueError("the position factor must vanish at infinity")
        if not 0.0 < self.t_lo < self.t_hi:
            raise ValueError("need 0 < t_lo < t_hi")

    @classmethod
    def unit_box(cls) -> "NamedIntegrand":
        """1_[0,1)(x) 1_(1/2,1](t)/t; integrates to ln 2 exactly."""
        return cls("unit_box", StepFunction(0, (0,), np.ones(1)), 0.5, 1.0)

    def x_integral(self) -> float:
        return self.x_part.integral()

    def band_log(self, lo: float, hi: float) -> float:
        """Integral of dt/t over (lo, hi] intersected with (t_lo, t_hi]."""
        a, b = max(lo, self.t_lo), min(hi, self.t_hi)
        return math.log(b / a) if b > a else 0.0


def _interval_integral(f: StepFunction, a, b, unit: int) -> np.ndarray:
    """Exact integrals of the 1-d step function over the intervals [a, b),
    their ends integer arrays in units of 2^-unit, unit >= f.level.  Each
    interval's cell pieces are summed exactly, by `math.fsum`."""
    cell = 1 << (unit - f.level)
    parts = []
    for i, v in enumerate(f.values.tolist()):
        if v == 0.0:
            continue
        lo = (f.lo[0] + i) * cell
        w = np.minimum(b, lo + cell) - np.maximum(a, lo)
        parts.append(np.where(w > 0, np.ldexp(w.astype(float), -unit) * v, 0.0))
    parts = np.array(parts).reshape(len(parts), len(a))
    return np.array([math.fsum(col) for col in parts.T.tolist()])


def _band_levels(integrand: NamedIntegrand) -> list[int]:
    """Grid levels whose Whitney band meets the integrand's t support."""
    lo_lev = math.floor(-math.log2(integrand.t_hi))
    hi_lev = math.ceil(-math.log2(integrand.t_lo))
    out = []
    for lev in range(lo_lev, hi_lev + 1):
        if integrand.band_log(2.0 ** -(lev + 1), 2.0 ** -lev) > 0.0:
            out.append(lev)
    return out


@_driver
def run_averaging(
    params: Params,
    integrand: Optional[NamedIntegrand] = None,
    trials: int = 1000,
    seed: int = 7,
    *,
    octaves: int = 12,
) -> ExperimentReport:
    """Whitney-partition identity plus its randomized good-cube version.

    Deterministic half: for every sampled shift the Whitney regions tile the
    scale strip, so the sum of per-region integrals reproduces the closed
    form exactly (float summation only).  Stochastic half: restrict to good
    cubes, divide by the good-cube probability, and average over shifts; the
    mean must recover the same closed form within its own CI.  ``passed``
    means both: the worst partition error is at most 1e-10 relative, and the
    averaged good sum lies within its 95 % half-width of the closed form.

    The normalization is exact: a cube's goodness depends only on the shift
    bits coarser than it, and its position only on the finer ones, so each
    level's good-cube sum has mean pi times the full sum, with pi the
    `pi_good_exact` value at that level's depth in the trial grids
    (``octaves`` qualifying ancestor generations).  It adds nothing to the
    CI, which is the Monte-Carlo half-width alone.  Fewer than one
    qualifying octave would make goodness vacuous, and a pi of zero at some
    band level means no cube is ever good there; both are refused before any
    shift is drawn.

    No grid or cube is built: the trials run in the blocks of
    `shift_table_blocks`, so memory stays bounded in ``trials``, and each
    band level is swept one index column at a time across a block's trials
    -- column c holds each trial's c-th cube meeting the support, its
    corners read from the integer table, its weight an exact integral (`_interval_integral`), its goodness
    one `is_good_offset` call for the whole column.  The good sums
    accumulate in the (level, index) order of a per-trial loop and the
    partition sums go through `math.fsum`, so every trial's numbers are those
    of building its grid and testing its cubes one by one.
    """
    integrand = integrand or NamedIntegrand.unit_box()
    if trials < 2:
        raise ValueError("need at least two trials for a confidence interval")
    if octaves < 1:
        raise ValueError("need at least one qualifying octave, or goodness "
                         "is vacuous")
    levels = _band_levels(integrand)
    if not levels:
        raise ValueError("the integrand's scale band misses every level")
    j_min = min(levels) - params.r - (octaves - 1)
    j_max = max(levels) + 1
    closed = integrand.x_integral() * math.log(integrand.t_hi / integrand.t_lo)

    # exact good-cube probability per band level, at the level's depth in
    # the trial grids and with the exponent goodness uses on a 1-d grid
    gamma = goodness_gamma(1, params)
    pi_exact = {lev: pi_good_exact(gamma, params.r, lev - j_min)
                for lev in levels}
    starved = [lev for lev, pi in pi_exact.items() if pi == 0]
    if starved:
        raise RuntimeError(
            "goodness-starved configuration: no cube is good at levels "
            f"{starved} (exact good-cube probability 0 at depth "
            f"{starved[0] - j_min}), so the averaged sum cannot be "
            "normalized; raise r or lower the truncation depth")

    # every position in units of 2^-unit: the support [lo, hi) and each band
    # level's cube corners k 2^(unit - lev) + shift, all integers
    f = integrand.x_part
    unit = max(f.level, j_max)
    cell = 1 << (unit - f.level)
    lo, hi = f.lo[0] * cell, (f.lo[0] + f.shape[0]) * cell
    # every intermediate below lies within this bound; past int64 the
    # arithmetic goes to Python integers in object arrays
    wide = (max(abs(lo), abs(hi)) + (1 << (unit - j_min + 2))).bit_length() > 62

    sums, det = [], []
    for block, table in shift_table_blocks(1, j_min, j_max, seed, trials):
        table = table[..., 0]
        if wide:
            table = table.astype(object)
        full = []  # the block's region integrals, one array per (level, column)
        good_sum = np.zeros(len(block))
        for lev in levels:
            blog = integrand.band_log(2.0 ** -(lev + 1), 2.0 ** -lev)
            inv_pi = 1.0 / pi_exact[lev]
            side = 1 << (unit - lev)
            shift = table[:, lev - j_min + 1]
            corner = shift << (unit - j_max)
            k_lo = (lo - corner) // side
            k_hi = -((corner - hi) // side)
            s = (table[:, 1] - shift) >> (j_max - lev)
            # column c holds each trial's cube k_lo + c; past a trial's last
            # overlapping cube the interval misses the support and weighs 0
            for c in range(int((k_hi - k_lo).max())):
                k = k_lo + c
                a = k * side + corner
                w = _interval_integral(f, a, a + side, unit) * blog
                full.append(w)
                good = (w != 0.0) & is_good_offset(lev, [k - s], j_min, j_max, params)
                np.add(good_sum, w * inv_pi, out=good_sum, where=good)
        sums.append(good_sum)
        det.extend(math.fsum(ws) for ws in np.array(full).T.tolist())
    sums, det = np.concatenate(sums), np.array(det)
    rels = np.abs(det - closed) / abs(closed) if closed else np.abs(det)

    estimate = float(np.mean(sums))
    sd = float(np.std(sums, ddof=1))
    ci95 = 1.96 * sd / math.sqrt(trials)
    rel_err = abs(estimate - closed) / abs(closed) if closed else abs(estimate)
    partition_worst = float(np.max(rels))
    stochastic_ok = abs(estimate - closed) <= max(ci95, 1e-15)
    passed = partition_worst <= 1e-10 and stochastic_ok

    records = tuple(
        {"trial": t, "partition_rel": float(rels[t]), "good_sum": float(sums[t])}
        for t in range(min(trials, 100))
    )
    summary = {
        "integrand": integrand.name,
        "closed_total": closed,
        "partition_worst_rel": partition_worst,
        "estimate": estimate,
        "ci95": ci95,
        "rel_err": rel_err,
        "trials": trials,
        "pi_exact": {str(l): float(pi) for l, pi in pi_exact.items()},
    }
    notes = (
        f"trial grids span levels [{j_min}, {j_max}]; band levels {levels}; "
        f"{octaves} qualifying octaves per cube; partial scale bands "
        "integrate in closed form, so the partition check carries no "
        "quadrature error"
    )
    return ExperimentReport(
        "averaging", _snapshot(params, integrand=integrand.name,
                               octaves=octaves, trials=trials),
        seed, records, summary, passed, notes)


# ---------------------------------------------------------------------------
# coupling-matrix norm growth


# Distinct cubes at levels 0..8 with positions in [0, 4): the most that
# `_draw_collection` can draw.
_COLLECTION_CUBES = 4 * (2 ** 9 - 1)


def _draw_collection(size: int, seed: int
                     ) -> tuple[ShiftedGrid, np.ndarray, np.ndarray]:
    """Nested random cube families, levels 0..8 and positions in [0, 4)
    drawn uniformly; prefixes of one stream are the nesting.  Returns the
    grid and the family's levels and (cubes, 1) indices on it, cube i being
    ``grid.cube(levels[i], index[i])``; no cube is built.  A ``size`` above
    `_COLLECTION_CUBES`, whose draw would never end, raises ``ValueError``
    before anything is drawn."""
    if size > _COLLECTION_CUBES:
        raise ValueError(f"a collection holds at most {_COLLECTION_CUBES} "
                         "distinct cubes")
    rng = np.random.default_rng((seed, 0x5C))
    grid = ShiftedGrid.random(1, -10, 24, seed, trial=0)
    seen: dict[tuple[int, int], None] = {}
    while len(seen) < size:
        lev = int(rng.integers(0, 9))
        seen.setdefault((lev, int(rng.integers(0, 4 * 2 ** lev))))
    family = np.array(list(seen), dtype=np.int64).reshape(size, 2)
    return grid, family[:, 0], family[:, 1:]


# (x, y) pairs of the quadratic-inequality check drawn per matrix product
# (0.5 MB of draws at 512 cubes).
_DRAW_BLOCK = 64

# Power iteration of the coupling norm: step tolerance and round budget.
_PERRON_TOL = 1e-12
_PERRON_ITERS = 50_000


def _perron(a: np.ndarray) -> float:
    n = a.shape[0]
    v = np.full(n, n ** -0.5)
    for _ in range(_PERRON_ITERS):
        w = a @ v
        # each norm as numpy's 1-d `norm` forms it, the root of one dot
        norm = math.sqrt(float(w @ w))
        if norm == 0.0:
            return 0.0
        v2 = w / norm
        step = v2 - v
        if math.sqrt(float(step @ step)) < _PERRON_TOL:
            return norm
        v = v2
    raise RuntimeError("power iteration did not converge within the budget")


@_driver
def run_schur(
    params: Params,
    collection_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256, 512),
    seed: int = 23,
    *,
    draws: int = 1000,
) -> ExperimentReport:
    """Operator-norm growth of the coupling matrix over nested collections.

    The entries couple two dyadic intervals through the long distance, at
    the fixed exponent alpha = 0.5; the bilinear form is bounded over
    arbitrary families, and the power-iteration norm of nested sections
    should stabilize as the family saturates.  The fitted norm then
    certifies the quadratic inequality on ``draws`` random nonnegative pairs
    (x, y), drawn from one stream in blocks of at most `_DRAW_BLOCK` pairs,
    each block's numerators x^T A y from one matrix product; the one-cube
    family has the closed-form norm 2^(-3/2).  No kernel or quadrature
    enters: every entry is closed form.

    The cubes are drawn with levels and positions uniform (the report's
    "multiscale" scheme) -- the faithful family, whose norm provably keeps
    growing at desk sizes (the depth direction saturates geometrically,
    about 2^(-alpha/2) per added level, and the width direction like
    W^(-alpha)).

    ``collection_sizes`` must hold at least two distinct positive sizes
    (repeats count once), or there is no growth to measure, and none above
    2,044, the number of distinct cubes at levels 0..8 with positions in
    [0, 4), which `_draw_collection` refuses; ``draws`` must be at least 1,
    or the inequality is checked on nothing.  Each shortfall raises
    ``ValueError`` before any cube is drawn.  ``passed`` requires the growth
    between the two largest sizes to be under 5 %, the quadratic inequality
    to hold on every draw and the one-cube norm to be exact.  At the
    defaults it is False by design: the norm is still growing at 512 cubes
    (``final_growth`` is about 0.37).
    """
    alpha, scheme = 0.5, "multiscale"
    sizes = sorted(set(int(s) for s in collection_sizes))
    if len(sizes) < 2 or sizes[0] < 1:
        raise ValueError("the growth sweep needs two distinct positive "
                         "collection sizes")
    if draws < 1:
        raise ValueError("the quadratic inequality needs at least one draw")
    grid, levels, index = _draw_collection(sizes[-1], seed)
    big = box_schur_matrix(grid.boxes(levels, index), levels, alpha)
    lambdas = {s: _perron(big[:s, :s]) for s in sizes}
    growths = {f"{a}->{b}": lambdas[b] / lambdas[a] - 1.0
               for a, b in zip(sizes, sizes[1:])}
    final_growth = lambdas[sizes[-1]] / lambdas[sizes[-2]] - 1.0
    saturated = final_growth < 0.05

    # quadratic inequality with the fitted constant; a (b, 2, n) draw is the
    # stream of b sequential (x, y) draws
    rng = np.random.default_rng((seed, 0xA1))
    lam = lambdas[sizes[-1]]
    worst = 0.0
    for start in range(0, draws, _DRAW_BLOCK):
        b = min(_DRAW_BLOCK, draws - start)
        x, y = np.abs(rng.standard_normal((b, 2, sizes[-1]))).transpose(1, 0, 2)
        num = np.einsum("ij,ij->i", x @ big, y) ** 2
        den = lam ** 2 * np.einsum("ij,ij->i", x, x) * np.einsum("ij,ij->i", y, y)
        worst = max(worst, float(np.max(num / den)))
    ineq_ok = worst <= 1.0 + 1e-9

    single_grid = ShiftedGrid.standard(1, -2, 4)
    singleton = schur_coeff(single_grid.cube(0, (0,)), single_grid.cube(0, (0,)), alpha)
    singleton_ok = singleton == 2.0 ** -1.5

    passed = saturated and ineq_ok and singleton_ok
    records = tuple(
        {"size": s, "norm": lambdas[s],
         "growth": growths.get(f"{ps}->{s}")}
        for ps, s in zip([None] + sizes[:-1], sizes)
    )
    summary = {
        "scheme": scheme,
        "alpha": alpha,
        "norms": {str(s): lambdas[s] for s in sizes},
        "final_growth": final_growth,
        "saturated": saturated,
        "fitted_constant": lam ** 2,
        "bilinear_worst_ratio": worst,
        "bilinear_draws": draws,
        "singleton": singleton,
        "singleton_ok": singleton_ok,
    }
    notes = (
        "growth per doubling decays geometrically in added depth "
        "(about 2^(-alpha/2) per level) and like W^(-alpha) in added width; "
        "pushing both directions below 5% needs on the order of 2^17 cubes, "
        "far beyond a dense 512-cube section"
    )
    return ExperimentReport(
        "schur", _snapshot(params, alpha=alpha, scheme=scheme,
                           sizes=list(sizes), draws=draws),
        seed, records, summary, passed, notes)


# ---------------------------------------------------------------------------
# one-factor tail estimate


@dataclass(frozen=True)
class Lemma32Config:
    """One probe configuration: target interval, Whitney interval, and a
    scale point inside the latter's Whitney region."""

    i1: tuple[float, float]
    i2: tuple[float, float]
    x1: float
    t1: float


def sample_lemma32_configs(count: int = 120, seed: int = 5) -> list[Lemma32Config]:
    """The fixed center configuration first, then seeded random ones."""
    out = [Lemma32Config((0.0, 1.0), (0.0, 1.0), 0.5, 0.75)]
    rng = np.random.default_rng((seed, 0x32))
    while len(out) < count:
        lev1 = int(rng.integers(0, 7))
        lev2 = int(rng.integers(0, 7))
        s1, s2 = 2.0 ** -lev1, 2.0 ** -lev2
        k1 = int(rng.integers(-2 * 2 ** lev1, 4 * 2 ** lev1))
        k2 = int(rng.integers(0, 4 * 2 ** lev2))
        lo1, lo2 = k1 * s1, k2 * s2
        u = float(rng.uniform(0.05, 0.95))
        v = float(rng.uniform(0.501, 1.0))
        out.append(Lemma32Config((lo1, lo1 + s1), (lo2, lo2 + s2),
                                 lo2 + u * s2, v * s2))
    return out[:count]


@_driver
def run_lemma32(
    params: Params,
    configs: Optional[Sequence[Lemma32Config]] = None,
) -> ExperimentReport:
    """Tail estimate for the one-factor interval response.

    For each configuration, the square root of the weighted square integral
    of the interval response, under the size-flavor convolution factor at
    the exponent alpha = 0.5, is compared with |I1| / (l(I2) + d)^(1+alpha).
    The integral is the response gram of 1_{I1} at (x1, t1), with its far
    field closed, at the default `QuadratureSpec()` and at its refinement.
    Both the factor and the measure (t/(t+|y|))^lam dy/t are invariant
    under translation and dilation, so that gram is exactly the gram of the
    unit cell [0, 1) at ((x1 - lo1)/|I1|, t1/|I1|); every configuration
    maps there, and one `response_gram` call per spec takes all of them.
    ``passed`` means the refined ratio stays finite and moves by less than
    10 % under the refinement, on every configuration.  An empty
    configuration list, a non-dyadic I1, a probe point outside the Whitney
    region of its I2, and params whose admissible band alpha <= n (lambda1
    - 2)/2 excludes 0.5 are refused before quadrature, on every
    configuration.
    """
    alpha = 0.5
    spec = QuadratureSpec()
    if configs is None:
        configs = sample_lemma32_configs()
    if not configs:
        raise ValueError("need at least one configuration")
    if not alpha <= params.n * (params.lambda1 - 2.0) / 2.0:
        raise ValueError("exponent outside the admissible band for this "
                         "weight")
    lam = params.weight_powers[0]
    factor = ConvolutionFactor(1, alpha, "size")

    sides = []
    for cfg in configs:
        lo2, hi2 = cfg.i2
        ell2 = hi2 - lo2
        if not (lo2 <= cfg.x1 < hi2 and ell2 / 2.0 < cfg.t1 <= ell2):
            raise ValueError("the probe point must lie in the Whitney region "
                             "of its interval")
        lo1, hi1 = cfg.i1
        side, level = hi1 - lo1, 1 - math.frexp(hi1 - lo1)[1]
        if side != 2.0 ** -level or not (lo1 / side).is_integer():
            raise ValueError("the target interval must be dyadic")
        sides.append(side)
    # |I1| is a power of two, so the unit-cell scales are exact and each
    # position rounds once, in x1 - lo1
    unit = StepFunction(0, (0,), np.ones(1))
    x = np.array([cfg.x1 - cfg.i1[0] for cfg in configs]) / sides
    t = np.array([cfg.t1 for cfg in configs]) / sides
    grams = (response_gram(factor, unit, x, t, lam, sp)[:, 0, 0]
             for sp in (spec, spec.refined()))

    records = []
    for cfg, side, gram, gram2 in zip(configs, sides, *grams):
        (lo1, hi1), (lo2, hi2) = cfg.i1, cfg.i2
        gap = max(0.0, lo2 - hi1, lo1 - hi2)
        rhs = side / (hi2 - lo2 + gap) ** (1.0 + alpha)
        lhs, lhs2 = (math.sqrt(g) / cfg.t1 ** alpha for g in (gram, gram2))
        ratio, ratio2 = lhs / rhs, lhs2 / rhs
        drift = abs(ratio2 / ratio - 1.0) if ratio > 0 else 0.0
        records.append({
            "i1": list(cfg.i1), "i2": list(cfg.i2), "x1": cfg.x1,
            "t1": cfg.t1, "ratio": ratio, "ratio_refined": ratio2,
            "drift": drift,
        })

    worst_ratio = max(r["ratio_refined"] for r in records)
    worst_drift = max(r["drift"] for r in records)
    passed = math.isfinite(worst_ratio) and worst_drift < 0.10
    summary = {
        "configs": len(records),
        "max_ratio": worst_ratio,
        "max_refinement_drift": worst_drift,
        "spec": dataclasses.asdict(spec),
    }
    notes = (
        "position integral on the response-gram mesh, graded toward the "
        "interval edges and the weight peak and spanning 128 t1 around both; "
        "past it the compact response takes its far-field value 0"
    )
    return ExperimentReport("lemma32", _snapshot(params, configs=len(records)),
                            0, records, summary, passed, notes)


# ---------------------------------------------------------------------------
# ancestor-ladder decay


def _ladder_probe(grid: ShiftedGrid, base: DyadicCube,
                  k: int) -> tuple[DyadicCube, float, float]:
    """The probe of generation k: a cube at base's level sitting at a
    typical good position inside its k-th ancestor (offset ~2^(k/2) cells
    from the ancestor's edge, clamped inside the (k-1)-st ancestor), with
    its center x1 and the scale t1 = 3/4 of its side."""
    if k < 1:
        raise ValueError("need k >= 1")
    off = min(math.ceil(2.0 ** (k / 2.0)), 2 ** (k - 1) - 1) if k > 1 else 0
    block = (base.index[0] >> (k - 1)) << (k - 1)
    cube = grid.cube(base.level, (block + off,))
    (lo, hi), = cube.box()
    return cube, 0.5 * (lo + hi), 0.75 * cube.side


@_driver
def run_kdecay(
    params: Params,
    k_range: Sequence[int] = tuple(range(1, 15)),
    *,
    side_runs: bool = True,
) -> ExperimentReport:
    """Decay ladders of the complement response and the modified-pattern
    response in the ancestor generation k.

    The kernel is the size-only one at exponents alpha = beta = 0.5, the
    base cube the level-4 cube at index 0 of the standard grid on levels
    [-10, 8], and the quadrature `QuadratureSpec(t_min=2^-10, t_max=2^4)`.
    Both ladders place the probe cube at a typical good position inside its
    k-th ancestor (offset ~2^(k/2) cells).  The complement response is
    dimensionless and should sit at Theta(1) for k up to 8, then decay like
    2^(-alpha k/2).  The modified-pattern response carries the ancestor's
    normalization |I^(k)|^(-1/2); that factor is divided out before the fit,
    and the constant second-axis factor is absorbed into the Theta(1) band.

    Each ladder, the main one and the two side runs, is one call of the
    ladder forms of `k_quantity` and `q_quantity`: one mesh batch and one
    gram pass for the complement responses, and for the modified-pattern
    responses one gram per generation against a Haar-side gram formed once.

    The slopes are fitted over the generations above ``plateau_upto`` = 8,
    so ``k_range`` must hold at least two of them, and the plateaus are read
    from the generations up to it, so it must hold at least one of those;
    either shortfall is refused before any quadrature.  ``passed`` means both
    slopes lie within 0.1 of -alpha/2, both plateau ranges lie in
    [0.1, 10], and, with ``side_runs``, the slope at alpha is 1.5 to 2.5
    times the slope at alpha/2 and the slope magnitudes grow strictly from
    alpha/4 to alpha/2 to alpha.
    """
    alpha, beta, plateau_upto = 0.5, 0.5, 8
    spec = QuadratureSpec(t_min=2.0 ** -10, t_max=2.0 ** 4)
    grid = ShiftedGrid.standard(1, -10, 8)
    base = grid.cube(4, (0,))
    ks = sorted(int(k) for k in k_range)
    slope_ks = [k for k in ks if k > plateau_upto]
    plateau_ks = [k for k in ks if k <= plateau_upto]
    if len(set(slope_ks)) < 2:
        raise ValueError(f"the slope fit needs at least two generations above "
                         f"plateau_upto={plateau_upto}")
    if not plateau_ks:
        raise ValueError(f"the plateau check needs a generation at most "
                         f"plateau_upto={plateau_upto}")
    kernel = make_size_only(1, 1, alpha, beta)
    factor = kernel.tensor_parts[0]
    j1 = grid.cube(1, (0,))
    x2, t2 = 0.3, 0.375

    def ladder(ks: list[int]) -> tuple[tuple, tuple, tuple]:
        # the probe cubes, points and scales of the generations ks
        return tuple(zip(*(_ladder_probe(grid, base, k) for k in ks)))

    cubes, x1s, t1s = ladder(ks)
    kvs = k_quantity(factor, cubes, ks, x1s, t1s, params, spec).tolist()
    qvs = q_quantity(kernel, cubes, ks, j1, (x1s, x2), t1s, t2, params,
                     spec).tolist()
    records = []
    k_vals, q_vals = {}, {}
    for k, cube, kv, qv in zip(ks, cubes, kvs, qvs):
        qn = qv * math.sqrt(cube.side * 2.0 ** k)   # ancestor scale factor out
        k_vals[k], q_vals[k] = kv, qn
        records.append({"k": k, "offset": cube.index[0] - base.index[0],
                        "k_value": kv, "q_value": qv, "q_scaled": qn})

    window = (-alpha / 2.0 - 0.1, -alpha / 2.0 + 0.1)

    def fit(vals: dict) -> float:
        return float(np.polyfit(np.asarray(slope_ks, dtype=float),
                                [math.log2(vals[k]) for k in slope_ks], 1)[0])

    k_slope = fit(k_vals)
    q_slope = fit(q_vals)
    k_plateau, q_plateau = ([min(v[k] for k in plateau_ks),
                             max(v[k] for k in plateau_ks)] for v in (k_vals, q_vals))

    slopes_ok = (window[0] <= k_slope <= window[1]
                 and window[0] <= q_slope <= window[1])
    plateaus_ok = all(lo >= 0.1 and hi <= 10.0 for lo, hi in (k_plateau, q_plateau))

    def side_ladder(a: float) -> dict:
        cubes, x1s, t1s = ladder(slope_ks)
        vals = k_quantity(ConvolutionFactor(1, a, "size"), cubes, slope_ks,
                          x1s, t1s, params, spec)
        return dict(zip(slope_ks, vals.tolist()))

    side = {}
    side_ok = True
    if side_runs:
        s_half = fit(side_ladder(alpha / 2.0))
        s_quarter = fit(side_ladder(alpha / 4.0))
        doubling = k_slope / s_half if s_half != 0.0 else float("inf")
        side = {
            "slope_alpha": k_slope,
            "slope_half_alpha": s_half,
            "slope_quarter_alpha": s_quarter,
            "doubling_ratio": doubling,
        }
        side_ok = (1.5 <= doubling <= 2.5
                   and abs(s_quarter) < abs(s_half) < abs(k_slope))

    passed = slopes_ok and plateaus_ok and side_ok
    summary = {
        "alpha": alpha,
        "k_slope": k_slope,
        "q_slope": q_slope,
        "slope_window": list(window),
        "slope_ks": slope_ks,
        "k_plateau": k_plateau,
        "q_plateau": q_plateau,
        "side_runs": side,
    }
    notes = (
        "modified-pattern values are reported raw and with the ancestor "
        "scale factor divided out; the fit uses the scaled series, whose "
        "second-axis factor is constant across k"
    )
    return ExperimentReport(
        "kdecay", _snapshot(params, alpha=alpha, beta=beta,
                            base_level=base.level, ks=list(ks)),
        0, records, summary, passed, notes)


# ---------------------------------------------------------------------------
# packing dichotomy


@_driver
def run_carleson(
    params: Params,
    omega_count: int = 4,
    levels: int = 3,
    seed: int = 11,
) -> ExperimentReport:
    """Packing dichotomy across a kernel family.

    The family is the size-only, the cancellative and the mixed kernel, all
    at exponents alpha = beta = 0.5, packed under the cap 50 by closed-form
    box constants times exact lattice counts, with no quadrature.
    Cancellative factors zero out the box quantity, so those kernels pass
    any finite packing cap; the size-only kernel's ratio grows like the
    squared rectangle-depth count and must be flagged.  ``passed`` means the
    verdict pattern is exactly that (a flip in either direction fails the
    experiment) and the size-only ratio on the unit square is within 5 % of
    its closed-form growth law.
    """
    cap = 50.0
    size_only = make_size_only(params.n, params.m, 0.5, 0.5)
    kernels = (size_only,
               make_cancellative(params.n, params.m, 0.5, 0.5),
               make_mixed(params.n, params.m, 0.5, 0.5))
    expected = {k.label: any(f.flavor == "cancellative" for f in k.tensor_parts)
                for k in kernels}

    grids = random_grids(1, -6, 10, seed, range(2 * omega_count))
    omegas = [random_open_set(gp, np.random.default_rng((seed, i)),
                              n_rects=4, level_range=(0, 2))
              for i, gp in enumerate(zip(grids[0::2], grids[1::2]))]

    records = []
    verdicts = {}
    for kernel in kernels:
        verdict, reps = carleson_check(kernel, omegas, levels, cap, params)
        verdicts[kernel.label] = verdict
        for om, (rep, rep2) in zip(omegas, reps):
            records.append({
                "kernel": kernel.label,
                "measure": rep.measure,
                "ratio": rep.ratio,
                "ratio_deeper": rep2.ratio,
                "levels": rep.levels,
            })
        if kernel is size_only:
            # closed-form growth law on the unit square
            std = (ShiftedGrid.standard(1, -6, 10),
                   ShiftedGrid.standard(1, -6, 10))
            unit = random_open_set(std, np.random.default_rng(0),
                                   n_rects=1, level_range=(0, 0))
            rep = carleson_sum(kernel, unit, levels, params)
            c_unit = 256.0 * math.log(2.0) ** 2
            law = c_unit * (levels + 1) ** 2
            law_rel = abs(rep.ratio / law - 1.0)
            records.append({"kernel": kernel.label, "measure": rep.measure,
                            "ratio": rep.ratio, "ratio_deeper": law,
                            "levels": levels})

    pattern_ok = all(verdicts[lbl] == expected[lbl] for lbl in verdicts)
    law_ok = law_rel < 0.05
    passed = pattern_ok and law_ok
    summary = {
        "verdicts": verdicts,
        "expected": expected,
        "pattern_ok": pattern_ok,
        "unit_square_law_rel_err": law_rel,
        "cap": cap,
        "levels": levels,
        "omega_count": omega_count,
    }
    notes = (
        "packing ratios compare total box mass against the set measure at "
        f"rectangle depth {levels} and {levels + 1}; the size-only family "
        "grows with depth squared and is expected to fail the cap"
    )
    return ExperimentReport(
        "carleson", _snapshot(params, levels=levels, cap=cap,
                              kernels=[k.label for k in kernels]),
        seed, records, summary, passed, notes)


# ---------------------------------------------------------------------------
# norm-ratio saturation

# Finest lattice level of the ratio sweep: level L forms n x n axis grams,
# n = 2^L (8 MB each at 10), and an O(n^3) eigensolve per distinct gram.
_MAX_RATIO_LEVEL = 10


def _white_noise(rng: np.random.Generator, level: int) -> StepFunction:
    """Seeded standard normal on every lattice cell of the unit square,
    normalized to unit L2 norm."""
    n = 2 ** level
    vals = rng.standard_normal((n, n))
    vals /= math.sqrt(float(np.sum(vals ** 2)) * 4.0 ** -level)
    return StepFunction(level, (0, 0), vals)


def _psd_extremes(gram: np.ndarray, what: str) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric positive semi-definite
    matrix; a negative one beyond roundoff is refused, and one within it
    reads as zero."""
    eig = np.linalg.eigvalsh(gram)
    roundoff = len(eig) * np.finfo(float).eps * float(np.abs(eig).max())
    if eig[0] < -roundoff:
        raise RuntimeError(
            f"{what} is not positive semi-definite: smallest eigenvalue "
            f"{eig[0]:.3g} against a largest of {eig[-1]:.3g}")
    return max(float(eig[0]), 0.0), float(eig[-1])


@_driver
def run_boundratio(
    params: Params,
    count: int = 8,
    levels: Sequence[int] = (4, 5, 6, 7),
    seed: int = 41,
) -> ExperimentReport:
    """Exact extreme norm ratios per refinement level.

    The kernel is the cancellative one at exponents alpha = beta = 0.5 and
    the quadrature the default `QuadratureSpec()`; the kernel must pass the
    assumption checkers before anything runs.  On the level-L lattice of the
    unit square (cell side h = 2^-L) the public gram route of
    :func:`gstar_sq_norm` is the quadratic form v^T (m1 (x) m2) v in the
    cell values, with m1, m2 the axis grams of :func:`axis_grams`.  Both are
    positive semi-definite, so the supremum of ||g* f|| / ||f|| over every
    level-L step function is exactly h sqrt(lmax(m1) lmax(m2)) and the
    infimum h sqrt(lmin(m1) lmin(m2)): one eigensolve per gram.  A gram
    with a negative eigenvalue beyond roundoff raises ``RuntimeError``.

    ``count`` seeded white-noise inputs per level are a free check: their
    largest ratio (``random_max``) must not exceed the supremum.
    ``passed`` means the supremum's relative increments from level to level
    are positive and do not grow, the last one below 1e-2; no draw exceeds
    the supremum by more than 1e-12 relative; and multiplying the kernel by
    a constant scales the ratio of five draws at the coarsest level exactly
    (deviation at most 1e-12).  ``levels`` must hold at least two distinct
    levels (repeats count once), or there is no increment to measure, each
    in 0 .. `_MAX_RATIO_LEVEL` (10); fewer, one outside, or ``count < 1``
    raise ``ValueError`` before any checker runs or any gram is formed.

    The grams are asked for finest level first: every level's axis gram is
    a sum of the same unit-lattice lag rows (:func:`axis_grams`), and the
    finest one forms the most lags, so each coarser level adds only its
    own bottom octave.  Both axes share one gram at these settings, and
    each distinct gram is solved once.
    """
    kernel = make_cancellative(params.n, params.m, 0.5, 0.5)
    spec = QuadratureSpec()
    levels = sorted({int(l) for l in levels})
    if count < 1 or len(levels) < 2:
        raise ValueError(
            "the ratio sweep needs count >= 1 and two distinct levels")
    if levels[0] < 0 or levels[-1] > _MAX_RATIO_LEVEL:
        raise ValueError(
            f"ratio sweep levels must lie in 0..{_MAX_RATIO_LEVEL}, "
            f"got {levels[0]}..{levels[-1]}")
    checks = (check_size(kernel, params), check_holder(kernel, params),
              check_mixed(kernel, params))
    if not all(c.passed for c in checks):
        failing = "; ".join(c.summary() for c in checks if not c.passed)
        raise RuntimeError(f"kernel assumption checks failed: {failing}")

    grids = (ShiftedGrid.standard(1, -12, 12),) * 2

    def ratio(kern: Kernel, f: StepFunction) -> float:
        sq = gstar_sq_norm(kern, f, params, grids, spec, route="gram")
        return math.sqrt(max(sq, 0.0))

    def draw(lev: int, trial: int) -> StepFunction:
        return _white_noise(np.random.default_rng((seed, lev, trial)), lev)

    extremes = {}
    for lev in reversed(levels):
        lattice = StepFunction(lev, (0, 0), np.zeros((2 ** lev, 2 ** lev)))
        m1, m2 = axis_grams(kernel, lattice, params, grids, spec)
        e1 = _psd_extremes(m1, f"the level-{lev} gram on axis 0")
        extremes[lev] = e1, e1 if m2 is m1 else _psd_extremes(
            m2, f"the level-{lev} gram on axis 1")

    records = []
    for lev in levels:
        (lo1, hi1), (lo2, hi2) = extremes[lev]
        h = 2.0 ** -lev
        records.append({
            "level": lev,
            "max_ratio": h * math.sqrt(hi1 * hi2),
            "min_ratio": h * math.sqrt(lo1 * lo2),
            "random_max": max(ratio(kernel, draw(lev, trial))
                              for trial in range(count)),
            "count": count,
        })

    sups = [r["max_ratio"] for r in records]
    increments = [b / a - 1.0 for a, b in zip(sups, sups[1:])]
    converging = (all(d > 0.0 for d in increments)
                  and all(b <= a for a, b in zip(increments, increments[1:]))
                  and increments[-1] < 1e-2)
    below_sup = all(r["random_max"] <= r["max_ratio"] * (1.0 + 1e-12)
                    for r in records)

    # exact amplitude homogeneity on a handful of functions
    scaled = rescale(kernel, 2.0)
    homo_dev = 0.0
    for trial in range(5):
        f = draw(levels[0], trial)
        homo_dev = max(homo_dev,
                       abs(ratio(scaled, f) / (2.0 * ratio(kernel, f)) - 1.0))

    passed = converging and below_sup and homo_dev <= 1e-12
    summary = {
        "kernel": kernel.label,
        "max_ratios": {str(l): s for l, s in zip(levels, sups)},
        "top_growth": increments[-1],
        "homogeneity_dev": homo_dev,
        "checker_estimates": {c.condition: c.estimate for c in checks},
        "count": count,
    }
    notes = (
        "scale strip (2^-13, 2^6] on a level-(-12..12) grid pair; the strip "
        "bottom sits at least five octaves under the finest lattice; the "
        "supremum's measured increments are "
        + ", ".join(f"{a}->{b} {d:+.3%}"
                    for a, b, d in zip(levels, levels[1:], increments))
    )
    return ExperimentReport(
        "boundratio", _snapshot(params, kernel=kernel.label, count=count,
                                levels=list(levels)),
        seed, records, summary, passed, notes)


# ---------------------------------------------------------------------------
# case decomposition


def _containing_cube(grid: ShiftedGrid, f: StepFunction, axis: int) -> DyadicCube:
    """Coarsest-needed grid interval containing f's box along one axis."""
    unit = max(f.level, grid.j_max)
    lo = f.lo[axis] << (unit - f.level)
    hi = lo + (f.shape[axis] << (unit - f.level))
    for level in range(min(0, grid.j_max), grid.j_min - 1, -1):
        # the level-``level`` cube containing the point lo, exactly
        k = (lo - (grid.offset(level)[0] << (unit - grid.j_max))) >> (unit - level)
        cube = grid.cube(level, (k,))
        if hi <= cube.lattice_corner(unit)[0] + (1 << (unit - level)):
            return cube
    raise ValueError("support does not fit inside the grid truncation")


def _haar_synthesis(members: Sequence[HaarIndex],
                    ) -> tuple[StepFunction, np.ndarray]:
    """The members on one lattice: a lattice function covering every
    member's support, and the synthesis matrix whose row i holds member i's
    cell values there."""
    hs = [haar_function(m) for m in members]
    level = max(h.level for h in hs)
    hs = [h.refined(level) for h in hs]
    lo = min(h.lo[0] for h in hs)
    n = max(h.lo[0] + h.shape[0] for h in hs) - lo
    rows = np.array([h.padded((lo,), (n,)).values for h in hs])
    return StepFunction(level, (lo,), np.zeros(n)), rows


def _region_gram(factor: ConvolutionFactor, lattice: StepFunction,
                 rows: np.ndarray, w_cube: DyadicCube, lam: float,
                 spec: QuadratureSpec) -> np.ndarray:
    """Gram matrix of member responses over one Whitney region.

    The response grams of the synthesis rows over the region cube's
    interval, the weight's position integral in closed form, integrated
    over its scale band (side/2, side] in dt/t: one `response_gram` call
    at all the band's scale nodes, summed in node order.  All the case
    quantities over this region are quadratic forms in this matrix, so
    every split of the coefficient matrix is evaluated on the same nodes.
    """
    box, = w_cube.box()
    side = w_cube.side
    tn, tw = octave_nodes(side / 2.0, side, spec.t_points_per_octave, spec.rule)
    grams = response_gram(factor, lattice, box, tn, lam, spec, rows)
    return sum(gram * (w / t) for gram, t, w in zip(grams, tn, tw))


def _pair_tag(side1: float, side2: float, gap: float, r: int,
              gamma: float) -> str:
    tau = side2 ** gamma * side1 ** (1.0 - gamma)
    if gap > tau:
        return "separated"
    if side1 > 2 ** r * side2:
        return "nested"
    return "adjacent"


@_driver
def run_cases(
    params: Params,
    grid_pair_seed: int = 13,
    spec: Optional[QuadratureSpec] = None,
    *,
    whitney_levels: tuple[int, int] = (-1, 3),
    pad: float = 2.0,
) -> ExperimentReport:
    """Good-region quadrature split by coefficient side-length comparisons.

    The kernel is the size-only one at exponents alpha = beta = 0.5, the
    input seeded white noise on the level-2 cells of the unit square (unit
    L2 norm, drawn from ``grid_pair_seed``), and the quadrature ``spec``,
    by default `QuadratureSpec(points_per_cell=3, t_points_per_octave=4)`.
    The full good-Whitney quantity and its four side-length pieces evaluate
    as quadratic forms of the same per-region gram matrices, so the quadratic
    inequality (full <= 4 x sum of pieces) holds on the shared nodes exactly,
    up to float roundoff.  Coefficient-interval pairs with the wider interval
    on the coefficient side split into separated / nested / adjacent classes.
    ``passed`` means the inequality holds on every region pair, the classes
    cover each pair exactly once, and nested pairs against a good region
    interval are genuine ancestors.
    """
    kernel = make_size_only(params.n, params.m, 0.5, 0.5)
    spec = spec or QuadratureSpec(points_per_cell=3, t_points_per_octave=4)
    f = _white_noise(np.random.default_rng((grid_pair_seed, 0x99)), 2)

    g1, g2 = random_grids(1, -13, 6, grid_pair_seed, (0, 1))
    # the domain cubes' corners are lattice points at the grids' finest level
    expansion = expand(f, (_containing_cube(g1, f, 0), _containing_cube(g2, f, 1)),
                       g1.j_max)
    members1, members2 = expansion.members(0), expansion.members(1)
    coeff = expansion.coefficients()
    keep1 = np.abs(coeff).sum(axis=1) > 0.0
    keep2 = np.abs(coeff).sum(axis=0) > 0.0
    members1 = [m for m, k in zip(members1, keep1) if k]
    members2 = [m for m, k in zip(members2, keep2) if k]
    coeff = coeff[np.ix_(keep1, keep2)]
    norm_sq = float(np.sum(coeff ** 2))

    lam1, lam2 = params.weight_powers
    fac1, fac2 = kernel.tensor_parts

    def region_grams(grid, members, fac, lam):
        lattice, rows = _haar_synthesis(members)
        out = {}
        lo_lev, hi_lev = whitney_levels
        for lev in range(lo_lev, hi_lev + 1):
            cubes = list(grid.cubes_overlapping(lev, [(-pad, 1.0 + pad)]))
            if not cubes:  # pad < -1/2 can leave a level with none
                continue
            s, = grid.descendant_offset(grid.j_min, lev)
            good = is_good_offset(lev, [np.array([c.index[0] - s for c in cubes])],
                                  grid.j_min, grid.j_max, params)
            for cube, ok in zip(cubes, good):
                if ok:
                    out[cube] = _region_gram(fac, lattice, rows, cube, lam,
                                             spec)
        return out

    grams1 = region_grams(g1, members1, fac1, lam1)
    grams2 = region_grams(g2, members2, fac2, lam2)
    if not grams1 or not grams2:
        raise RuntimeError("no good region interval survived the goodness "
                           "filter; pick another grid seed")

    sides1 = np.array([m.cube.side for m in members1])
    sides2 = np.array([m.cube.side for m in members2])

    def split_masks(sides: np.ndarray, w_side: float):
        lt = sides < w_side
        return {"lt": lt, "ge": ~lt}

    piece_keys = [(a, b) for a in ("lt", "ge") for b in ("lt", "ge")]
    total_full = 0.0
    piece_totals = {k: 0.0 for k in piece_keys}
    identity_ok = True
    tag_totals = {"separated": 0.0, "nested": 0.0, "adjacent": 0.0}
    tag_counts = {"separated": 0, "nested": 0, "adjacent": 0}
    nested_violations = 0
    gamma = params.gamma_n

    def form(c: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> float:
        return float(np.sum((c.T @ m1 @ c) * m2))

    for w1, m1 in grams1.items():
        masks1 = split_masks(sides1, w1.side)
        # classify coefficient intervals against this region interval
        tags = []
        for mem, wide in zip(members1, masks1["ge"]):
            if not wide:
                tags.append(None)
                continue
            (l1, h1), = mem.cube.box()
            (wl, wh), = w1.box()
            gap = max(0.0, wl - h1, l1 - wh)
            tag = _pair_tag(mem.cube.side, w1.side, gap, params.r, gamma)
            tags.append(tag)
            tag_counts[tag] += 1
            if tag == "nested":
                gens = w1.level - mem.cube.level
                if gens < 1 or w1.grid.ancestor(w1, gens) != mem.cube:
                    nested_violations += 1
        for w2, m2 in grams2.items():
            masks2 = split_masks(sides2, w2.side)
            full = form(coeff, m1, m2)
            pieces = {(a, b): form(coeff * masks1[a][:, None] * masks2[b][None, :],
                                   m1, m2) for a, b in piece_keys}
            total_full += full
            bound = 4.0 * sum(pieces.values())
            if full > bound + 1e-9 * max(1.0, abs(bound)):
                identity_ok = False
            for k in piece_keys:
                piece_totals[k] += pieces[k]
            for tag in ("separated", "nested", "adjacent"):
                sel = np.array([tg == tag for tg in tags])
                if sel.any():
                    c = coeff * sel[:, None] * masks2["lt"][None, :]
                    tag_totals[tag] += form(c, m1, m2)

    n_wide_pairs = int(np.sum([np.sum(sides1 >= w.side) for w in grams1]))
    counts_ok = sum(tag_counts.values()) == n_wide_pairs
    passed = identity_ok and counts_ok and nested_violations == 0

    tag_sum = sum(tag_totals.values())
    shares = {k: (v / tag_sum if tag_sum > 0 else 0.0)
              for k, v in tag_totals.items()}
    records = tuple(
        {"piece": f"{a},{b}", "value": piece_totals[(a, b)],
         "share": piece_totals[(a, b)] / max(sum(piece_totals.values()), 1e-300)}
        for a, b in piece_keys
    )
    summary = {
        "kernel": kernel.label,
        "full_quantity": total_full,
        "pieces": {f"{a},{b}": piece_totals[(a, b)] for a, b in piece_keys},
        "identity_ok": identity_ok,
        "norm_sq": norm_sq,
        "full_over_norm": total_full / norm_sq if norm_sq else 0.0,
        "tag_counts": tag_counts,
        "tag_shares": shares,
        "counts_reconcile": counts_ok,
        "nested_ancestor_violations": nested_violations,
        "good_regions": (len(grams1), len(grams2)),
    }
    notes = (
        f"region intervals span levels {whitney_levels} within {pad} units "
        "of the support; the region sum is truncated there and the "
        "inequality is evaluated pairwise on shared quadrature nodes"
    )
    return ExperimentReport(
        "cases", _snapshot(params, kernel=kernel.label,
                           whitney_levels=list(whitney_levels), pad=pad,
                           f_level=f.level),
        grid_pair_seed, records, summary, passed, notes)
