"""Haar systems, tensor-product expansions, modified ancestors.

The expansion machinery is exact, in integers over one power of two: every
cell value of f is written as an integer times 2^-shift, and the transforms
add, subtract and halve those integers.  The trick making that possible: the
unnormalized Haar functions take values in {-1, 0, +1}, and wherever a
normalization |I|^(-1/2) (irrational for odd levels) would appear, it does so
squared -- reconstruction weights coefficients by 1/|I|, Parseval squares
them.  Every quantity in the round trip is therefore a dyadic rational, and
reconstruct(expand(f)) returns f bit for bit.

Signatures eta in {0,1}^n label the tensor pattern per axis: eta_i = 1 puts
the +/- split on axis i, eta_i = 0 leaves it flat.  The all-zero signature is
the scaling member, admitted only for the top cube of a finite system, which
is what closes the basis on a bounded domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import StepFunction
from .dyadic import DyadicCube

__all__ = [
    "HaarExpansion",
    "HaarIndex",
    "expand",
    "haar_function",
    "reconstruct",
    "s_function",
]


# Most cells a domain may hold at the expansion level: the padded table
# goes through Python integers, about 70 bytes a cell in the transforms
# (36 MB traced at 2^19 cells), so a larger domain is refused before any
# of it is allocated.
_MAX_CELLS = 2 ** 19


@dataclass(frozen=True)
class HaarIndex:
    """A Haar system member: carrier cube plus per-axis signature."""

    cube: DyadicCube
    eta: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.eta) != self.cube.dim:
            raise ValueError("signature length must match the cube dimension")
        if any(e not in (0, 1) for e in self.eta):
            raise ValueError("signature entries must be 0 or 1")
        object.__setattr__(self, "eta", tuple(int(e) for e in self.eta))

    @property
    def cancellative(self) -> bool:
        return any(self.eta)


def haar_function(idx: HaarIndex) -> StepFunction:
    """The L2-normalized member as a step function: tensor of per-axis
    half-splits (+1/-1) or flats, scaled by |I|^(-1/2).

    Cubes of shifted grids sit off the standard lattice at their own level;
    the representation level is refined until the corners are lattice points
    (shifts are dyadic, so a finite level always suffices)."""
    cube = idx.cube
    level = max(cube.level + 1 if idx.cancellative else cube.level,
                cube.lattice_level())
    reps = 2 ** (level - cube.level - 1) if idx.cancellative else \
        2 ** (level - cube.level)
    per_axis = []
    for e in idx.eta:
        if idx.cancellative:
            base = np.array([1.0, -1.0]) if e else np.array([1.0, 1.0])
        else:
            base = np.array([1.0])
        per_axis.append(np.repeat(base, reps))
    pattern = per_axis[0]
    for ax in per_axis[1:]:
        pattern = np.multiply.outer(pattern, ax)
    norm = cube.measure() ** -0.5
    return StepFunction(level=level, lo=cube.lattice_corner(level),
                        values=pattern * norm)


# ---------------------------------------------------------------------------
# packed exact Haar transform (per axis)
# ---------------------------------------------------------------------------
#
# Layout of a fully transformed axis of length 2^d over a top cube at level q:
# position 0 holds the scaling integral; position p >= 1 holds the coefficient
# of the cube at level q + floor(log2 p), offset p - 2^(level - q).  The
# coefficient convention is the pairing with the UNNORMALIZED pattern, i.e.
# c = integral over left half - integral over right half.  The transforms
# run on object arrays of Python ints: sums and differences forward, halved
# sums and differences back, every half exact because a + b and a - b share
# their parity.


def _forward(a: np.ndarray, axis: int) -> np.ndarray:
    """Packed sums and differences of integer cell values along one axis."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    n = a.shape[0]
    while n > 1:
        even, odd = a[0:n:2], a[1:n:2]
        out[n // 2:n] = even - odd
        a, n = even + odd, n // 2
    out[0] = a[0]
    return np.moveaxis(out, 0, axis)


def _inverse(t: np.ndarray, axis: int) -> np.ndarray:
    """Exact inverse of `_forward`."""
    t = np.moveaxis(t, axis, 0)
    a = t[:1]
    while len(a) < len(t):
        d = t[len(a):2 * len(a)]
        nxt = np.empty((2 * len(a),) + a.shape[1:], dtype=object)
        nxt[0::2], nxt[1::2] = (a + d) // 2, (a - d) // 2
        a = nxt
    return np.moveaxis(a, 0, axis)


@dataclass(frozen=True, eq=False)
class HaarExpansion:
    """Exact tensor-product Haar coefficients of a step function on Q1 x Q2.

    ``table[p1, p2] * 2**-shift`` is the pairing of f with the unnormalized
    pattern of the member at packed position p1 along the first factor and
    p2 along the second (position 0 being the top scaling member); the table
    holds Python ints, so the pairing is exact at any magnitude.
    ``members(factor)`` lists one factor's members in packed order.
    Normalized coefficients and exact norms are derived views.
    """

    domain: tuple[DyadicCube, DyadicCube]
    level: int
    table: np.ndarray  # dtype=object, Python ints
    shift: int

    def members(self, factor: int) -> list[HaarIndex]:
        """The members along one factor, in packed-position order."""
        top = self.domain[factor]
        out = [HaarIndex(cube=top, eta=(0,) * top.dim)]
        for level in range(top.level, self.level):
            base, = top.descendant_index(level)
            out += [HaarIndex(cube=top.grid.cube(level, (base + k,)),
                              eta=(1,) * top.dim)
                    for k in range(1 << (level - top.level))]
        return out

    def coefficients(self) -> np.ndarray:
        """Every L2-normalized coefficient <f, h_I x h_J>, over members(0) x
        members(1): the exact pairing ``table[p1, p2] / 2**shift``, correctly
        rounded (int / int is), times (|I| |J|)^(-1/2)."""
        m1, m2 = ([i.cube.measure() for i in self.members(f)] for f in (0, 1))
        scale = np.array([[(a * b) ** -0.5 for b in m2] for a in m1])
        return (self.table / (1 << self.shift)).astype(float) * scale

    def norm_sq_fraction(self) -> Fraction:
        """Parseval sum, exact: each raw coefficient squared over |I| |J|."""
        # 1 / |I| = 2^(level(I) - level(Q)) / |Q| on a 1-d factor
        w1, w2 = (np.array([1 << (i.cube.level - q.level) for i in self.members(f)],
                           dtype=object)
                  for f, q in enumerate(self.domain))
        total = int(w1 @ (self.table * self.table) @ w2)
        exp = sum(q.level for q in self.domain) - 2 * self.shift
        return Fraction(total << exp) if exp >= 0 else Fraction(total, 1 << -exp)


def _check_domain_cube(cube: DyadicCube) -> None:
    if cube.dim != 1:
        raise NotImplementedError("expansions are implemented for 1+1 factors")


def expand(f: StepFunction, domain: tuple[DyadicCube, DyadicCube], level: int) -> HaarExpansion:
    """Exact Haar coefficients of a level-<=``level`` step function on Q1 x Q2.

    The error "support leakage outside domain" fires when f is nonzero off the
    domain box -- the finite system cannot represent that part.  A domain of
    more than ``_MAX_CELLS`` level-``level`` cells is refused before any
    table is built.
    """
    q1, q2 = domain
    _check_domain_cube(q1), _check_domain_cube(q2)
    if f.dim != 2:
        raise ValueError("expected a function on the two-factor product space")
    if f.tail != 0.0:
        raise ValueError("support leakage outside domain: nonzero tail")
    if f.level > level:
        raise ValueError("function is finer than the expansion level")
    # cells per domain side; 0 when the level is coarser than the cube
    n1 = int(2 ** (level - q1.level))
    n2 = int(2 ** (level - q2.level))
    if n1 * n2 > _MAX_CELLS:
        raise ValueError(
            f"the domain holds {n1 * n2} cells at level {level}, above the "
            f"_MAX_CELLS guard of {_MAX_CELLS}; pick a smaller domain")
    fr = f.refined(level)
    lo1, = q1.lattice_corner(level)
    lo2, = q2.lattice_corner(level)
    inside = (lo1 <= fr.lo[0] and fr.lo[0] + fr.shape[0] <= lo1 + n1
              and lo2 <= fr.lo[1] and fr.lo[1] + fr.shape[1] <= lo2 + n2)
    if not inside:
        raise ValueError("support leakage outside domain")
    padded = fr.padded((lo1, lo2), (n1, n2))
    # cell values as integers over one power of two 2^-exp, exactly; the
    # cell area 2^(-2 level) joins it in ``shift``, kept nonnegative
    num, den = np.frompyfunc(float.as_integer_ratio, 1, 2)(padded.values)
    exp = max(int(den.max()).bit_length() - 1, -2 * level)
    table = _forward(_forward(num * ((1 << exp) // den), 0), 1)
    return HaarExpansion(domain=domain, level=level, table=table,
                         shift=exp + 2 * level)


def reconstruct(e: HaarExpansion) -> StepFunction:
    """Inverse of `expand`, exact: returns the step function bit for bit."""
    cells = _inverse(_inverse(e.table, 0), 1)
    # each value is a float exactly, and int / int is correctly rounded
    values = (cells / (1 << (e.shift - 2 * e.level))).astype(float)
    q1, q2 = e.domain
    return StepFunction(level=e.level,
                        lo=q1.lattice_corner(e.level) + q2.lattice_corner(e.level),
                        values=values)


def s_function(i: DyadicCube, k: int) -> StepFunction:
    """The modified k-th ancestor pattern attached to I.

    With P = the k-generations ancestor, A = the (k-1)-generations one and
    h_P the Haar function of P with signature eta = (1, ..., 1),

        s = 0 on A,
            h_P - <h_P>_A on the other children of P,
            -<h_P>_A outside P (the constant tail).

    Then h_P = s + <h_P>_A holds pointwise everywhere: on A both sides equal
    the constant <h_P>_A; on the sibling children the subtraction cancels; off
    P the Haar function vanishes against tail plus average.  The sup bound
    |s| <= 2 |P|^(-1/2) is immediate from |h_P| = |P|^(-1/2).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    grid = i.grid
    if i.level - k < grid.j_min:
        raise ValueError("insufficient scale range: ancestor exceeds the truncation")
    parent = grid.ancestor(i, k)      # P = I^(k)
    keep = grid.ancestor(i, k - 1)    # A = I^(k-1)
    h = haar_function(HaarIndex(cube=parent, eta=(1,) * i.dim))
    # value of h on A: constant there, A being inside one child of P, so the
    # difference below is exactly 0 on A
    h_on_keep = h(*keep.center())
    return h - StepFunction(level=h.level, lo=h.lo,
                            values=np.full(h.shape, h_on_keep), tail=h_on_keep)
