"""Unit-disk verdicts: exact on the real axis for beta = 1, sampled for beta < 1.

Both classes are one inequality.  For f analytic with f(0) = 0, f'(0) = 1,
let n = z f'(z) / f(z) - 1; f is in S*(alpha, beta) when

    | n / (n + 2 (1 - alpha)) |  <  beta

at every z in the open unit disk, and u is in K(alpha, beta) exactly when
z u' is in S*(alpha, beta).  So the starlike check takes f = u and the
convex check f = z u'.  sup_estimates is the only evaluator of the
quotient's supremum; sup_estimate is its one-class form.

The real-axis theorem (q > 0).  u(z) = z F_q(-c z) with F_q = 0F1(;q;.).
For q > 0 every zero of F_q is real and negative (Hurwitz; Watson, Treatise
on the Theory of Bessel Functions, 15.25), so u is in the Laguerre-Polya
class and the zeros z_k of f / z, for f = u and for f = z u' alike, lie on
the ray sign(c) (0, oo); those of u' interlace with those of u, one below
the first and one in each gap.  Then n = sum_k z / (z - z_k).  When every
|z_k| > 1, each term maps the unit disk onto the disk with real diameter
[-1 / (|z_k| - 1), 1 / (|z_k| + 1)], its left end taken at z = sign(c), so
n maps it into the disk with real diameter [-A, B], A >= B, and
n(sign c) = -A.  The sets |w / (w + 2 (1 - alpha))| <= t (t < 1) are disks
on the real axis that reach further right of 0 than left, so [-A, B] lies
in the one whose left end is -A.  So the sup of the quotient over the
disk is decided by one real point:

    sup = oo                        if f / z has a zero in the closed disk
                                    or n(sign c) + 2 (1 - alpha) <= 0,
    sup = |n / (n + 2 (1 - alpha))|  at z = sign(c) otherwise,

the r -> 1 limit of the value at z = sign(c) r.  A zero of f / z, or a root
of n + 2 (1 - alpha) on the segment from 0 to sign(c), where n falls from
0, is a pole of the quotient in the closed disk, so oo is the exact sup
there for every beta.  sup_estimates reports this sup for every class
with beta = 1; a class with beta < 1, whose verdict the same sup would
decide, is still sampled on the grid below once the pole check has passed.
For q <= 0, F_q can have complex zeros and the theorem does not apply: the
disk layer refuses such q with DomainError.

The real point is one continued fraction.  With x = -|c| and r_m =
F_(q+m+1)(x) / F_(q+m)(x), the contiguous relation of 0F1 gives the
backward recurrence

    r_m = 1 / d_m,   d_m = 1 + x / ((q + m) (q + m + 1)) r_(m+1),

stable for this minimal solution (Gautschi, SIAM Review 9, 1967).  Its
depth is certified, not guessed: once |x| / ((q + m) (q + m + 1)) <= 1/4
(from m = M on) Worpitzky's theorem keeps every r_m in [2/3, 2], a change
of r_(m+1) moves r_m by at most 4 |x| / ((q + m) (q + m + 1)) times as
much, and starting from r_N = 1 leaves r_M within CF_EPS of its value.
Each d_m is F_(q+m)(x) / F_(q+m+1)(x), and the number of negative d_m is
the number of zeros of F_q(-y) for 0 < y < |c| (a Sturm sequence), that is
of u / z on the open segment from 0 to sign(c).  From r = r_0 and r_1:

    starlike  n = x r / q,
    convex    n = z u'' / u' = x r (2 + x r_1 / (q + 1)) / (q + x r),

where q + x r = q u'(sign c) / F_q(x).  f / z has no zero in the closed
disk exactly when no d_m is negative and, for the convex lane, q + x r > 0
as well (u' > 0 at sign(c), by the interlacing); a zero of u at sign(c)
itself makes d_0 = 0, r = oo and n = -oo.

The grid of a beta < 1 class reports the empirical maximum, the count of
sample points at or above beta, and the count of points skipped because a
guard tripped: |f / z| (that is |u / z| or |u'|) or the denominator fell
below GUARD.  With f = sum_k b_k z^k (b_k = a_k or k a_k),

    n = sum_k (k - 1) b_k z^(k-1)  /  sum_k b_k z^(k-1),

a quotient of two series in which no z cancels and no 1 is subtracted: at
the origin n has its removable limit 0.  Both series are evaluated by
Horner's rule from one coefficient array a_1..a_(K+1), built by the series
kernel of the bessel module (the ratio recurrence and its stop rule) with
the u'' weight k (k-1) at the largest sampled radius.  That weight is the
largest lane weight of either class, so the terms dropped from any lane sum
to less than SERIES_EPS anywhere on the grid.

For every accepted (p, b, c) the coefficients a_k are real, so
u(conj z) = conj u(z) and the quotient takes equal values at z and at
conj z.  Each ring of the grid is therefore built conjugate-symmetric
(angle index M - j is the mirror of index j), and only the indices
j = 0 .. M // 2 are evaluated.  Every evaluated point carries an integer
weight, the number of grid points it stands for: 1 for j = 0 and, when M is
even, for j = M / 2; 2 otherwise.  Violation and degenerate counts are sums of
these weights, so they count every grid point.  NumPy's complex arithmetic
and abs commute exactly with conjugation when the coefficients are real, so
a mirrored point has a bit-equal quotient and a later index in its ring: the
first-occurrence argmax over the evaluated half is the first-occurrence
argmax over the whole grid.

A sampled maximum below beta is evidence consistent with membership, never
a certificate; the sampled verdicts must not be read as proof.  The package
uses them, with the exact beta = 1 verdicts, as the ground-truth end of the
implication chain: whenever a coefficient criterion holds, the disk layer
must find no violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bessel import MAX_TERMS, BesselParams, _coefficients, _u2_weight
from .criteria import ClassSpec
from .errors import DomainError, NoConvergenceError

GUARD = 1e-14

# Truncation level of the disk series (see the module docstring).
SERIES_EPS = 1e-16

# Certified error of the continued fraction's r_M: an eighth of an ulp of
# r_M, which lies in [2/3, 2] (see the module docstring).
CF_EPS = 2.0 ** -56

DEFAULT_RADII: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999,
)
DEFAULT_ANGLES = 720


@dataclass(frozen=True)
class DiskGrid:
    """Concentric sampling rings: radii in (0, 1), equally spaced angles."""

    radii: tuple[float, ...] = DEFAULT_RADII
    angles_per_ring: int = DEFAULT_ANGLES

    def __post_init__(self) -> None:
        if not self.radii:
            raise DomainError("grid needs at least one radius")
        for r in self.radii:
            if not (0.0 < r < 1.0):
                raise DomainError(f"radii must lie in (0, 1), got {r!r}")
        if self.angles_per_ring < 1:
            raise DomainError(
                f"angles_per_ring must be >= 1, got {self.angles_per_ring!r}"
            )

    def points(self) -> np.ndarray:
        """All sample points as one complex array, ring by ring.

        Each ring holds r exp(i j 2 pi / M) for j = 0 .. M // 2; the rest of
        the ring, j = M // 2 + 1 .. M - 1, is the exact conjugate of point
        M - j.  Point 0 is real; point M / 2 (M even) is its own mirror and
        keeps the rounded imaginary part of exp(i pi).
        """
        m = self.angles_per_ring
        half = np.exp(1j * (np.arange(m // 2 + 1) * (2.0 * np.pi / m)))
        ring = np.concatenate([half, np.conj(half[1 : m - m // 2][::-1])])
        return np.concatenate([r * ring for r in self.radii])


@lru_cache(maxsize=8)
def _half_rings(grid: DiskGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """The evaluated half of every ring, each point's weight, and max |z|.

    The arrays are shared by every caller, so they are read-only.  The
    weights are whole numbers stored as floats: a weighted count is then one
    dot product, about 4x faster than a masked integer sum.
    """
    m, n = grid.angles_per_ring, grid.angles_per_ring // 2 + 1
    zs = grid.points().reshape(len(grid.radii), m)[:, :n].ravel()
    weights = np.full(n, 2.0)
    weights[0] = 1.0
    if m % 2 == 0:
        weights[-1] = 1.0
    ws = np.tile(weights, len(grid.radii))
    zs.flags.writeable = False
    ws.flags.writeable = False
    return zs, ws, float(np.max(np.abs(zs)))


DEFAULT_GRID = DiskGrid()


class QuotientKind(Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


@dataclass(frozen=True)
class SupEstimate:
    """Supremum of a quotient over the disk: exact, or sampled on a grid."""

    max_quotient: float
    argmax_z: complex
    violations: int
    degenerate_points: int


def _horner(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] zs^j, in place on one accumulator."""
    acc = np.zeros_like(zs)
    for ck in coeffs[::-1]:
        acc *= zs
        acc += ck
    return acc


def _fraction(q: float, s: float) -> tuple[float, float, int]:
    """(r_0, r_1, zeros) of the continued fraction at x = -s, for q > 0, s >= 0.

    r_m = F_(q+m+1)(-s) / F_(q+m)(-s); zeros is the number of negative
    denominators d_m, which is the number of zeros of F_q(-y) for
    0 < y < s.  The depth N is the first level past the Worpitzky index M
    at which the product of 4 s / ((q + m) (q + m + 1)), m = M .. N - 1,
    the bound on the error that r_N = 1 leaves in r_M, falls below CF_EPS;
    raises NoConvergenceError when N would exceed MAX_TERMS.  A zero d_m
    (F_(q+m) vanishing at -s) gives r_m = inf rather than raising.
    """
    depth, bound = 0, 1.0
    while bound > CF_EPS:
        a = s / ((q + depth) * (q + depth + 1.0))
        if a <= 0.25:  # from here on, since a falls with m
            bound *= 4.0 * a
        depth += 1
        if depth > MAX_TERMS:
            raise NoConvergenceError(
                f"continued fraction for |c| = {s!r} needs more than {MAX_TERMS} levels"
            )
    r = r1 = 1.0
    zeros = 0
    for m in range(depth - 1, -1, -1):
        d = 1.0 - s / ((q + m) * (q + m + 1.0)) * r
        zeros += d < 0.0
        r1, r = r, (1.0 / d if d else math.inf)
    return r, r1, zeros


def _real_axis(q: float, s: float, which: QuotientKind) -> float:
    """n = z f'/f - 1 of the lane at z = sign(c), where |c| = s.

    -inf when f / z has a zero in the closed disk.
    """
    x = -s
    r, r1, zeros = _fraction(q, s)
    den = q + x * r  # q u'(sign c) / F_q(x)
    if zeros or (which is QuotientKind.CONVEX and not den > 0.0):
        return -math.inf
    if which is QuotientKind.STARLIKE:
        return x * r / q
    return x * r * (2.0 + x * r1 / (q + 1.0)) / den


def sup_estimates(
    params: BesselParams,
    classes: Sequence[ClassSpec],
    which: QuotientKind,
    grid: DiskGrid = DEFAULT_GRID,
) -> list[SupEstimate]:
    """Sup of the chosen quotient over the unit disk, for several classes.

    One continued fraction at z = sign(c) decides every class: a pole of the
    quotient in the closed disk (a zero of f / z, or n + 2 (1 - alpha) <= 0
    there) gives sup = inf, and otherwise a class with beta = 1 takes the
    exact sup |n / (n + 2 (1 - alpha))| at that point (see the module
    docstring).  Such a record has argmax_z = sign(c) (+1 for c = 0),
    violations = 1 if sup >= beta else 0 and degenerate_points = 0.  The
    classes with beta < 1 that remain are sampled on grid, evaluated once
    for all of them and only when there is one.  Raises DomainError for
    q <= 0, where the theorem does not hold.
    """
    q = params.q
    if not q > 0.0:
        raise DomainError(f"the disk layer requires q > 0, got q = {q!r}")
    n = _real_axis(q, abs(params.c), which)
    argmax = complex(-1.0 if params.c < 0.0 else 1.0)
    out: list = []
    sampled: list[int] = []
    for cls in classes:
        den = n + 2.0 * (1.0 - cls.alpha)
        if not den > 0.0:  # a pole of the quotient in the closed disk, whatever beta
            out.append(SupEstimate(math.inf, argmax, 1, 0))
        elif cls.beta == 1.0:
            sup = abs(n / den)
            out.append(SupEstimate(sup, argmax, int(sup >= 1.0), 0))
        else:
            sampled.append(len(out))
            out.append(None)
    if sampled:
        ests = _grid_estimates(params, [classes[i] for i in sampled], which, grid)
        for i, est in zip(sampled, ests):
            out[i] = est
    return out


def _grid_estimates(
    params: BesselParams,
    classes: Sequence[ClassSpec],
    which: QuotientKind,
    grid: DiskGrid,
) -> list[SupEstimate]:
    """Sampled sup of the quotient over grid, sharing everything alpha does not touch.

    The two series lanes, n = z f'/f - 1 and the guard on f/z depend on
    (params, which, grid) alone, so they are evaluated once, on the half of
    each ring that conjugate symmetry leaves distinct; each class then costs
    a few array passes.
    """
    zs, weights, rmax = _half_rings(grid)
    a = np.asarray(_coefficients(params.q, -params.c, SERIES_EPS, rmax, _u2_weight)[0])
    ks = np.arange(1, len(a) + 1, dtype=float)
    b = a if which is QuotientKind.STARLIKE else ks * a  # f = u or f = z u'
    first = _horner(b, zs)  # f / z
    with np.errstate(all="ignore"):
        num = _horner((ks - 1.0) * b, zs) / first  # z f'/f - 1
        live = np.abs(first) > GUARD
    return [
        _sup_for_class(zs, weights, num, live, 2.0 * (1.0 - cls.alpha), cls.beta)
        for cls in classes
    ]


def _sup_for_class(zs, weights, num, live, shift: float, beta: float) -> SupEstimate:
    with np.errstate(all="ignore"):
        den = num + shift
        quot = np.abs(num / den)
        valid = live & (np.abs(den) > GUARD)
    degenerate = int(weights @ ~valid)
    if not valid.any():
        return SupEstimate(0.0, 0j, 0, degenerate)
    masked = np.where(valid, quot, -1.0)  # -1 < beta: a masked point never counts
    idx = int(np.argmax(masked))
    violations = int(weights @ (masked >= beta))
    return SupEstimate(float(masked[idx]), complex(zs[idx]), violations, degenerate)


def sup_estimate(
    params: BesselParams,
    cls: ClassSpec,
    which: QuotientKind,
    grid: DiskGrid = DEFAULT_GRID,
) -> SupEstimate:
    """Sup of the chosen quotient for one class; see sup_estimates.

    On the grid, guard-tripped points are excluded from the maximum and the
    violation count and reported in degenerate_points instead.
    """
    return sup_estimates(params, [cls], which, grid)[0]
