"""Direct verification of the class inequalities by unit-disk sampling.

Both classes are one inequality.  For f analytic with f(0) = 0, f'(0) = 1,
let n = z f'(z) / f(z) - 1; f is in S*(alpha, beta) when

    | n / (n + 2 (1 - alpha)) |  <  beta

at every z in the open unit disk, and u is in K(alpha, beta) exactly when
z u' is in S*(alpha, beta).  So the starlike check takes f = u and the
convex check f = z u', whose coefficients are k a_k.  With f = sum_k b_k z^k,

    n = sum_k (k - 1) b_k z^(k-1)  /  sum_k b_k z^(k-1),

a quotient of two series in which no z cancels and no 1 is subtracted: at
the origin n has its removable limit 0.  This module samples the quotient
on concentric rings and reports the empirical maximum, the count of sample
points at or above beta, and the count of points skipped because a guard
tripped: |f / z| (that is |u / z| or |u'|) or the denominator fell below
GUARD.  sup_estimates is the only evaluator of the quotient; sup_estimate
is its one-class form.

Both series are evaluated by Horner's rule from one coefficient array
a_1..a_(K+1), built by the series kernel of the bessel module (the ratio
recurrence and its stop rule) with the u'' weight k (k-1) at the largest
sampled radius.  That weight is the largest lane weight of either class,
so the terms dropped from any lane sum to less than SERIES_EPS anywhere on
the grid.

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
uses them as the ground-truth end of the implication chain: whenever a
coefficient criterion holds, sampling must find no violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bessel import BesselParams, _coefficients, _u2_weight
from .criteria import ClassSpec
from .errors import DomainError

GUARD = 1e-14

# Truncation level of the disk series (see the module docstring).
SERIES_EPS = 1e-16

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
    """Empirical supremum of a quotient over a grid."""

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


def sup_estimates(
    params: BesselParams,
    classes: Sequence[ClassSpec],
    which: QuotientKind,
    grid: DiskGrid = DEFAULT_GRID,
) -> list[SupEstimate]:
    """sup_estimate for several classes, sharing everything alpha does not touch.

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
    """Empirical sup of the chosen quotient; violations counted against cls.beta.

    Guard-tripped points are excluded from the maximum and the violation
    count and reported in degenerate_points instead.
    """
    return sup_estimates(params, [cls], which, grid)[0]
