"""Weighted coefficient sums deciding starlikeness and convexity.

For f(z) = z + sum_{k>=2} a_k z^k on the unit disk, membership in the
starlike class S*(alpha, beta) is guaranteed by

    sum_{k>=2} [k - 1 + beta (k + 1 - 2 alpha)] |a_k|  <=  2 beta (1 - alpha),

and membership in the convex class K(alpha, beta) by the same sum with an
extra factor k in the weight.  Here 0 <= alpha < 1 and 0 < beta <= 1.  The
two are dual: f is in K(alpha, beta) exactly when z f'(z) is in
S*(alpha, beta), and at the coefficient level the convex weight is the
starlike weight applied to the coefficients k a_k.

For the normalized Bessel-type series, |a_k| = m_k = |c|^(k-1) / ((q)_(k-1)
(k-1)!) decays factorially.  The sums weigh |a_k| for either sign of c; the
printed variant of the paper's displays lives in the closed-form conditions
alone.

The starlike weight splits exactly as

    k - 1 + beta (k + 1 - 2 alpha)  =  (1 + beta) (k - 1) + 2 beta (1 - alpha),

so for every class of one (p, b, c) the starlike sum is
(1 + beta) M1 + thr M0, with thr = 2 beta (1 - alpha) and the two moments
M1 = sum_{k>=2} (k - 1) m_k and M0 = sum_{k>=2} m_k, which do not depend on
the class; the convex sum is the same with M1 = sum k (k - 1) m_k and
M0 = sum k m_k.  _moments therefore runs the series evaluator's
coefficient kernel (bessel._coefficients) once per order, with the degree 1
or 2 of the weight w_hi(k) = k - 1 or k (k - 1) of M1, and forms both
moments in one compensated pass; _class_sum decides each class from them.
The kernel bounds the discarded part of M1 by B.  For k > K, the last
index summed, w_hi(k) >= K w_lo(k), where w_lo(k) = 1 or k is the weight of
M0, so the discarded part of M0 is at most B / K and the class sum's at
most ((1 + beta) + thr / K) B <= (1 + beta + thr) B, which is reported.
Since 1 + beta + thr <= 4, the kernel runs at DEFAULT_EPS / 4 and every
class's tail bound stays below DEFAULT_EPS.

Every term is nonnegative.  So once a term or a partial sum overflows, the
exact sum exceeds every threshold: the report is FAILS with sum inf and
margin -inf.  When the kernel itself stops at an overflowing coefficient
(SeriesOverflowError), nothing after it is summed: _moments gives (inf, 0, 0),
so every class's sum is inf and its tail_bound 0, since the discarded terms
can only raise a sum that is already inf.

Reports carry a tri-state status: a verdict is only HOLDS or FAILS when the
tail bound cannot flip it, and INDETERMINATE otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .bessel import BesselParams, _coefficients
from .errors import DomainError, SeriesOverflowError

DEFAULT_EPS = 1e-12


class QuotientKind(Enum):
    """The class every layer decides; u is convex exactly when z u' is starlike."""

    STARLIKE = "starlike"
    CONVEX = "convex"


@dataclass(frozen=True)
class ClassSpec:
    """Order alpha and type beta of the target class: 0 <= alpha < 1, 0 < beta <= 1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha < 1.0):
            raise DomainError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        if not (math.isfinite(self.beta) and 0.0 < self.beta <= 1.0):
            raise DomainError(f"beta must lie in (0, 1], got {self.beta!r}")

    @property
    def threshold(self) -> float:
        """Right-hand side 2 beta (1 - alpha) of both coefficient criteria."""
        return 2.0 * self.beta * (1.0 - self.alpha)


class SumStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SumReport:
    """Outcome of one weighted coefficient sum against its threshold.

    HOLDS is the rigorous claim sum + tail_bound <= threshold; FAILS requires
    sum - tail_bound > threshold; anything else is INDETERMINATE.  Ties at
    sum == threshold count as HOLDS (the criteria are non-strict).  holds
    and margin = threshold - sum are derived, not stored.  A sum whose terms
    overflow reads sum = inf, hence margin = -inf, and FAILS.
    """

    sum: float
    tail_bound: float
    threshold: float
    status: SumStatus

    @property
    def holds(self) -> bool:
        return self.status is SumStatus.HOLDS

    @property
    def margin(self) -> float:
        return self.threshold - self.sum


def _class_sum(m1: float, m0: float, bound: float, beta: float, thr: float) -> tuple:
    """(sum, tail bound, thr, status) of the class (beta, thr) from its order's _moments."""
    hi = 1.0 + beta
    total, tail = hi * m1 + thr * m0, (hi + thr) * bound
    if total + tail <= thr:
        return total, tail, thr, SumStatus.HOLDS
    if total - tail > thr:
        return total, tail, thr, SumStatus.FAILS
    return total, tail, thr, SumStatus.INDETERMINATE


def _moments(params: BesselParams, which: QuotientKind) -> tuple[float, float, float]:
    """(M1, M0, B) of one order for sum_reports; (inf, 0, 0) at an overflowing m_k."""
    if not isinstance(which, QuotientKind):
        raise DomainError(f"which must be a QuotientKind, got {which!r}")
    if not params.q > 0.0:
        raise DomainError(f"criteria require q > 0, got q = {params.q!r}")
    convex = which is QuotientKind.CONVEX
    try:
        m, bound = _coefficients(params.q, abs(params.c), DEFAULT_EPS, 0.25, 2 if convex else 1)
    except SeriesOverflowError:  # see the module docstring
        return math.inf, 0.0, 0.0

    # M1 and M0 over m_2 .. m_K in one compensated (Kahan) pass; m_(K+1),
    # the last entry, is the first discarded
    m1 = m0 = c1 = c0 = 0.0
    for k in range(2, len(m)):
        b = m[k - 1] * k if convex else m[k - 1]  # w_lo(k) m_k
        y = (k - 1.0) * b - c1
        t = m1 + y
        c1 = (t - m1) - y
        m1 = t
        y = b - c0
        t = m0 + y
        c0 = (t - m0) - y
        m0 = t
    if not m1 < math.inf:  # an overflowing term, where Kahan's corrections give nan
        m1 = m0 = math.inf
    return m1, m0, bound


def sum_reports(
    params: BesselParams, classes: Sequence[ClassSpec], which: QuotientKind
) -> list[SumReport]:
    """The starlike or convex criterion (which) for each class, from one coefficient pass.

    Each report's sum is (1 + beta) M1 + thr M0 and its tail bound
    (1 + beta + thr) B < DEFAULT_EPS; see the module docstring.  Raises
    DomainError for a which that is not a QuotientKind or q <= 0, and
    NoConvergenceError, quoting DEFAULT_EPS, when the kernel's tail bound is
    not certified within its term cap.
    """
    m1, m0, bound = _moments(params, which)
    return [SumReport(*_class_sum(m1, m0, bound, cls.beta, cls.threshold)) for cls in classes]


def starlike_sum(params: BesselParams, cls: ClassSpec) -> SumReport:
    """Starlike coefficient criterion: holds implies u is in S*(alpha, beta)."""
    return sum_reports(params, [cls], QuotientKind.STARLIKE)[0]


def convex_sum(params: BesselParams, cls: ClassSpec) -> SumReport:
    """Convex coefficient criterion: holds implies u is in K(alpha, beta)."""
    return sum_reports(params, [cls], QuotientKind.CONVEX)[0]
