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
M0 = sum k m_k.  (starlike_sum_closed_form is this split evaluated through
u(1) and u'(1).)  sum_reports therefore runs the series evaluator's
coefficient kernel (bessel._coefficients) once, with the weight w_hi(k) =
k - 1 or k (k - 1) of M1, and forms both moments in one compensated pass.
The kernel bounds the discarded part of M1 by B.  For k > K, the last
index summed, w_hi(k) >= K w_lo(k), where w_lo(k) = 1 or k is the weight of
M0, so the discarded part of M0 is at most B / K and the class sum's at
most ((1 + beta) + thr / K) B <= (1 + beta + thr) B, which is reported.
Since 1 + beta + thr <= 4, the kernel runs at eps / 4 and every class's
tail bound stays below eps.

Every term is nonnegative.  So once a term or a partial sum overflows, the
exact sum exceeds every threshold: the report is FAILS with sum inf and
margin -inf.  When the kernel itself stops at an overflowing coefficient
(SeriesOverflowError), nothing after it is summed and tail_bound is
0, since the discarded terms can only raise a sum that is already inf.

Reports carry a tri-state status: a verdict is only HOLDS or FAILS when the
tail bound cannot flip it, and INDETERMINATE otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .bessel import (
    _TINY,
    MAX_TERMS,
    BesselParams,
    _coefficients,
    _u2_weight,
    eval_u_derivatives,
)
from .errors import DomainError, NoConvergenceError, SeriesOverflowError

DEFAULT_EPS = 1e-12


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


def _report(total: float, tail: float, cls: ClassSpec) -> SumReport:
    thr = cls.threshold
    if total + tail <= thr:
        status = SumStatus.HOLDS
    elif total - tail > thr:
        status = SumStatus.FAILS
    else:
        status = SumStatus.INDETERMINATE
    return SumReport(total, tail, thr, status)


def _star_weight(k: int) -> float:
    """Weight k - 1 of m_k in the starlike moment M1."""
    return k - 1.0


def sum_reports(
    params: BesselParams,
    classes: Sequence[ClassSpec],
    convex: bool,
    eps: float = DEFAULT_EPS,
) -> list[SumReport]:
    """The starlike (or convex) criterion for each class, from one coefficient pass.

    Each report's sum is (1 + beta) M1 + thr M0 and its tail bound
    (1 + beta + thr) B < eps; see the module docstring.  Raises DomainError
    for eps <= 0 or q <= 0, and NoConvergenceError, quoting eps, when the
    kernel's tail bound is not certified within its term cap.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if not params.q > 0.0:
        raise DomainError(f"criteria require q > 0, got q = {params.q!r}")
    weight = _u2_weight if convex else _star_weight
    try:
        # eps / 4 underflows to 0, which no bound meets, for eps below 4 ulp(0);
        # the floor still stops the kernel at a bound of 0
        m, bound = _coefficients(params.q, abs(params.c), max(eps / 4.0, _TINY), weight)
    except SeriesOverflowError:  # an overflowing m_k: see the module docstring
        return [_report(math.inf, 0.0, cls) for cls in classes]
    except NoConvergenceError:
        raise NoConvergenceError(
            f"tail bound {eps!r} not certified within {MAX_TERMS} terms"
        ) from None

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
    reports = []
    for cls in classes:
        hi, thr = 1.0 + cls.beta, cls.threshold
        reports.append(_report(hi * m1 + thr * m0, (hi + thr) * bound, cls))
    return reports


def starlike_sum(
    params: BesselParams,
    cls: ClassSpec,
    eps: float = DEFAULT_EPS,
) -> SumReport:
    """Starlike coefficient criterion: holds implies u is in S*(alpha, beta)."""
    return sum_reports(params, [cls], False, eps)[0]


def convex_sum(
    params: BesselParams,
    cls: ClassSpec,
    eps: float = DEFAULT_EPS,
) -> SumReport:
    """Convex coefficient criterion: holds implies u is in K(alpha, beta)."""
    return sum_reports(params, [cls], True, eps)[0]


def starlike_sum_closed_form(params: BesselParams, cls: ClassSpec) -> float:
    """Closed form of the starlike sum for c < 0, where every a_k is positive.

    The weight split of sum_reports, with M1 = u'(1) - u(1) and
    M0 = u(1) - 1, gives

        sum = (1 + beta) [u'(1) - u(1)] + 2 beta (1 - alpha) [u(1) - 1],

    which telescopes the weighted sum through the series values at z = 1.
    """
    if not params.c < 0.0:
        raise DomainError(f"closed form requires c < 0, got c = {params.c!r}")
    if not params.q > 0.0:
        raise DomainError(f"criteria require q > 0, got q = {params.q!r}")
    u, up, _ = eval_u_derivatives(params, 1.0, eps=1e-14)
    return (1.0 + cls.beta) * (up.value - u.value) + cls.threshold * (u.value - 1.0)
