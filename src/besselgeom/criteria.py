"""Weighted coefficient sums deciding starlikeness and convexity.

For f(z) = z + sum_{k>=2} a_k z^k on the unit disk, membership in the
starlike class S*(alpha, beta) is guaranteed by

    sum_{k>=2} [k - 1 + beta (k + 1 - 2 alpha)] |a_k|  <=  2 beta (1 - alpha),

and membership in the convex class K(alpha, beta) by the same sum with an
extra factor k in the weight.  Here 0 <= alpha < 1 and 0 < beta <= 1.  The
two are dual: f is in K(alpha, beta) exactly when z f'(z) is in
S*(alpha, beta), and at the coefficient level the convex weight is the
starlike weight applied to the coefficients k a_k.

For the normalized Bessel-type series, |a_k| = |c|^(k-1) / ((q)_(k-1) (k-1)!)
decays factorially.  The sums weigh |a_k| for either sign of c; the
printed variant of the paper's displays lives in the closed-form conditions
alone.  Both sums use the series evaluator's coefficient kernel
(bessel._coefficients) and its rigorous geometric-majorant truncation, with
the class weight in place of the derivative weights.  Reports carry a
tri-state status: a verdict is only HOLDS or FAILS when the tail bound
cannot flip it, and INDETERMINATE otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bessel import BesselParams, _coefficients, _kahan_sum, eval_u_derivatives
from .errors import DomainError

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

    holds is the rigorous claim sum + tail_bound <= threshold; FAILS requires
    sum - tail_bound > threshold; anything else is INDETERMINATE.  Ties at
    sum == threshold count as HOLDS (the criteria are non-strict).
    """

    sum: float
    tail_bound: float
    threshold: float
    holds: bool
    margin: float
    status: SumStatus


def _report(total: float, tail: float, cls: ClassSpec) -> SumReport:
    thr = cls.threshold
    if total + tail <= thr:
        status = SumStatus.HOLDS
    elif total - tail > thr:
        status = SumStatus.FAILS
    else:
        status = SumStatus.INDETERMINATE
    return SumReport(
        sum=total,
        tail_bound=tail,
        threshold=thr,
        holds=status is SumStatus.HOLDS,
        margin=thr - total,
        status=status,
    )


def _weighted_sum(
    params: BesselParams,
    cls: ClassSpec,
    convex: bool,
    eps: float,
) -> SumReport:
    """Sum_{k>=2} weight(k) m_k with m_k = |c|^(k-1) / ((q)_(k-1) (k-1)!).

    The m_k and the tail bound come from the series kernel, at radius 1 and
    with the class weight, whose ratios weight(k+1)/weight(k) decrease
    toward 1.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if not params.q > 0.0:
        raise DomainError(f"criteria require q > 0, got q = {params.q!r}")
    alpha, beta = cls.alpha, cls.beta

    def weight(k: int) -> float:
        w = (k - 1.0) + beta * (k + 1.0 - 2.0 * alpha)
        return w * k if convex else w

    m, _, tail = _coefficients(params.q, abs(params.c), eps, 1.0, weight)
    # m_2 .. m_K; m_(K+1) is the first discarded
    total = _kahan_sum([weight(k) * m[k - 1] for k in range(2, len(m))])
    return _report(total, tail, cls)


def starlike_sum(
    params: BesselParams,
    cls: ClassSpec,
    eps: float = DEFAULT_EPS,
) -> SumReport:
    """Starlike coefficient criterion: holds implies u is in S*(alpha, beta)."""
    return _weighted_sum(params, cls, False, eps)


def convex_sum(
    params: BesselParams,
    cls: ClassSpec,
    eps: float = DEFAULT_EPS,
) -> SumReport:
    """Convex coefficient criterion: holds implies u is in K(alpha, beta)."""
    return _weighted_sum(params, cls, True, eps)


def starlike_sum_closed_form(params: BesselParams, cls: ClassSpec) -> float:
    """Closed form of the starlike sum for c < 0, where every a_k is positive.

    Splitting the weight gives

        sum = (1 + beta) [u'(1) - u(1)] + 2 beta (1 - alpha) [u(1) - 1],

    which telescopes the weighted sum through the series values at z = 1.
    """
    if not params.c < 0.0:
        raise DomainError(f"closed form requires c < 0, got c = {params.c!r}")
    if not params.q > 0.0:
        raise DomainError(f"criteria require q > 0, got q = {params.q!r}")
    u, up, _ = eval_u_derivatives(params, 1.0, eps=1e-14)
    return (1.0 + cls.beta) * (up.value - u.value) + cls.threshold * (u.value - 1.0)
