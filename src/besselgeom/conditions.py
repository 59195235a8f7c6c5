"""Closed-form sufficient conditions for starlikeness and convexity.

The two general conditions below majorize the weighted coefficient sums of
the criteria module by the exponential series, using the Pochhammer lower
bound (q)_(k-1) >= q (q+1)^(k-2).  With E = exp(s/(q+1)) and s = |c|, the
starlike condition reads

    2 beta (1-alpha) [2 - E + (1 - E)/q] - (1+beta) (s/q) E  >=  0,

and the convex condition, with E' = exp(-s/(q+1)),

    2 beta (1-alpha) (1 + (q+1)/q) E'
        - [ (1+beta) s^2/(q(q+1)) + 2 (1 + beta(2-alpha)) s/q
            + 2 beta (1-alpha) (q+1)/q ]  >=  0.

A nonnegative value certifies the corresponding coefficient sum, hence
class membership.  Each condition also has an "as printed" variant that
keeps s = -c literally; the variants coincide for c < 0 and differ for
c > 0, where only the |c| form still implies the coefficient bound.

Twelve special cases fix (b, c) to one of (1, 1), (1, -1), (2, 1) (the
first-kind, modified, and spherical series) and optionally beta = 1.  For
each, this module carries both the condition as printed in its source
display and the "derived" form obtained by substituting (b, c) into the
general display and clearing a fixed positive factor.  The two agree in
sign for ten of the twelve cases; for the modified-kind starlike pair the
printed display disagrees with direct substitution, and consistency_audit
documents the disagreement instead of silently picking a side.

A condition at one point is evaluated in scalar Python and loads no numpy;
the general displays take E - 1 from expm1 and never give NaN (see _over_q).
consistency_audit passes the same display functions float64 arrays instead:
orders as a column, classes as a row, so one call covers the whole grid.
Their exponentials go through thresholds._entrywise, which maps math over
the entries, so every array entry is bit-equal to the float evaluation at
that point.  Each special case names its Bessel kind, and its (b, c) and
order domain come from bessel.params_of_kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .bessel import BesselKind, BesselParams, params_of_kind
from .criteria import ClassSpec, QuotientKind
from .errors import BetaMismatchError, DomainError
from .thresholds import _entrywise


class Variant(Enum):
    PRINTED = "printed"
    DERIVED = "derived"


class CriterionId(Enum):
    """One tag per closed-form condition."""

    STARLIKE_GENERAL = "starlike-general"
    CONVEX_GENERAL = "convex-general"
    STARLIKE_FIRST_KIND = "starlike-first-kind"
    STARLIKE_MODIFIED = "starlike-modified"
    STARLIKE_SPHERICAL = "starlike-spherical"
    CONVEX_FIRST_KIND = "convex-first-kind"
    CONVEX_MODIFIED = "convex-modified"
    CONVEX_SPHERICAL = "convex-spherical"
    STARLIKE_FIRST_KIND_BETA1 = "starlike-first-kind-beta1"
    STARLIKE_MODIFIED_BETA1 = "starlike-modified-beta1"
    STARLIKE_SPHERICAL_BETA1 = "starlike-spherical-beta1"
    CONVEX_FIRST_KIND_BETA1 = "convex-first-kind-beta1"
    CONVEX_MODIFIED_BETA1 = "convex-modified-beta1"
    CONVEX_SPHERICAL_BETA1 = "convex-spherical-beta1"


@dataclass(frozen=True)
class ConditionVerdict:
    """Signed value of one closed-form condition, which holds when it is >= 0.

    The parameters, class and variant stay with the caller that passed them.
    """

    criterion: CriterionId
    value: float

    @property
    def holds(self) -> bool:
        return self.value >= 0.0


def _exp_term(coef: float, t: float) -> float:
    """coef * exp(t) for an exponent t at which exp(t) alone overflows binary64.

    The product is still finite when |coef| is small enough; otherwise it
    saturates to the infinity with the sign of coef.  A zero coefficient
    leaves 0 * inf, whose sign nothing determines.
    """
    if coef == 0.0:
        raise DomainError(f"exp({t!r}) overflows and its coefficient is 0")
    try:
        return math.copysign(math.exp(t + math.log(abs(coef))), coef)
    except OverflowError:
        return math.copysign(math.inf, coef)


def _over_q(a, s, y, q):
    """(a + s y) / q without 0 * inf: divided last below q = 1, where an
    overflowing numerator means an overflowing quotient, and first above it.
    An array q picks the formula entry by entry."""
    if isinstance(q, float):
        if q < 1.0:
            return (a + s * y) / q
        return a / q + s / q * y
    import numpy as np

    return np.where(q < 1.0, (a + s * y) / q, a / q + s / q * y)


# The general displays take (q, s) and (alpha, beta) as floats, or as
# broadcasting float64 arrays; thr = 2 beta (1 - alpha) rounds as
# ClassSpec.threshold does.


def _starlike_value(q, s, alpha, beta):
    t = s / (q + 1.0)
    try:
        m = _entrywise(math.expm1, t)  # E - 1 without cancelling once t is below an ulp of 1
    except OverflowError:
        # (1+beta) (s/q) E > t E exceeds the largest double and outweighs
        # the positive part thr (2 + 1/q) of the display
        return -math.inf
    thr = 2.0 * beta * (1.0 - alpha)
    # thr (1 - m) - [thr m + (1+beta) s E] / q, m and s of one sign
    return thr * (1.0 - m) - _over_q(thr * m, s, (1.0 + beta) * (m + 1.0), q)


def _convex_value(q, s, alpha, beta):
    t = -s / (q + 1.0)
    thr = 2.0 * beta * (1.0 - alpha)
    # (1+beta) s^2/(q(q+1)) + 2 (1 + beta(2-alpha)) s/q = (s/q) x
    x = 2.0 * (1.0 + beta * (2.0 - alpha)) - (1.0 + beta) * t
    try:
        m = _entrywise(math.expm1, t)  # E' - 1, as in the starlike display
    except OverflowError:  # only the printed variant, at s = -c < -709.78 (q+1)
        head = _exp_term(thr * (2.0 + 1.0 / q), t)
        bracket = _over_q(thr * (q + 1.0), s, x, q)
        if head == bracket == math.inf:  # compare logs; thr (1 + 1/q) is below an ulp of head
            log_ratio = math.log(thr * (2.0 * q + 1.0)) + t - math.log(-s) - math.log(-x)
            return math.copysign(math.inf, log_ratio)
        return head - bracket
    # thr (1 + 1/q) E' - thr (1 + 1/q) + thr E' - (s/q) x, with E' = m + 1
    return thr * (m + 1.0) + thr * m + _over_q(thr * m, -s, x, q)


def _general_qs(params: BesselParams, variant: Variant) -> tuple[float, float]:
    """(q, s) of the general displays, s = -c (printed) or |c| (derived), once q > 0."""
    if not params.q > 0.0:
        raise DomainError(f"condition requires q > 0, got q = {params.q!r}")
    return params.q, (-params.c if variant is Variant.PRINTED else abs(params.c))


def starlike_condition(
    params: BesselParams, cls: ClassSpec, variant: Variant = Variant.DERIVED
) -> ConditionVerdict:
    """General starlike condition; holds implies u is in S*(alpha, beta).

    The printed variant uses s = -c literally (its sufficiency proof assumes
    c < 0); the derived variant uses s = |c|, which keeps the implication to
    the coefficient criterion valid for either sign of c.
    """
    q, s = _general_qs(params, variant)
    value = _starlike_value(q, s, cls.alpha, cls.beta)
    return ConditionVerdict(CriterionId.STARLIKE_GENERAL, value)


def convex_condition(
    params: BesselParams, cls: ClassSpec, variant: Variant = Variant.DERIVED
) -> ConditionVerdict:
    """General convex condition; holds implies u is in K(alpha, beta)."""
    q, s = _general_qs(params, variant)
    value = _convex_value(q, s, cls.alpha, cls.beta)
    return ConditionVerdict(CriterionId.CONVEX_GENERAL, value)


def _f(p):
    return _entrywise(math.exp, 1.0 / (p + 2.0))


def _g(p):
    return _entrywise(math.exp, 2.0 / (2.0 * p + 5.0))


# Printed displays of the twelve special cases.  F = exp(1/(p+2)) and
# G = exp(2/(2p+5)) abbreviate the exponentials of the two q values p+1
# and p+3/2.  Each takes p, alpha and beta as floats or as broadcasting
# float64 arrays, as do the clearing factors of _SPECIAL_CASES.


def _p_star_fk(p, a, b):
    return 2*b*(1-a) * (_f(p)*(2*p+3) - (p+2)) + b + 1


def _p_star_mod(p, a, b):
    return 2*b*(1-a) * ((2*p+3) - (p+2)*_f(p)) + (b+1)*_f(p)


def _p_star_sph(p, a, b):
    return b*(1-a)*(2*p+4)*(2*_g(p) - 1) + a*b + 1


def _p_conv_fk(p, a, b):
    return (2*b*(1-a)*(1 + (p+2)/(p+1))*_f(p)
            - ((1+b)/((p+1)*(p+2)) + 2*b*(1-a)*(p+2)/(p+1)
               - 2*(1 + b*(2-a))/(p+1)))


def _p_conv_mod(p, a, b):
    return (2*b*(1-a)*(1 + (p+2)/(p+1))
            - ((1+b)/((p+1)*(p+2)) + 2*(1 + b*(2-a))/(p+1)
               + 2*b*(1-a)*(p+2)/(p+1))*_f(p))


def _p_conv_sph(p, a, b):
    return (b*(1-a)*(1 + (2*p+5)/(2*p+3))*_g(p)
            - (2*(1+b)/((2*p+3)*(2*p+5)) + b*(1-a)*(2*p+5)/(2*p+3)
               - 2*(1 + b*(2-a))/(2*p+3)))


def _p_star_fk_b1(p, a, b):
    return (1-a)*(_f(p)*(2*p+3) - (p+2)) + 1


def _p_star_mod_b1(p, a, b):
    return (1-a)*((2*p+3) - (p+2)*_f(p)) + _f(p)


def _p_star_sph_b1(p, a, b):
    return (1-a)*(2*p+4)*(2*_g(p) - 1) + a + 1


def _p_conv_fk_b1(p, a, b):
    return ((1-a)*(1 + (p+2)/(p+1))*_f(p)
            - (1/((p+1)*(p+2)) + (1-a)*(p+2)/(p+1) - (3-a)/(p+1)))


def _p_conv_mod_b1(p, a, b):
    return ((1-a)*(1 + (p+2)/(p+1))
            - (1/((p+1)*(p+2)) + (3-a)/(p+1) + (1-a)*(p+2)/(p+1))*_f(p))


def _p_conv_sph_b1(p, a, b):
    return ((1-a)*(1 + (2*p+5)/(2*p+3))*_g(p)
            - (4/((2*p+3)*(2*p+5)) + (1-a)*(2*p+5)/(2*p+3) - 2*(3-a)/(2*p+3)))


@dataclass(frozen=True)
class _SpecialCase:
    kind: BesselKind
    beta1: bool
    which: QuotientKind
    printed: Callable[[float, float, float], float]
    # Positive factor clearing the general display into the printed scale.
    factor: Callable[[float], float]


# The general display of each class, for the DERIVED variant of a special case.
_GENERAL_VALUE = {QuotientKind.STARLIKE: _starlike_value, QuotientKind.CONVEX: _convex_value}

_FK, _MOD, _SPH = BesselKind.FIRST_KIND, BesselKind.MODIFIED, BesselKind.SPHERICAL

_SPECIAL_CASES: dict[CriterionId, _SpecialCase] = {
    CriterionId.STARLIKE_FIRST_KIND: _SpecialCase(
        _FK, False, QuotientKind.STARLIKE, _p_star_fk, lambda p: (p + 1) * _f(p)),
    CriterionId.STARLIKE_MODIFIED: _SpecialCase(
        _MOD, False, QuotientKind.STARLIKE, _p_star_mod, lambda p: p + 1),
    CriterionId.STARLIKE_SPHERICAL: _SpecialCase(
        _SPH, False, QuotientKind.STARLIKE, _p_star_sph, lambda p: (p + 1.5) * _g(p)),
    CriterionId.CONVEX_FIRST_KIND: _SpecialCase(
        _FK, False, QuotientKind.CONVEX, _p_conv_fk, lambda p: 1.0),
    CriterionId.CONVEX_MODIFIED: _SpecialCase(
        _MOD, False, QuotientKind.CONVEX, _p_conv_mod, lambda p: _f(p)),
    CriterionId.CONVEX_SPHERICAL: _SpecialCase(
        _SPH, False, QuotientKind.CONVEX, _p_conv_sph, lambda p: 0.5),
    CriterionId.STARLIKE_FIRST_KIND_BETA1: _SpecialCase(
        _FK, True, QuotientKind.STARLIKE, _p_star_fk_b1, lambda p: (p + 1) * _f(p) / 2),
    CriterionId.STARLIKE_MODIFIED_BETA1: _SpecialCase(
        _MOD, True, QuotientKind.STARLIKE, _p_star_mod_b1, lambda p: (p + 1) / 2),
    CriterionId.STARLIKE_SPHERICAL_BETA1: _SpecialCase(
        _SPH, True, QuotientKind.STARLIKE, _p_star_sph_b1, lambda p: (p + 1.5) * _g(p)),
    CriterionId.CONVEX_FIRST_KIND_BETA1: _SpecialCase(
        _FK, True, QuotientKind.CONVEX, _p_conv_fk_b1, lambda p: 0.5),
    CriterionId.CONVEX_MODIFIED_BETA1: _SpecialCase(
        _MOD, True, QuotientKind.CONVEX, _p_conv_mod_b1, lambda p: _f(p) / 2),
    CriterionId.CONVEX_SPHERICAL_BETA1: _SpecialCase(
        _SPH, True, QuotientKind.CONVEX, _p_conv_sph_b1, lambda p: 0.5),
}


def special_case_condition(
    criterion: CriterionId,
    p: float,
    cls: ClassSpec,
    variant: Variant = Variant.PRINTED,
) -> ConditionVerdict:
    """Evaluate one of the twelve specialized conditions at order p.

    PRINTED transcribes the specialized display verbatim.  DERIVED
    substitutes the (b, c) of the case's kind into the general display as
    written and multiplies by the case's fixed positive clearing factor, so
    the result is directly comparable with the printed value.  An order
    outside the kind's domain raises params_of_kind's DomainError, and a
    display that is not a number there (inf / inf at an order near the
    largest double) raises DomainError instead of a verdict that cannot hold.
    """
    case = _SPECIAL_CASES.get(criterion)
    if case is None:
        raise DomainError(f"{criterion} is not a specialized criterion")
    params = params_of_kind(case.kind, p)
    if case.beta1 and cls.beta != 1.0:
        raise BetaMismatchError(
            f"{criterion.value} is defined for beta = 1, got beta = {cls.beta!r}"
        )
    if variant is Variant.PRINTED:
        value = case.printed(p, cls.alpha, cls.beta)
    else:
        general = _GENERAL_VALUE[case.which]
        value = general(params.q, -params.c, cls.alpha, cls.beta) * case.factor(p)
    if value != value:
        raise DomainError(f"the {variant.value} {criterion.value} display is NaN at p = {p!r}")
    return ConditionVerdict(criterion, value)


# The audit grid: 50 orders by 5 alphas by 5 betas.
AUDIT_P_VALUES: tuple[float, ...] = tuple(-0.9 + i * (10.8 / 49.0) for i in range(50))
AUDIT_ALPHAS: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)
AUDIT_BETAS: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
# The audit lists at most this many disagreements per criterion.
AUDIT_MAX_EXAMPLES = 5

# Reference point where the modified-kind starlike pair visibly splits:
# printed 10 - 4 exp(1/3) > 0, derived 10 - 8 exp(1/3) < 0.
PINNED_DISAGREEMENT = {
    "criterion": CriterionId.STARLIKE_MODIFIED,
    "p": 1.0,
    "alpha": 0.0,
    "beta": 1.0,
}


def consistency_audit() -> dict:
    """Compare printed against derived sign flags for every special case.

    The grid is AUDIT_P_VALUES x AUDIT_ALPHAS x AUDIT_BETAS, 50 x 5 x 5;
    beta = 1 cases are audited on the (p, alpha) sub-grid with beta fixed
    at 1.  Returns a JSON-ready report with per-criterion agreement counts,
    example disagreement points, and the pinned reference disagreement.

    Each criterion is one call of its printed display, its general display
    and its clearing factor, the functions special_case_condition calls, on
    the whole grid: the orders as a column and the classes (alpha, beta) as
    a row.  Every value is the one special_case_condition returns at that
    point, and examples are the first AUDIT_MAX_EXAMPLES disagreements in
    (p, alpha, beta) order.  Every order passes params_of_kind and every
    class ClassSpec, as they would point by point.
    """
    import numpy as np

    p_col = np.array(AUDIT_P_VALUES).reshape(-1, 1)
    q_and_s = {}  # kind -> (q, s = -c) as columns over the orders
    for kind in {case.kind for case in _SPECIAL_CASES.values()}:
        params = [params_of_kind(kind, p) for p in AUDIT_P_VALUES]
        q_and_s[kind] = (np.array([pr.q for pr in params]).reshape(-1, 1),
                         np.array([-pr.c for pr in params]).reshape(-1, 1))
    criteria_report: dict = {}
    for cid, case in _SPECIAL_CASES.items():
        beta_axis = (1.0,) if case.beta1 else AUDIT_BETAS
        classes = [ClassSpec(a, b) for a in AUDIT_ALPHAS for b in beta_axis]
        alpha = np.array([[cls.alpha for cls in classes]])
        beta = np.array([[cls.beta for cls in classes]])
        q, s = q_and_s[case.kind]
        printed = case.printed(p_col, alpha, beta)
        derived = _GENERAL_VALUE[case.which](q, s, alpha, beta) * case.factor(p_col)
        split = np.flatnonzero((printed >= 0.0) != (derived >= 0.0))
        examples = []
        for i in split[:AUDIT_MAX_EXAMPLES].tolist():
            cls = classes[i % len(classes)]
            examples.append({
                "p": AUDIT_P_VALUES[i // len(classes)], "alpha": cls.alpha, "beta": cls.beta,
                "printed": float(printed.flat[i]), "derived": float(derived.flat[i]),
            })
        points = len(AUDIT_P_VALUES) * len(classes)
        criteria_report[cid.name] = {
            "points": points,
            "agreements": points - split.size,
            "disagreements": split.size,
            "disagreement_examples": examples,
            "min_abs_printed": float(np.abs(printed).min()),
        }

    pin = PINNED_DISAGREEMENT
    cls = ClassSpec(pin["alpha"], pin["beta"])
    printed = special_case_condition(pin["criterion"], pin["p"], cls, Variant.PRINTED)
    derived = special_case_condition(pin["criterion"], pin["p"], cls, Variant.DERIVED)
    return {
        "grid": {
            "p_values": list(AUDIT_P_VALUES),
            "alphas": list(AUDIT_ALPHAS),
            "betas": list(AUDIT_BETAS),
        },
        "criteria": criteria_report,
        "pinned_case": {
            "criterion": pin["criterion"].name,
            "p": pin["p"],
            "alpha": pin["alpha"],
            "beta": pin["beta"],
            "printed": printed.value,
            "printed_holds": printed.holds,
            "derived": derived.value,
            "derived_holds": derived.holds,
        },
    }
