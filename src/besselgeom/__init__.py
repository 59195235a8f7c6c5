"""Geometric function theory for generalized Bessel-type power series.

The package evaluates the normalized series

    u(z) = z + sum_{k>=2} (-c)^(k-1) / ((q)_(k-1) (k-1)!) z^k,   q = p + (b+1)/2,

decides membership in the starlike and convex families S*(alpha, beta) and
K(alpha, beta) through three independent layers (closed-form sufficient
conditions, weighted coefficient sums, the exact sup over the unit disk from
one point on the real axis), locates
the positivity thresholds of the specialized condition functions, and
exposes everything through the besselgeom command-line tool.
"""

from .bessel import (
    BesselKind,
    BesselParams,
    SeriesValue,
    eval_u,
    eval_u_derivatives,
    eval_w,
    params_of_kind,
)
from .conditions import (
    AGREEING_CRITERIA,
    BETA1_PAIRS,
    DISAGREEING_CRITERIA,
    PINNED_DISAGREEMENT,
    SPECIAL_CRITERIA,
    ConditionVerdict,
    CriterionId,
    Variant,
    consistency_audit,
    convex_condition,
    special_case_condition,
    starlike_condition,
)
from .criteria import (
    ClassSpec,
    SumReport,
    SumStatus,
    convex_sum,
    starlike_sum,
    starlike_sum_closed_form,
    sum_reports,
)
from .disk import (
    QuotientKind,
    sup_estimate,
    sup_estimates,
)
from .errors import (
    BesselGeomError,
    BetaMismatchError,
    DomainError,
    NoBracketError,
    NoConvergenceError,
    PoleError,
    SeriesOverflowError,
    SingularityError,
)
from .thresholds import (
    FIGURES,
    FigureSpec,
    RootResult,
    figure_eval,
    find_all_thresholds,
    find_threshold,
    positivity_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AGREEING_CRITERIA",
    "BETA1_PAIRS",
    "BesselGeomError",
    "BesselKind",
    "BesselParams",
    "BetaMismatchError",
    "ClassSpec",
    "ConditionVerdict",
    "CriterionId",
    "DISAGREEING_CRITERIA",
    "DomainError",
    "FIGURES",
    "FigureSpec",
    "NoBracketError",
    "NoConvergenceError",
    "PINNED_DISAGREEMENT",
    "PoleError",
    "QuotientKind",
    "RootResult",
    "SPECIAL_CRITERIA",
    "SeriesOverflowError",
    "SeriesValue",
    "SingularityError",
    "SumReport",
    "SumStatus",
    "Variant",
    "consistency_audit",
    "convex_condition",
    "convex_sum",
    "eval_u",
    "eval_u_derivatives",
    "eval_w",
    "figure_eval",
    "find_all_thresholds",
    "find_threshold",
    "params_of_kind",
    "positivity_scan",
    "special_case_condition",
    "starlike_condition",
    "starlike_sum",
    "starlike_sum_closed_form",
    "sum_reports",
    "sup_estimate",
    "sup_estimates",
]
