"""Closed-form sufficient conditions and the printed-vs-derived audit."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselgeom import (
    AGREEING_CRITERIA,
    BETA1_PAIRS,
    DISAGREEING_CRITERIA,
    PINNED_DISAGREEMENT,
    SPECIAL_CRITERIA,
    BesselParams,
    BetaMismatchError,
    ClassSpec,
    CriterionId,
    DomainError,
    SumStatus,
    Variant,
    consistency_audit,
    convex_condition,
    convex_sum,
    params_of_kind,
    special_case_condition,
    starlike_condition,
    starlike_sum,
)
from besselgeom import conditions
from conftest import draw_chain_inputs

CLS01 = ClassSpec(0.0, 1.0)

# Frozen transcription oracles (hand evaluation of the displays).
THM_STAR_P1 = -0.5824497003443581    # 5 - 4 e^(1/3) at (1, 1, -1, 0, 1)
THM_STAR_P10 = 1.9634082469617984
THM_CONV_P10 = 1.9105993449746936
COR_FK_P0 = 7.892327624200769        # 6 sqrt(e) - 2 at p = 0
PIN_PRINTED = 4.417550299655642      # 10 - 4 e^(1/3)
PIN_DERIVED = -1.1648994006887161    # (p+1) times the substituted display: 2(5 - 4 e^(1/3))


def test_general_starlike_frozen_values():
    v1 = starlike_condition(BesselParams(1.0, 1.0, -1.0), CLS01, Variant.PRINTED)
    assert v1.value == pytest.approx(THM_STAR_P1, rel=1e-14)
    assert not v1.holds
    v10 = starlike_condition(BesselParams(10.0, 1.0, -0.1), CLS01)
    assert v10.value == pytest.approx(THM_STAR_P10, rel=1e-14)
    assert v10.holds


def test_general_convex_frozen_value():
    v = convex_condition(BesselParams(10.0, 1.0, -0.1), CLS01)
    assert v.value == pytest.approx(THM_CONV_P10, rel=1e-14)
    assert v.holds


def test_variants_coincide_for_negative_c():
    params = BesselParams(2.3, 1.0, -1.7)
    cls = ClassSpec(0.2, 0.8)
    for cond in (starlike_condition, convex_condition):
        assert cond(params, cls, Variant.PRINTED).value == cond(
            params, cls, Variant.DERIVED).value


def test_variants_differ_for_positive_c():
    params = BesselParams(2.3, 1.0, 1.7)
    printed = starlike_condition(params, CLS01, Variant.PRINTED).value
    derived = starlike_condition(params, CLS01, Variant.DERIVED).value
    assert printed != derived


def test_condition_requires_positive_q():
    with pytest.raises(DomainError):
        starlike_condition(BesselParams(-1.7, 1.0, -1.0), CLS01)
    with pytest.raises(DomainError):
        convex_condition(BesselParams(-1.7, 1.0, -1.0), CLS01)


def test_verdict_structure():
    v = starlike_condition(BesselParams(3.0, 1.0, -0.5), ClassSpec(0.1, 0.7))
    assert v.holds == (v.value >= 0.0)


def test_derived_theorem_implies_lemma(rng):
    # The headline one-way implication, both classes, negative c.
    for _ in range(300):
        params, alpha, beta = draw_chain_inputs(rng)
        cls = ClassSpec(alpha, beta)
        if starlike_condition(params, cls).holds:
            assert starlike_sum(params, cls).status is not SumStatus.FAILS
        if convex_condition(params, cls).holds:
            assert convex_sum(params, cls).status is not SumStatus.FAILS


def test_derived_theorem_implies_lemma_positive_c(rng):
    # s = |c| keeps the implication valid when c > 0.
    for _ in range(100):
        q = rng.uniform(0.05, 20.0)
        c = rng.uniform(0.01, 5.0)
        cls = ClassSpec(rng.uniform(0.0, 0.99), rng.uniform(0.001, 1.0))
        params = BesselParams(q - 1.0, 1.0, c)
        if starlike_condition(params, cls).holds:
            assert starlike_sum(params, cls).status is not SumStatus.FAILS


# ---------------------------------------------------------------------------
# specialized conditions


def test_first_kind_starlike_frozen():
    v = special_case_condition(CriterionId.STARLIKE_FIRST_KIND, 0.0, CLS01)
    assert v.value == pytest.approx(COR_FK_P0, rel=1e-14)
    assert v.value == pytest.approx(6.0 * math.exp(0.5) - 2.0, rel=1e-14)
    assert v.holds


def test_pinned_disagreement_point():
    crit = PINNED_DISAGREEMENT["criterion"]
    cls = ClassSpec(PINNED_DISAGREEMENT["alpha"], PINNED_DISAGREEMENT["beta"])
    printed = special_case_condition(crit, PINNED_DISAGREEMENT["p"], cls)
    derived = special_case_condition(crit, PINNED_DISAGREEMENT["p"], cls, Variant.DERIVED)
    assert printed.value == pytest.approx(PIN_PRINTED, rel=1e-12)
    assert derived.value == pytest.approx(PIN_DERIVED, rel=1e-12)
    assert printed.holds and not derived.holds


def test_special_case_domain():
    with pytest.raises(DomainError):
        special_case_condition(CriterionId.STARLIKE_GENERAL, 1.0, CLS01)
    with pytest.raises(DomainError):
        special_case_condition(CriterionId.STARLIKE_FIRST_KIND, -1.0, CLS01)
    with pytest.raises(DomainError):
        special_case_condition(CriterionId.STARLIKE_SPHERICAL, -1.5, CLS01)
    with pytest.raises(BetaMismatchError):
        special_case_condition(
            CriterionId.STARLIKE_FIRST_KIND_BETA1, 1.0, ClassSpec(0.0, 0.5))


def _domain_text(fn, *args):
    with pytest.raises(DomainError) as info:
        fn(*args)
    return str(info.value)


def test_order_domain_errors_are_params_of_kind():
    # an order at or below a kind's bound, or not finite, raises
    # params_of_kind's DomainError word for word; the audit raises that of
    # the first case whose kind refuses the order
    for p in (-1.0, -1.2, -1.5, -2.0, math.inf, math.nan):
        refused = []
        for cid, case in conditions._SPECIAL_CASES.items():
            try:
                params_of_kind(case.kind, p)
            except DomainError as exc:
                refused.append(str(exc))
                assert _domain_text(special_case_condition, cid, p, CLS01) == str(exc)
        assert refused, p
        assert _domain_text(consistency_audit, (p,), (0.0,), (1.0,)) == refused[0]


def test_beta1_pairs_scale():
    # Each full display at beta = 1 is a fixed positive multiple of its
    # beta = 1 specialization.
    for b1, (parent, k) in BETA1_PAIRS.items():
        for p in (0.2, 1.3, 4.0):
            vb = special_case_condition(b1, p, CLS01).value
            vp = special_case_condition(parent, p, CLS01).value
            assert vp == pytest.approx(k * vb, rel=1e-12)


def test_agreeing_criteria_on_grid():
    for cid in AGREEING_CRITERIA:
        betas = (1.0,) if cid.value.endswith("beta1") else (0.3, 1.0)
        for p in (-0.4, 0.5, 2.0, 7.0):
            for alpha in (0.0, 0.5):
                for beta in betas:
                    cls = ClassSpec(alpha, beta)
                    printed = special_case_condition(cid, p, cls)
                    derived = special_case_condition(cid, p, cls, Variant.DERIVED)
                    assert printed.holds == derived.holds, (cid, p, alpha, beta)


def test_disagreeing_criteria_exist():
    assert set(DISAGREEING_CRITERIA) == {
        CriterionId.STARLIKE_MODIFIED,
        CriterionId.STARLIKE_MODIFIED_BETA1,
    }
    assert len(SPECIAL_CRITERIA) == 12
    assert set(AGREEING_CRITERIA) | set(DISAGREEING_CRITERIA) == set(SPECIAL_CRITERIA)


def test_audit_report_shape():
    report = consistency_audit(
        p_values=(-0.5, 0.5, 2.0), alphas=(0.0, 0.5), betas=(0.5, 1.0))
    assert set(report) == {"grid", "criteria", "pinned_case"}
    assert len(report["criteria"]) == 12
    for name, entry in report["criteria"].items():
        expect = 6 if name.endswith("BETA1") else 12
        assert entry["points"] == expect
        assert entry["agreements"] + entry["disagreements"] == entry["points"]
        assert len(entry["disagreement_examples"]) <= 5
    pin = report["pinned_case"]
    assert pin["printed_holds"] and not pin["derived_holds"]


def _mp_general(q, s, alpha, beta, convex, largest=False):
    """The general display at 40 digits, from the module docstring.

    E - 1 comes from mpmath.expm1: exp cancels at any precision once
    s/(q+1) falls below its ulp of 1.  With largest, returns the value and
    the largest absolute term.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q, s, a, b = (mpmath.mpf(x) for x in (q, s, alpha, beta))
        thr = 2 * b * (1 - a)
        if not convex:
            m = mpmath.expm1(s / (q + 1))
            terms = [thr, -thr * m, -thr * m / q, -(1 + b) * s / q * (1 + m)]
        else:
            m = mpmath.expm1(-s / (q + 1))
            terms = [thr * (1 + m), thr * (q + 1) / q * m,
                     -(1 + b) * s * s / (q * (q + 1)), -2 * (1 + b * (2 - a)) * s / q]
        exact = mpmath.fsum(terms)
        return (exact, max(map(abs, terms))) if largest else exact


@pytest.mark.parametrize("q,s", [(1.1102230246251565e-16, 1e-16), (1e-320, 1e-320),
                                 (1e-300, 1e-290), (1e-300, -1e-290)])
def test_general_condition_tiny_exponent(q, s):
    # exp(s/(q+1)) rounds to 1 while s/q does not vanish: 1 - E and
    # (q+1)/q (E - 1) cancel completely unless E - 1 comes from expm1
    for alpha, beta in ((0.0, 1.0), (0.5, 0.5)):
        cls = ClassSpec(alpha, beta)
        for convex in (False, True):
            got = (conditions._convex_value if convex else conditions._starlike_value)(q, s, cls)
            want = _mp_general(q, s, alpha, beta, convex)
            assert got == pytest.approx(float(want), rel=1e-12), (convex, alpha, beta)


EXPONENT = st.floats(-323.0, 300.0)


@settings(max_examples=300, deadline=None)
@given(EXPONENT, st.one_of(st.just(None), EXPONENT), st.booleans(),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_min=True),
       st.sampled_from(list(Variant)), st.booleans())
def test_general_condition_sign_at_binary64_edges(eq, ec, negative, alpha, beta, variant, convex):
    # q and |c| from 1e-323 to 1e300: the value is never NaN, and its sign
    # is the exact display's wherever that is a normal double not lost
    # among its terms
    q = 10.0 ** eq
    c = 0.0 if ec is None else math.copysign(10.0 ** ec, -1.0 if negative else 1.0)
    params, cls = BesselParams(q, -1.0, c), ClassSpec(alpha, beta)
    cond = convex_condition if convex else starlike_condition
    try:
        value = cond(params, cls, variant).value
    except DomainError:  # exp overflows and thr = 2 beta (1 - alpha) underflowed to 0
        assert cls.threshold == 0.0
        return
    assert value == value
    s = -c if variant is Variant.PRINTED else abs(c)
    exact, largest = _mp_general(params.q, s, alpha, beta, convex, largest=True)
    if abs(exact) > max(1e-9 * largest, sys.float_info.min):
        assert (value >= 0.0) == (exact >= 0)


def test_general_condition_overflow_sign():
    # exp overflows binary64 in each case; the value saturates to the
    # infinity with the sign of the exact display instead of raising
    cases = [
        (starlike_condition, BesselParams(0.0, 1.0, -2000.0), ClassSpec(0.0, 1.0), Variant.DERIVED),
        (starlike_condition, BesselParams(0.5, 2.0, 5000.0), ClassSpec(0.3, 0.6), Variant.DERIVED),
        (starlike_condition, BesselParams(5.0, 1.0, -9000.0), ClassSpec(0.0, 1.0), Variant.DERIVED),
        (starlike_condition, BesselParams(-0.4, 0.0, 800.0), ClassSpec(0.5, 0.2), Variant.DERIVED),
        (convex_condition, BesselParams(1.0, 1.0, 5000.0), ClassSpec(0.0, 1.0), Variant.PRINTED),
        (convex_condition, BesselParams(-0.9, 1.0, 900.0), ClassSpec(0.9, 0.05), Variant.PRINTED),
        # both the exp term and the bracket overflow; the bracket is larger
        (convex_condition, BesselParams(1e-308, -1.0, 710.0), ClassSpec(0.0, 1e-306),
         Variant.PRINTED),
    ]
    for cond, params, cls, variant in cases:
        verdict = cond(params, cls, variant)
        s = -params.c if variant is Variant.PRINTED else abs(params.c)
        want = _mp_general(params.q, s, cls.alpha, cls.beta, cond is convex_condition)
        assert abs(want) > 1e300
        assert verdict.value == math.copysign(math.inf, want)
        assert verdict.holds == (want >= 0)


def test_general_condition_overflow_small_coefficient():
    # exp(750) overflows, but beta = 1e-300 scales it back into range
    params, cls = BesselParams(0.0, 1.0, 1500.0), ClassSpec(0.0, 1e-300)
    verdict = convex_condition(params, cls, Variant.PRINTED)
    want = _mp_general(params.q, -params.c, cls.alpha, cls.beta, convex=True)
    assert math.isfinite(verdict.value)
    assert verdict.value == pytest.approx(float(want), rel=1e-10)


def test_general_condition_overflow_zero_coefficient():
    # 2 beta (1 - alpha) underflows to 0, leaving 0 * inf
    cls = ClassSpec(0.9999999999999999, 5e-324)
    assert cls.threshold == 0.0
    with pytest.raises(DomainError):
        convex_condition(BesselParams(1.0, 1.0, 5000.0), cls, Variant.PRINTED)


# ---------------------------------------------------------------------------
# the array audit against a scalar loop, one call per point (the oracle)


def scalar_consistency_audit(p_values, alphas, betas, max_examples=5):
    """The per-point audit: two special_case_condition calls per grid point."""
    criteria_report = {}
    for cid, case in conditions._SPECIAL_CASES.items():
        beta_axis = (1.0,) if case.beta1 else betas
        points = agreements = 0
        examples = []
        min_abs_printed = math.inf
        for p in p_values:
            for alpha in alphas:
                for beta in beta_axis:
                    cls = ClassSpec(alpha, beta)
                    printed = special_case_condition(cid, p, cls, Variant.PRINTED)
                    derived = special_case_condition(cid, p, cls, Variant.DERIVED)
                    points += 1
                    min_abs_printed = min(min_abs_printed, abs(printed.value))
                    if printed.holds == derived.holds:
                        agreements += 1
                    elif len(examples) < max_examples:
                        examples.append({
                            "p": p, "alpha": alpha, "beta": beta,
                            "printed": printed.value, "derived": derived.value,
                        })
        criteria_report[cid.name] = {
            "points": points,
            "agreements": agreements,
            "disagreements": points - agreements,
            "disagreement_examples": examples,
            "min_abs_printed": min_abs_printed,
        }
    return criteria_report


def _audit_text(report):
    return json.dumps(report, sort_keys=True, indent=2)


def test_audit_equals_scalar_oracle_default_grid():
    report = consistency_audit()
    want = scalar_consistency_audit(
        conditions.AUDIT_P_VALUES, conditions.AUDIT_ALPHAS, conditions.AUDIT_BETAS)
    assert _audit_text(report["criteria"]) == _audit_text(want)


@settings(max_examples=40, deadline=None)
@given(
    p_values=st.lists(st.floats(-0.999, 40.0), max_size=4),
    alphas=st.lists(st.floats(0.0, 0.999), max_size=3),
    betas=st.lists(st.floats(1e-3, 1.0), max_size=3),
    max_examples=st.integers(0, 6),
)
def test_audit_equals_scalar_oracle_drawn(p_values, alphas, betas, max_examples):
    p_values, alphas, betas = tuple(p_values), tuple(alphas), tuple(betas)
    report = consistency_audit(p_values, alphas, betas, max_examples)
    want = scalar_consistency_audit(p_values, alphas, betas, max_examples)
    assert _audit_text(report["criteria"]) == _audit_text(want)


def test_audit_domain_errors_match_scalar_oracle():
    for args in [((-1.2,), (0.0,), (1.0,)), ((1.0,), (1.0,), (1.0,)), ((1.0,), (0.5,), (0.0,))]:
        with pytest.raises(DomainError) as want:
            scalar_consistency_audit(*args)
        with pytest.raises(DomainError) as got:
            consistency_audit(*args)
        assert str(got.value) == str(want.value)


def test_audit_calls_special_case_condition_only_for_the_pin(monkeypatch):
    calls = []
    real = conditions.special_case_condition

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(conditions, "special_case_condition", counting)
    consistency_audit()
    assert calls == [PINNED_DISAGREEMENT["criterion"]] * 2
