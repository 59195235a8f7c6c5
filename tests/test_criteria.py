"""Coefficient criteria: weighted sums, tri-state reports, closed form."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselgeom import (
    BesselParams,
    ClassSpec,
    DomainError,
    NoConvergenceError,
    SumStatus,
    convex_sum,
    starlike_sum,
    starlike_sum_closed_form,
    sum_reports,
)
from besselgeom import bessel, criteria
from besselgeom.criteria import DEFAULT_EPS
from conftest import ref_coeff, ref_weighted_sum

# 2 (I0(2) - 1): the starlike sum of the modified kind at p = 1, alpha = 0,
# beta = 1, where the weight 2k telescopes against a_k = 1/(k! (k-1)!).
MODIFIED_P1_SUM = 2.5591706046721345


def test_classspec_threshold():
    assert ClassSpec(0.3, 0.5).threshold == pytest.approx(2 * 0.5 * 0.7, rel=1e-15)
    assert ClassSpec(0.0, 1.0).threshold == 2.0


def test_classspec_domain():
    for alpha, beta in ((-0.1, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, 1.2), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            ClassSpec(alpha, beta)


def test_q_requirement():
    cls = ClassSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        starlike_sum(BesselParams(-1.7, 1.0, -1.0), cls)  # q = -0.7
    with pytest.raises(DomainError):
        convex_sum(BesselParams(-1.7, 1.0, -1.0), cls)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
def test_eps_must_be_positive(eps):
    for crit in (starlike_sum, convex_sum):
        with pytest.raises(DomainError):
            crit(BesselParams(0.0, 1.0, -1.0), ClassSpec(0.0, 1.0), eps=eps)


def test_starlike_example_holds():
    rep = starlike_sum(BesselParams(10.0, 1.0, -0.1), ClassSpec(0.0, 1.0))
    assert rep.status is SumStatus.HOLDS
    assert rep.holds
    assert rep.margin > 0.0
    assert rep.sum == pytest.approx(
        ref_weighted_sum(10.0, 1.0, -0.1, 0.0, 1.0, convex=False), abs=1e-14)


def test_starlike_example_fails_closed_value():
    rep = starlike_sum(BesselParams(1.0, 1.0, -1.0), ClassSpec(0.0, 1.0))
    assert rep.status is SumStatus.FAILS
    assert not rep.holds
    assert rep.sum == pytest.approx(MODIFIED_P1_SUM, rel=1e-12)
    assert rep.margin == pytest.approx(2.0 - MODIFIED_P1_SUM, rel=1e-12)


def test_sums_match_reference(rng):
    for _ in range(100):
        q = rng.uniform(0.05, 15.0)
        c = rng.uniform(-5.0, 5.0)
        cls = ClassSpec(rng.uniform(0.0, 0.99), rng.uniform(0.01, 1.0))
        params = BesselParams(q - 1.0, 1.0, c)
        for fn, convex in ((starlike_sum, False), (convex_sum, True)):
            rep = fn(params, cls)
            want = ref_weighted_sum(params.p, 1.0, c, cls.alpha, cls.beta, convex)
            assert abs(rep.sum - want) <= rep.tail_bound + 1e-12 * max(1.0, abs(want))


def test_report_fields_consistent(rng):
    cls = ClassSpec(0.2, 0.8)
    rep = starlike_sum(BesselParams(3.0, 1.0, -2.0), cls)
    assert rep.threshold == cls.threshold
    assert rep.margin == rep.threshold - rep.sum
    assert rep.tail_bound >= 0.0


def test_no_convergence_cap():
    # |c| = 1e9 would need about 4.5e4 terms before the majorant ratio drops
    # to 1/2, far past the 10,000-term cap, but m_k overflows long before:
    # every term is nonnegative, so the sum certainly fails
    params = BesselParams(0.0, 1.0, -1e9)
    for crit in (starlike_sum, convex_sum):
        rep = crit(params, ClassSpec(0.0, 1.0))
        assert rep.status is SumStatus.FAILS
        assert (rep.sum, rep.tail_bound, rep.margin) == (math.inf, 0.0, -math.inf)


@pytest.mark.parametrize("c", [-1.3e5, 2e5])
def test_overflowing_sum_fails_at_once(monkeypatch, c):
    # m_k is inf from k = 298 at |c| = 1.3e5: the kernel stops there instead
    # of running to its 10,000-term cap
    calls = []

    def counting(k):
        calls.append(k)
        return k - 1.0

    monkeypatch.setattr(criteria, "_star_weight", counting)
    reps = sum_reports(BesselParams(0.5, 1.0, c), [ClassSpec(0.0, 1.0), ClassSpec(0.9, 0.05)],
                       False)
    assert max(calls) < 1000
    for rep in reps:
        assert rep.status is SumStatus.FAILS and not rep.holds
        assert (rep.sum, rep.tail_bound, rep.margin) == (math.inf, 0.0, -math.inf)


def test_overflowing_weighted_sum_fails():
    # at |c| = 1.25e5 every m_k is finite but the convex terms k (k-1) m_k
    # overflow: the kernel's tail bound stands, and the sum is inf
    params = BesselParams(0.5, 1.0, -1.25e5)
    assert starlike_sum(params, ClassSpec(0.0, 1.0)).sum < math.inf
    rep = convex_sum(params, ClassSpec(0.0, 1.0))
    assert rep.status is SumStatus.FAILS
    assert rep.sum == math.inf and rep.margin == -math.inf
    assert 0.0 < rep.tail_bound < DEFAULT_EPS


def test_cap_message_quotes_callers_eps(monkeypatch):
    # the kernel runs at eps / 4; a capped run still names the eps asked for
    monkeypatch.setattr(bessel, "MAX_TERMS", 20)
    with pytest.raises(NoConvergenceError, match=r"tail bound 0\.001 not certified"):
        starlike_sum(BesselParams(1.0, 1.0, -1000.0), ClassSpec(0.0, 1.0), eps=1e-3)


def test_smallest_eps_still_stops():
    # eps / 4 underflows to 0 for the smallest double: the kernel still stops
    # once the terms underflow to 0, and the tail bound is 0 < eps
    params, cls = BesselParams(1.0, 1.0, -1.0), ClassSpec(0.3, 0.5)
    default = starlike_sum(params, cls)
    for eps in (5e-324, 1.5e-323):
        rep = starlike_sum(params, cls, eps=eps)
        assert rep.tail_bound < eps
        assert abs(rep.sum - default.sum) <= default.tail_bound + 4 * math.ulp(default.sum)


def test_zero_c_trivial():
    rep = starlike_sum(BesselParams(2.0, 1.0, 0.0), ClassSpec(0.0, 1.0))
    assert rep.sum == 0.0
    assert rep.status is SumStatus.HOLDS


def test_indeterminate_fixture():
    # q tuned so the accumulated sum lands exactly on the threshold: the
    # certified tail bound then straddles it and no verdict is possible.
    q_star = 2.47679945642578
    rep = starlike_sum(BesselParams(q_star - 1.0, 1.0, -1.0), ClassSpec(0.0, 1.0))
    assert rep.status is SumStatus.INDETERMINATE
    assert not rep.holds  # indeterminate never claims membership
    assert abs(rep.margin) <= rep.tail_bound


def test_small_q_sum_against_mpmath():
    # q = 0.028: forming q + k - 1 as (q + k) - 1 put this sum 23 ulp off
    mpmath = pytest.importorskip("mpmath")
    p, c = -0.9718996164495369, -0.08787975874807982
    alpha, beta = 0.3760615558945569, 0.8729627707700609
    got = convex_sum(BesselParams(p, 1.0, c), ClassSpec(alpha, beta)).sum
    with mpmath.workdps(50):
        q, cc, a, b = (mpmath.mpf(x) for x in (p + 1.0, c, alpha, beta))
        m, want = mpmath.mpf(1), mpmath.mpf(0)
        for k in range(2, 60):
            m *= abs(cc) / ((q + k - 2) * (k - 1))  # m_k from m_(k-1)
            want += ((k - 1) + b * (k + 1 - 2 * a)) * k * m
        err = abs(mpmath.mpf(got) - want) / math.ulp(got)
    assert err <= 2.0


def test_convex_duality_spot(rng):
    # convex weight on a_k == starlike weight on the coefficients k a_k
    for _ in range(50):
        q = rng.uniform(0.3, 12.0)
        c = -rng.uniform(0.01, 4.0)
        cls = ClassSpec(rng.uniform(0.0, 0.9), rng.uniform(0.1, 1.0))
        params = BesselParams(q - 1.0, 1.0, c)
        rep = convex_sum(params, cls)
        want = math.fsum(
            ((k - 1.0) + cls.beta * (k + 1.0 - 2.0 * cls.alpha))
            * k * abs(ref_coeff(params.p, 1.0, c, k))
            for k in range(2, 80)
        )
        assert abs(rep.sum - want) < 1e-12 * max(1.0, abs(want))


def test_monotone_decreasing_in_q():
    cls = ClassSpec(0.0, 1.0)
    sums = [
        starlike_sum(BesselParams(q - 1.0, 1.0, -1.0), cls).sum
        for q in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_closed_form_matches_sum_grid():
    for p in (-0.5, 1.0, 5.0):
        for alpha in (0.0, 0.4, 0.8):
            for beta in (0.2, 0.6, 1.0):
                params = BesselParams(p, 1.0, -1.0)
                cls = ClassSpec(alpha, beta)
                closed = starlike_sum_closed_form(params, cls)
                rep = starlike_sum(params, cls)
                assert abs(closed - rep.sum) < 1e-10


def test_closed_form_domain():
    cls = ClassSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        starlike_sum_closed_form(BesselParams(1.0, 1.0, 1.0), cls)
    with pytest.raises(DomainError):
        starlike_sum_closed_form(BesselParams(1.0, 1.0, 0.0), cls)
    with pytest.raises(DomainError):
        starlike_sum_closed_form(BesselParams(-1.7, 1.0, -1.0), cls)


@settings(max_examples=80, deadline=None)
@given(
    q=st.floats(0.05, 20.0),
    c=st.floats(-5.0, 5.0),
    alpha=st.floats(0.0, 0.99),
    beta=st.floats(0.01, 1.0),
)
def test_trichotomy_property(q, c, alpha, beta):
    cls = ClassSpec(alpha, beta)
    rep = starlike_sum(BesselParams(q - 1.0, 1.0, c), cls)
    if rep.status is SumStatus.HOLDS:
        assert rep.sum + rep.tail_bound <= cls.threshold
        assert rep.holds
    elif rep.status is SumStatus.FAILS:
        assert rep.sum - rep.tail_bound > cls.threshold
        assert not rep.holds
    else:
        assert not rep.holds
    assert rep.margin == cls.threshold - rep.sum


CLASSES = st.builds(ClassSpec, st.floats(0.0, 0.99), st.floats(0.01, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(0.01, 20.0),
    b=st.floats(0.0, 3.0),
    c=st.floats(-30.0, 30.0),
    classes=st.lists(CLASSES, min_size=1, max_size=6),
    convex=st.booleans(),
)
def test_sum_reports_share_one_pass(q, b, c, classes, convex):
    # one coefficient pass for all classes gives each class exactly its
    # one-class report, with a tail bound below eps and the reference sum
    # within tail bound plus the rounding of n terms
    params = BesselParams(q - (b + 1.0) / 2.0, b, c)
    reps = sum_reports(params, classes, convex)
    assert len(reps) == len(classes)
    one = convex_sum if convex else starlike_sum
    for cls, rep in zip(classes, reps):
        assert rep == sum_reports(params, [cls], convex)[0] == one(params, cls)
        assert rep.tail_bound < DEFAULT_EPS
        want = ref_weighted_sum(params.p, b, c, cls.alpha, cls.beta, convex)
        assert abs(rep.sum - want) <= rep.tail_bound + 80 * 2.0**-52 * rep.sum
