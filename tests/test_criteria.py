"""Coefficient criteria: weighted sums, tri-state reports, closed form."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besselgeom import (
    BesselParams,
    ClassSpec,
    DomainError,
    NoConvergenceError,
    QuotientKind,
    SumStatus,
    convex_sum,
    eval_u_derivatives,
    starlike_sum,
    sum_reports,
)
from besselgeom import bessel
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
    # of running to its 10,000-term cap; with a cap of 1000 terms, running on
    # would raise the cap's NoConvergenceError instead of reporting FAILS
    monkeypatch.setattr(bessel, "MAX_TERMS", 1000)
    reps = sum_reports(BesselParams(0.5, 1.0, c), [ClassSpec(0.0, 1.0), ClassSpec(0.9, 0.05)],
                       QuotientKind.STARLIKE)
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
    # the kernel runs at DEFAULT_EPS / 4; a capped run still names DEFAULT_EPS
    monkeypatch.setattr(bessel, "MAX_TERMS", 20)
    with pytest.raises(NoConvergenceError, match=r"tail bound 1e-12 not certified"):
        starlike_sum(BesselParams(1.0, 1.0, -1000.0), ClassSpec(0.0, 1.0))


def test_smallest_eps_still_stops():
    # eps |z| underflows to 0 for the smallest double and |z| < 1: the kernel
    # still stops once the terms underflow to 0, and every tail bound is 0 < eps
    params, z = BesselParams(1.0, 1.0, -1.0), 0.5
    default = eval_u_derivatives(params, z)
    for eps in (5e-324, 1.5e-323):
        for got, want in zip(eval_u_derivatives(params, z, eps=eps), default):
            assert got.tail_bound < eps
            assert abs(got.value - want.value) <= want.tail_bound + 4 * math.ulp(want.value)


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
                # the weight split with M1 = u'(1) - u(1) and M0 = u(1) - 1
                u, up, _ = eval_u_derivatives(params, 1.0, eps=1e-14)
                closed = (1.0 + beta) * (up.value - u.value) + cls.threshold * (u.value - 1.0)
                rep = starlike_sum(params, cls)
                assert abs(closed - rep.sum) < 1e-10


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
    which=st.sampled_from(QuotientKind),
)
# a subnormal sum, one ulp (5e-324) off the reference
@example(q=3.5, b=0.0, c=2.2250738585e-313, classes=[ClassSpec(0.0, 0.5)],
         which=QuotientKind.STARLIKE)
def test_sum_reports_share_one_pass(q, b, c, classes, which):
    # one coefficient pass for all classes gives each class exactly its
    # one-class report, with a tail bound below eps and the reference sum
    # within tail bound plus the rounding of n terms: relative, n 2^-52, for
    # normal numbers, and absolute, n 2^-1074, below 2^-1022
    params = BesselParams(q - (b + 1.0) / 2.0, b, c)
    reps = sum_reports(params, classes, which)
    assert len(reps) == len(classes)
    convex = which is QuotientKind.CONVEX
    one = convex_sum if convex else starlike_sum
    for cls, rep in zip(classes, reps):
        assert rep == sum_reports(params, [cls], which)[0] == one(params, cls)
        assert rep.tail_bound < DEFAULT_EPS
        want = ref_weighted_sum(params.p, b, c, cls.alpha, cls.beta, convex)
        assert abs(rep.sum - want) <= rep.tail_bound + 80 * 2.0**-52 * rep.sum + 80 * 2.0**-1074


def mp_weighted_sum(q, s, alpha, beta, convex):
    """sum_{k>=2} w(k) m_k at 50 digits, and the number of terms it took."""
    with mpmath.workdps(50):
        q, s, alpha, beta = (mpmath.mpf(v) for v in (q, s, alpha, beta))
        thr = 2 * beta * (1 - alpha)
        m, total, k = mpmath.mpf(1), mpmath.mpf(0), 1
        while True:
            m = m * s / ((q + (k - 1)) * k)  # m_(k+1)
            k += 1
            term = ((1 + beta) * (k - 1) + thr) * (k if convex else 1) * m
            total += term
            if k * k > s and term < total * mpmath.mpf(10) ** -55:
                return total, k - 1


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(0.01, 20.0),
    log_c=st.floats(2.0, 4.0),
    negative=st.booleans(),
    which=st.sampled_from(QuotientKind),
    cls=CLASSES,
)
def test_sum_reports_large_c_against_mpmath(q, log_c, negative, which, cls):
    # point-certify's |c| from 1e2 to 1e4, past the float reference above:
    # the 50-digit sum lies within tail_bound plus the rounding allowance
    # n 2^-52 of n terms, and the status is a certificate of it
    c = -(10.0 ** log_c) if negative else 10.0 ** log_c
    params = BesselParams(q - 1.0, 1.0, c)
    rep = sum_reports(params, [cls], which)[0]
    exact, n = mp_weighted_sum(params.q, abs(c), cls.alpha, cls.beta,
                               which is QuotientKind.CONVEX)
    assert rep.tail_bound < DEFAULT_EPS
    assert abs(rep.sum - exact) <= rep.tail_bound + n * 2.0**-52 * rep.sum
    if rep.status is SumStatus.HOLDS:
        assert exact <= cls.threshold
    elif rep.status is SumStatus.FAILS:
        assert exact > cls.threshold
