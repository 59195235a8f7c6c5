"""Series evaluator: coefficients, tail honesty, special-function identities."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from besselgeom import (
    BesselKind,
    BesselParams,
    DomainError,
    NoConvergenceError,
    PoleError,
    SeriesOverflowError,
    eval_u,
    eval_u_derivatives,
    eval_w,
    params_of_kind,
)
from besselgeom.bessel import _coefficients
from besselgeom.criteria import _star_weight
from conftest import ref_coeff, ref_u, ref_u_derivs

# Frozen reference values (compensated summation / scipy.special, 17 digits).
J0_2 = 0.22389077914123567
I0_2 = 2.2795853023360673
I1_2 = 1.5906368546373290


# ---------------------------------------------------------------------------
# parameters


def test_q_shift():
    assert BesselParams(1.0, 1.0, 1.0).q == 2.0
    assert BesselParams(0.0, 2.0, -1.0).q == 1.5
    assert BesselParams(-0.25, 0.5, 3.0).q == 0.5


def test_q_pole_rejected():
    with pytest.raises(PoleError):
        BesselParams(-1.0, 1.0, 1.0)  # q = 0
    with pytest.raises(PoleError):
        BesselParams(-4.0, 1.0, 1.0)  # q = -3
    BesselParams(-1.7, 1.0, 1.0)  # q = -0.7 is fine


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        BesselParams(math.nan, 1.0, 1.0)
    with pytest.raises(DomainError):
        BesselParams(1.0, math.inf, 1.0)


def test_kind_domains():
    assert params_of_kind(BesselKind.FIRST_KIND, 0.5) == BesselParams(0.5, 1.0, 1.0)
    assert params_of_kind(BesselKind.MODIFIED, 0.5) == BesselParams(0.5, 1.0, -1.0)
    assert params_of_kind(BesselKind.SPHERICAL, -1.2) == BesselParams(-1.2, 2.0, 1.0)
    with pytest.raises(DomainError):
        params_of_kind(BesselKind.FIRST_KIND, -1.0)
    with pytest.raises(DomainError):
        params_of_kind(BesselKind.MODIFIED, -1.0)
    with pytest.raises(DomainError):
        params_of_kind(BesselKind.SPHERICAL, -1.5)
    with pytest.raises(DomainError, match="unknown kind"):
        params_of_kind("first-kind", 0.5)


# ---------------------------------------------------------------------------
# pochhammer and coefficients


def pochhammer(lam: float, mu: int) -> float:
    """Rising factorial (lam)_mu = lam (lam+1) ... (lam+mu-1), with ()_0 = 1.

    Computed as the running product, never as a Gamma ratio, so zero factors
    are legal outputs.  Overflow of the product saturates to +/-inf rather
    than raising.
    """
    if not isinstance(mu, int) or isinstance(mu, bool):
        raise DomainError(f"mu must be an int, got {mu!r}")
    if mu < 0:
        raise DomainError(f"mu must be nonnegative, got {mu!r}")
    out = 1.0
    for j in range(mu):
        out *= lam + j
    return out


def test_pochhammer_values():
    assert pochhammer(math.pi, 0) == 1.0
    assert pochhammer(3.0, 2) == 12.0
    assert pochhammer(1.5, 3) == 13.125
    assert pochhammer(1.0, 10) == math.factorial(10)
    # zeros in the chain are legal outputs of the pure product
    assert pochhammer(0.0, 3) == 0.0
    assert pochhammer(-2.0, 4) == 0.0


def test_pochhammer_overflow_saturates():
    assert pochhammer(300.0, 400) == math.inf


def test_pochhammer_bad_mu():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)
    with pytest.raises(DomainError):
        pochhammer(1.0, 1.5)


def kernel_coefficient(params: BesselParams, k: int) -> float:
    """a_k as the kernel's entry k, the coefficient every layer uses.

    The tail bound must fall below the smallest double before the kernel
    stops, so its list runs on until the coefficients underflow.
    """
    a, _ = _coefficients(params.q, -params.c, math.ulp(0.0), _star_weight)
    return a[k - 1]


def test_coefficient_small_q_exact():
    # q = 0.0281: forming (q + 1) - 1 instead of q + 0 put a_2 about 18 ulp off
    params = BesselParams(-0.9718996164495369, 1, -0.08787975874807982)
    assert kernel_coefficient(params, 2) == -params.c / params.q


def test_coefficient_examples():
    assert kernel_coefficient(BesselParams(1.0, 1.0, -1.0), 1) == 1.0
    assert kernel_coefficient(BesselParams(1.0, 1.0, -1.0), 2) == 0.5
    assert kernel_coefficient(BesselParams(0.0, 1.0, 1.0), 3) == 0.25


def test_coefficient_vs_reference(rng):
    for _ in range(100):
        p = rng.uniform(-0.9, 8.0)
        b = rng.choice([1.0, 2.0, 0.5])
        c = rng.uniform(-5.0, 5.0)
        k = rng.randint(1, 30)
        got = kernel_coefficient(BesselParams(p, b, c), k)
        want = ref_coeff(p, b, c, k)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_coefficient_pole_in_chain():
    # q = -0.7 passes construction but (q)_2 spans q+1 ... fine; a pole needs
    # q + j = 0 exactly, e.g. q = -3.5 never hits zero, q = -0.5 + j neither.
    params = BesselParams(-1.7, 1.0, 1.0)  # q = -0.7: chain never vanishes
    assert math.isfinite(kernel_coefficient(params, 5))


def test_specialization_coefficients():
    # first kind: (-1)^(k-1)/((p+1)_(k-1) (k-1)!); modified: +1 numerator;
    # spherical: (p+3/2)_(k-1) in the denominator.
    for p in (0.0, 0.5, 1.7):
        k1 = params_of_kind(BesselKind.FIRST_KIND, p)
        k2 = params_of_kind(BesselKind.MODIFIED, p)
        k3 = params_of_kind(BesselKind.SPHERICAL, p)
        for k in range(1, 21):
            poch1 = 1.0
            poch3 = 1.0
            for j in range(k - 1):
                poch1 *= p + 1.0 + j
                poch3 *= p + 1.5 + j
            fact = math.factorial(k - 1)
            assert kernel_coefficient(k1, k) == pytest.approx(
                (-1.0) ** (k - 1) / (poch1 * fact), rel=1e-15)
            assert kernel_coefficient(k2, k) == pytest.approx(
                1.0 / (poch1 * fact), rel=1e-15)
            assert kernel_coefficient(k3, k) == pytest.approx(
                (-1.0) ** (k - 1) / (poch3 * fact), rel=1e-15)


def test_term_ratio_decay():
    params = BesselParams(0.3, 1.0, -2.5)
    q = params.q
    for k in range(2, 12):
        ratio = abs(kernel_coefficient(params, k + 1) / kernel_coefficient(params, k))
        assert ratio == pytest.approx(abs(params.c) / ((q + k - 1.0) * k), rel=1e-12)


# ---------------------------------------------------------------------------
# eval_u / eval_u_derivatives


def test_u_at_zero_exact():
    for params in (BesselParams(1.0, 1.0, -1.0), BesselParams(0.3, 2.0, 4.0)):
        sv = eval_u(params, 0.0)
        assert sv.value == 0.0
        assert sv.tail_bound == 0.0
        assert sv.terms_used >= 2
        u, up, upp = eval_u_derivatives(params, 0.0)
        assert up.value == 1.0
        assert upp.value == pytest.approx(2.0 * (-params.c) / params.q, rel=1e-15)


def test_subnormal_z():
    # eps |z| underflows to 0 here; every discarded term is 0 and the sum stops
    u, up, upp = eval_u_derivatives(BesselParams(1.0, 1.0, -1.0), 1e-320)
    assert (u.value, up.value, upp.value) == (1e-320, 1.0, 1.0)
    assert u.tail_bound == up.tail_bound == upp.tail_bound == 0.0


@pytest.mark.parametrize("z", [5e-324j, 1e-310j, 1e-310])
def test_u_second_where_c_z_is_subnormal(z):
    # t_2 = -c z / q loses bits to underflow (to 0 at 5e-324j) before the
    # u'' lane divides it by z; u''(z) = 1 + z / 2 + ... rounds to 1 here
    upp = eval_u_derivatives(BesselParams(1.0, 1.0, -1.0), z)[2]
    assert type(upp.value) is type(z)
    assert abs(upp.value - 1.0) <= upp.tail_bound + 2.0 * sys.float_info.epsilon


def test_u_oracle_first_kind():
    sv = eval_u(params_of_kind(BesselKind.FIRST_KIND, 0.0), 1.0, eps=1e-15)
    assert sv.value == pytest.approx(J0_2, rel=1e-12)
    assert abs(sv.value - J0_2) <= sv.tail_bound + 1e-15


def test_u_oracle_modified():
    sv = eval_u(params_of_kind(BesselKind.MODIFIED, 1.0), 1.0, eps=1e-15)
    assert sv.value == pytest.approx(I1_2, rel=1e-12)


def test_u_matches_reference_complex():
    params = BesselParams(0.4, 1.0, 2.0)
    z = complex(0.3, 0.2)
    sv = eval_u(params, z, eps=1e-14)
    assert abs(sv.value - ref_u(0.4, 1.0, 2.0, z)) <= sv.tail_bound + 1e-15


def test_derivatives_match_reference(rng):
    for _ in range(60):
        p = rng.uniform(-0.9, 6.0)
        c = rng.uniform(-4.0, 4.0)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(z) > 2.0:
            continue
        params = BesselParams(p, 1.0, c)
        u, up, upp = eval_u_derivatives(params, z, eps=1e-13)
        ru, rup, rupp = ref_u_derivs(p, 1.0, c, z)
        assert abs(u.value - ru) <= u.tail_bound + 1e-14 * max(1.0, abs(ru))
        assert abs(up.value - rup) <= up.tail_bound + 1e-14 * max(1.0, abs(rup))
        assert abs(upp.value - rupp) <= upp.tail_bound + 1e-13 * max(1.0, abs(rupp))


def test_first_component_consistent_with_eval_u(rng):
    params = BesselParams(0.7, 2.0, -3.0)
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        a = eval_u(params, z)
        b = eval_u_derivatives(params, z)[0]
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-16


def test_min_terms_and_tail_below_eps():
    params = BesselParams(2.0, 1.0, 0.5)
    for eps in (1e-6, 1e-10, 1e-13):
        sv = eval_u(params, 0.9, eps=eps)
        assert sv.terms_used >= 10
        assert 0.0 <= sv.tail_bound < eps


def test_eval_domain_errors():
    params = BesselParams(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        eval_u(params, 4.5)  # outside the working region |z| <= 4
    with pytest.raises(DomainError):
        eval_u(params, 1.0, eps=0.0)
    with pytest.raises(DomainError):
        eval_u(params, 1.0, eps=-1e-3)
    for z, eps in ((math.nan, 1e-15), (complex(0.5, math.nan), 1e-15), (0.5, math.nan)):
        with pytest.raises(DomainError):
            eval_u(params, z, eps=eps)


def test_no_convergence_cap():
    # |c| = 1e9 at |z| = 4 needs about 9e4 terms, far past the 10,000-term cap
    params = BesselParams(0.0, 1.0, -1e9)
    with pytest.raises(NoConvergenceError, match="1e-13"):
        eval_u(params, 4.0, eps=1e-13)
    # q = -20000: the stop rule waits for q + k > 0, past the cap, with no
    # term overflowing; the message quotes eps, not the kernel's eps |z|
    with pytest.raises(NoConvergenceError, match="tail bound 1e-13 not certified"):
        eval_u(BesselParams(-20000.25, 1.0, 1e-6), 0.5, eps=1e-13)



def test_overflowing_terms_stop_at_once():
    # the terms at |c z| = 4e9 overflow long before the cap: the kernel stops
    # at the first tested inf (a NoConvergenceError) instead of running on
    steps = []

    def weight(k):
        steps.append(k)
        return k * (k - 1.0)

    with pytest.raises(SeriesOverflowError, match="overflows"):
        _coefficients(1.0, 4e9, 1e-13, weight)
    assert max(steps) < 100  # a_k is inf from k = 44 on
    assert issubclass(SeriesOverflowError, NoConvergenceError)
    # the message quotes the caller's eps, not the kernel's eps |z| = 4e-13
    with pytest.raises(SeriesOverflowError, match="overflow.*tail bound 1e-13 "):
        eval_u(BesselParams(0.0, 1.0, -1e9), 4.0, eps=1e-13)


@pytest.mark.parametrize("c, z", [(-1e4, 4.0), (-1e7, 1e-4)])
def test_large_c_terms_stay_finite(c, z):
    # a_k alone overflows (|c| = 1e7) or |z|^k does (4^512 = inf) before the
    # stop, while every term a_k z^(k-1) is finite; against a 50-digit 0F1
    import mpmath

    with mpmath.workdps(50):
        q, x = 1.0, -c * z
        f0, f1, f2 = (mpmath.hyp0f1(q + j, x) for j in range(3))
        want = (
            z * f0,
            f0 + z * (-c) / q * f1,
            2 * (-c) / q * f1 + z * mpmath.mpf(c) ** 2 / (q * (q + 1)) * f2,
        )
        for sv, ref in zip(eval_u_derivatives(BesselParams(0.0, 1.0, c), z), want):
            assert math.isfinite(sv.value)
            assert sv.tail_bound < 1e-13
            assert abs(sv.value - ref) <= 1e-13 * abs(ref)

@settings(max_examples=80, deadline=None)
@given(
    q=st.floats(0.05, 20.0),
    c=st.floats(-5.0, 5.0),
    x=st.floats(-2.0, 2.0),
)
def test_tail_honesty_property(q, c, x):
    params = BesselParams(q - 1.0, 1.0, c)
    sv = eval_u(params, x, eps=1e-12)
    want = ref_u(q - 1.0, 1.0, c, complex(x, 0.0)).real
    assert abs(sv.value - want) <= sv.tail_bound + 1e-13 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# eval_w and special-function identities


def test_w_domain():
    params = BesselParams(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        eval_w(params, 0.0)
    with pytest.raises(DomainError):
        eval_w(params, -1.0)
    with pytest.raises(DomainError):
        eval_w(params, complex(1.0, 0.5))


def test_w_examples():
    assert eval_w(params_of_kind(BesselKind.FIRST_KIND, 0.0), 2.0).value == pytest.approx(
        J0_2, rel=1e-12)
    assert eval_w(params_of_kind(BesselKind.MODIFIED, 0.0), 2.0).value == pytest.approx(
        I0_2, rel=1e-12)


def test_w_bridge_identity():
    # w(x) = u(x^2/4) (x/2)^(p-2) / Gamma(q), checked against math.gamma.
    for p, b, c in ((0.7, 1.0, 1.0), (2.5, 2.0, -1.0), (-0.4, 1.0, 3.0)):
        params = BesselParams(p, b, c)
        for x in (0.4, 1.3, 2.7):
            w = eval_w(params, x, eps=1e-14)
            u = eval_u(params, x * x / 4.0, eps=1e-14)
            want = u.value * (x / 2.0) ** (p - 2.0) / math.gamma(params.q)
            assert w.value == pytest.approx(want, rel=1e-13)


def test_w_against_scipy_jv_iv():
    for p in (0.0, 0.5, 1.7):
        for x in (0.5, 2.0, 3.0):
            wj = eval_w(params_of_kind(BesselKind.FIRST_KIND, p), x, eps=1e-15)
            assert wj.value == pytest.approx(float(special.jv(p, x)), rel=1e-11)
            wi = eval_w(params_of_kind(BesselKind.MODIFIED, p), x, eps=1e-15)
            assert wi.value == pytest.approx(float(special.iv(p, x)), rel=1e-11)


def test_spherical_series_relation():
    # sqrt(pi/2) w_(p,2,1)(x) must reproduce the spherical series
    # sqrt(pi/2) sum_k (-1)^k / (k! Gamma(p+k+3/2)) (x/2)^(2k+p).
    for p in (0.0, 1.0, 2.0, 0.3):
        for x in (0.5, 1.5, 3.0):
            w = eval_w(params_of_kind(BesselKind.SPHERICAL, p), x, eps=1e-15)
            pref = math.sqrt(math.pi / 2.0)
            series = pref * math.fsum(
                (-1.0) ** k / (math.factorial(k) * math.gamma(p + k + 1.5))
                * (x / 2.0) ** (2 * k + p)
                for k in range(40)
            )
            assert w.value * pref == pytest.approx(series, rel=1e-12)


def test_spherical_against_scipy():
    for n in (0, 1, 2):
        for x in (0.7, 2.0):
            w = eval_w(params_of_kind(BesselKind.SPHERICAL, float(n)), x, eps=1e-15)
            assert w.value * math.sqrt(math.pi) / 2.0 == pytest.approx(
                float(special.spherical_jn(n, x)), rel=1e-11)


def _w_on_stencil(params, x, h):
    return [eval_w(params, x + i * h, eps=1e-15).value for i in (-2, -1, 0, 1, 2)]


def ode_residual(params: BesselParams, x: float, h: float = 0.005) -> float:
    """x^2 w'' + b x w' + (c x^2 - p^2 + (1-b) p) w via 4th-order stencils."""
    wm2, wm1, w0, wp1, wp2 = _w_on_stencil(params, x, h)
    d1 = (-wp2 + 8.0 * wp1 - 8.0 * wm1 + wm2) / (12.0 * h)
    d2 = (-wp2 + 16.0 * wp1 - 30.0 * w0 + 16.0 * wm1 - wm2) / (12.0 * h * h)
    p, b, c = params.p, params.b, params.c
    return abs(x * x * d2 + b * x * d1 + (c * x * x - p * p + (1.0 - b) * p) * w0)


def test_ode_residual_point():
    assert ode_residual(BesselParams(1.0, 1.0, 1.0), 0.7) < 1e-10


def test_ode_residual_grid():
    for p in (0.0, 1.0, 2.5):
        for b in (1.0, 2.0):
            for c in (1.0, -1.0):
                params = BesselParams(p, b, c)
                for x in (0.3, 0.7, 1.5):
                    assert ode_residual(params, x) < 1e-8
