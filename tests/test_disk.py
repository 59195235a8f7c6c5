"""Unit-disk layer: the exact sup from one real point, for every class."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from besselgeom import (
    BesselParams,
    ClassSpec,
    DomainError,
    NoConvergenceError,
    QuotientKind,
    SupEstimate,
    disk,
    starlike_sum,
    sup_estimate,
    sup_estimates,
)
from conftest import draw_chain_inputs, ref_u_derivs, ring_max

CLS01 = ClassSpec(0.0, 1.0)
CLS05 = ClassSpec(0.0, 0.5)

# Deliberately extreme regression fixture: q = 0.05, c = -5 has a zero of u
# inside the disk, at |z| = 0.0102, and the starlike quotient exceeds 1 on
# the rings of the sampler.
BAD = BesselParams(-0.95, 1.0, -5.0)


def test_violation_fixture_frozen():
    assert ring_max(BAD.p, BAD.b, BAD.c, 0.0, False) > 1.0
    # the zero of u inside the disk is a pole of the quotient, for every beta
    for cls in (CLS01, CLS05):
        assert sup_estimate(BAD, cls, QuotientKind.STARLIKE) == SupEstimate(math.inf, -1 + 0j, 1, 0)


def ref_quotient(params, z, alpha, kind):
    """The quotient of kind at z from the independent series; None where it has a pole."""
    u, up, upp = ref_u_derivs(params.p, params.b, params.c, z)
    first, second = (u, up) if kind is QuotientKind.STARLIKE else (up, upp)
    if first == 0.0:
        return None
    w = z * second / first  # z u'/u or z u''/u'
    if kind is QuotientKind.STARLIKE:
        num, den = w - 1.0, w + 1.0 - 2.0 * alpha
    else:
        num, den = w, w + 2.0 * (1.0 - alpha)
    return abs(num / den) if den != 0.0 else None


def mp_quotient(params, z, alpha, kind):
    """The quotient of kind at z from 40-digit 0F1 values: w - 1 or v, over its denominator."""
    with mpmath.workdps(40):
        q, c, z = mpmath.mpf(params.q), mpmath.mpf(params.c), mpmath.mpc(z)
        f0, f1, f2 = (mpmath.hyp0f1(q + j, -c * z) for j in range(3))
        u = z * f0
        up = f0 + z * (-c) / q * f1
        upp = 2 * (-c) / q * f1 + z * c**2 / (q * (q + 1)) * f2
        if kind is QuotientKind.STARLIKE:
            w = z * up / u
            num, den = w - 1, w + 1 - 2 * alpha
        else:
            num = z * upp / up
            den = num + 2 * (1 - alpha)
        return float(abs(num / den))


@pytest.mark.parametrize("r", [1e-8, 1e-12])
def test_max_quotient_near_origin(r):
    # u depends on c z alone, so the sup at |c| = 0.7 r is the quotient of
    # (1.3, 1, -0.7) at z = -r, where both quotients tend to 0: forming
    # n = x r_0 / q from the continued fraction keeps them to the last bits
    # where z u'/u - 1 would cancel
    params = BesselParams(1.3, 1.0, -0.7 * r)
    for kind in QuotientKind:
        est = sup_estimate(params, CLS05, kind)
        want = mp_quotient(BesselParams(1.3, 1.0, -0.7), -r, 0.0, kind)
        assert 0.0 < want < 1e-7
        assert abs(est.max_quotient - want) <= 1e-14 * want, kind


def test_vectorized_matches_scalar(rng):
    # every class of a batch against the reference series at z = sign(c)
    checked = 0
    for _ in range(10):
        params, alpha, beta = draw_chain_inputs(rng)
        classes = [ClassSpec(alpha, beta), ClassSpec(alpha, 1.0)]
        for kind in QuotientKind:
            ests = sup_estimates(params, classes, kind)
            assert ests[0].max_quotient == ests[1].max_quotient
            if ests[0].max_quotient < math.inf:
                want = ref_quotient(params, -1.0 + 0j, alpha, kind)
                assert ests[0].max_quotient == pytest.approx(want, rel=1e-10)
                checked += 1
    assert checked >= 10


def test_certified_draws_have_no_violations(rng):
    # lemma HOLDS must imply no violation (soundness, spot scale)
    checked = 0
    while checked < 30:
        params, alpha, beta = draw_chain_inputs(rng)
        cls = ClassSpec(alpha, beta)
        if not starlike_sum(params, cls).holds:
            continue
        est = sup_estimate(params, cls, QuotientKind.STARLIKE)
        assert est.violations == 0
        assert est.max_quotient < cls.beta
        checked += 1


def test_sup_argmax_on_outer_ring():
    # a beta < 1 class takes the exact sup at z = sign(c) on the unit circle,
    # as beta = 1 does; the 0.999 ring of the sampler read 0.004565095939299634
    params = BesselParams(10.0, 1.0, -0.1)
    est = sup_estimate(params, CLS05, QuotientKind.STARLIKE)
    exact = sup_estimate(params, CLS01, QuotientKind.STARLIKE)
    assert est.argmax_z == exact.argmax_z == -1 + 0j
    assert est.max_quotient == exact.max_quotient == 0.004569689971653173
    assert est.violations == exact.violations == 0
    assert ring_max(params.p, params.b, params.c, 0.0, False) < est.max_quotient


def test_false_membership_regression():
    # the 12-ring grid read 0.9056390717340785 at z = 0.999, below beta,
    # and certified this non-member; the exact sup at z = 1 is at least beta
    params = BesselParams(-0.7760812953581148, 1.0, 0.1036127991657812)
    cls = ClassSpec(0.19897086576962877, 0.9078856454907038)
    est = sup_estimate(params, cls, QuotientKind.STARLIKE)
    assert est == SupEstimate(0.908536345275895, 1 + 0j, 1, 0)
    assert ring_max(params.p, params.b, params.c, cls.alpha, False) < cls.beta


def test_sup_estimates_equals_per_class_calls():
    # the shared alpha-independent stage must not change a single bit
    classes = [ClassSpec(a, b) for a in (0.0, 0.3, 0.75, 0.95) for b in (0.2, 0.6, 1.0)]
    cases = [
        BAD,
        BesselParams(10.0, 1.0, -0.1),
        BesselParams(1.3, 1.0, -0.7),
        BesselParams(0.5, 2.0, 3.0),
    ]
    for params in cases:
        for kind in QuotientKind:
            got = sup_estimates(params, classes, kind)
            assert got == [sup_estimate(params, cls, kind) for cls in classes]
    # the zero of u inside the disk decides every class
    for kind in QuotientKind:
        assert {e.max_quotient for e in sup_estimates(BAD, classes, kind)} == {math.inf}
    assert sup_estimates(BAD, [], QuotientKind.CONVEX) == []


def test_coefficient_cap_raises():
    # no silent truncation: |c| = 1e9 needs about 63,000 continued-fraction
    # levels, past the 10,000-level cap
    for kind in QuotientKind:
        with pytest.raises(NoConvergenceError):
            sup_estimate(BesselParams(1.0, 1.0, -1e9), CLS05, kind)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 40.0), st.floats(-1e3, 1e3), st.floats(0.0, 0.99),
       st.lists(st.floats(0.001, 1.0), min_size=1, max_size=5))
def test_sup_does_not_depend_on_beta(q, c, alpha, betas):
    # for fixed (params, alpha, kind) beta only moves the verdict
    params = BesselParams(q - 1.0, 1.0, c)
    for kind in QuotientKind:
        ests = sup_estimates(params, [ClassSpec(alpha, b) for b in [1.0, *betas]], kind)
        assert len({(e.max_quotient, e.argmax_z) for e in ests}) == 1
        for beta, est in zip([1.0, *betas], ests):
            assert est.violations == int(est.max_quotient >= beta)
            assert est.degenerate_points == 0


# ---------------------------------------------------------------------------
# the real-axis point and the pole check


def mp_lane(params, kind):
    """t -> f / z at z = t sign(c) from mpmath's 0F1: u / z or u'."""
    q, s = mpmath.mpf(params.q), mpmath.mpf(abs(params.c))
    if kind is QuotientKind.STARLIKE:
        return lambda t: mpmath.hyp0f1(q, -s * t)
    return lambda t: mpmath.hyp0f1(q, -s * t) - s * t / q * mpmath.hyp0f1(q + 1, -s * t)


def mp_real_axis_n(q, s, kind):
    """n = z f'/f - 1 at z = sign(c), |c| = s, from 50-digit 0F1 values."""
    with mpmath.workdps(50):
        q, x = mpmath.mpf(q), -mpmath.mpf(s)
        f0, f1, f2 = (mpmath.hyp0f1(q + j, x) for j in range(3))
        if kind is QuotientKind.STARLIKE:
            return x * f1 / (q * f0)  # z u'/u - 1
        return x * (2 * f1 / q + x * f2 / (q * (q + 1))) / (f0 + x * f1 / q)  # z u''/u'


def test_disk_refuses_nonpositive_q():
    # for q <= 0, F_q can have complex zeros and the real-axis theorem fails
    for params in (BesselParams(-1.2, 1.0, 1.0), BesselParams(-1.7, 1.0, 3.0)):
        for cls in (CLS01, CLS05):
            with pytest.raises(DomainError, match="q > 0"):
                sup_estimate(params, cls, QuotientKind.STARLIKE)


@pytest.mark.parametrize("pbc", [(-0.9, 1.0, 1.0), (-0.95, 1.0, 0.5)])
@pytest.mark.parametrize("kind", list(QuotientKind))
@pytest.mark.parametrize("beta", [1.0, 0.7])
def test_zero_inside_first_ring_is_a_violation(pbc, kind, beta):
    # q = 0.1 and 0.05: f / z vanishes near |z| = q / |c| (u / z, at 0.105
    # and 0.102) or q / (2 |c|) (u', at 0.0518 and 0.0509, inside the
    # sampler's first ring, where sampling finds no convex violation)
    params = BesselParams(*pbc)
    f = mp_lane(params, kind)
    with mpmath.workdps(30):
        assert f(0) > 0 > f(0.11)  # a real zero between 0 and 0.11 sign(c)
    est = sup_estimate(params, ClassSpec(0.0, beta), kind)
    assert est.max_quotient == math.inf
    assert est.violations >= 1


def test_exact_sup_at_large_c():
    # (0, 1, -300): u(-t) = -t J_0(2 sqrt(300 t)) for t > 0, with 11 zeros
    # on (0, 1), where a Horner sum of the series cancels (u(-0.95) reads
    # -0.001285 against -0.001557)
    q, s = 1.0, 300.0
    zeros = sum(1 for k in range(1, 40) if mpmath.besseljzero(0, k) < 2 * mpmath.sqrt(s))
    assert disk._fraction(q, s)[2] == zeros == 11
    for kind in QuotientKind:
        assert sup_estimate(BesselParams(0.0, 1.0, -s), CLS01, kind).max_quotient == math.inf
    # the continued fraction at z = -0.95, where r_0 and r_1 are ratios of
    # 0F1 values
    r, r1, _ = disk._fraction(q, 0.95 * s)
    with mpmath.workdps(50):
        f0, f1, f2 = (mpmath.hyp0f1(q + j, -0.95 * s) for j in range(3))
        assert abs(r - f1 / f0) <= 1e-13 * abs(f1 / f0)
        assert abs(r1 - f2 / f1) <= 1e-13 * abs(f2 / f1)


QS = st.floats(0.01, 40.0)
CS = st.floats(0.0, 1e3)


@settings(max_examples=200, deadline=None)
@given(QS, CS)
def test_real_axis_n_matches_mpmath(q, s):
    # n reaches an output only where f / z is zero-free and n > -2 = -2 (1 - 0):
    # below -2 every class has a pole, and near a zero n is ill-conditioned
    for kind in QuotientKind:
        n = disk._real_axis(q, s, kind)
        if n > -2.0:
            want = float(mp_real_axis_n(q, s, kind))
            assert abs(n - want) <= 1e-12 * (1.0 + abs(want)), kind


@settings(max_examples=100, deadline=None)
@given(QS, CS)
def test_fraction_counts_zeros(q, s):
    # negative denominators = zeros of F_q(-y) on 0 < y < s, by a dense sign
    # scan uniform in sqrt(y), in which the zeros are about pi / 2 apart
    t = np.linspace(0.0, math.sqrt(s), 20_001)
    signs = np.sign(sp.hyp0f1(q, -t * t))
    assert disk._fraction(q, s)[2] == int(np.count_nonzero(signs[1:] != signs[:-1]))


@settings(max_examples=100, deadline=None)
@given(QS, st.floats(0.0, 50.0), st.floats(0.0, 0.99), st.floats(0.001, 1.0))
def test_exact_sup_bounds_the_grid(q, c, alpha, beta):
    # the ring sampler is the oracle: it samples inside the disk and the
    # exact sup is the sup over it, so no sampled maximum may exceed it beyond
    # rounding, and a sampled point above beta is a violation; the sup
    # depends on |c| alone.  180 angles keep both real points of each ring
    # at a quarter of the default cost.
    cls = ClassSpec(alpha, beta)
    for kind in QuotientKind:
        ests = [sup_estimate(BesselParams(q - 1.0, 1.0, cc), cls, kind) for cc in (c, -c)]
        assert ests[0].max_quotient == ests[1].max_quotient
        sampled = ring_max(q - 1.0, 1.0, -c, alpha, kind is QuotientKind.CONVEX, angles=180)
        if ests[0].max_quotient < math.inf:
            # (the absolute floor covers subnormal sups, which carry no relative precision)
            assert sampled <= ests[0].max_quotient * (1.0 + 1e-12) + 1e-300
        if sampled > beta * (1.0 + 1e-12):
            assert ests[1].violations == 1
