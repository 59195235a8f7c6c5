"""Acceptance suite: one test per shipped claim, tolerances pinned.

Each test is the repository-level pass/fail line for one acceptance
criterion; unit-level detail lives in the per-module test files.
"""

import json
import math
import pathlib
import random
import time

import pytest

from besselgeom import (
    BesselKind,
    BesselParams,
    ClassSpec,
    NoBracketError,
    QuotientKind,
    SingularityError,
    SumStatus,
    consistency_audit,
    convex_condition,
    convex_sum,
    eval_u,
    figure_eval,
    find_threshold,
    params_of_kind,
    positivity_scan,
    starlike_condition,
    starlike_sum,
    starlike_sum_closed_form,
    sup_estimate,
)
from conftest import draw_chain_inputs, ref_coeff, ref_u_derivs
from test_bessel import ode_residual

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_01_threshold_reproduction():
    quoted = {1: -1.5314, 3: -2.0314, 4: -1.5254, 5: 3.8523, 6: -2.0254}
    start = time.perf_counter()
    roots = {fid: find_threshold(fid).x0 for fid in quoted}
    elapsed = time.perf_counter() - start
    for fid, want in quoted.items():
        assert abs(roots[fid] - want) <= 1e-3, (fid, roots[fid])
    assert elapsed < 1.0


def test_02_figure2_anomaly():
    with pytest.raises(NoBracketError):
        find_threshold(2)
    assert positivity_scan(2, -1.999, 50.0, 0.005) == []
    # x = -2 is the essential singularity of the display, not a zero
    with pytest.raises(SingularityError):
        figure_eval(2, -2.0)
    assert figure_eval(2, -1.9999) != 0.0


def test_03_implication_chain_soundness():
    rng = random.Random(3)
    start = time.perf_counter()
    for _ in range(500):
        params, alpha, beta = draw_chain_inputs(rng)
        cls = ClassSpec(alpha, beta)
        for cond, lemma, kind in (
            (starlike_condition, starlike_sum, QuotientKind.STARLIKE),
            (convex_condition, convex_sum, QuotientKind.CONVEX),
        ):
            verdict = cond(params, cls)
            report = lemma(params, cls)
            if verdict.holds:
                assert report.status is not SumStatus.FAILS, (params, alpha, beta)
            if report.status is SumStatus.HOLDS:
                assert sup_estimate(params, cls, kind) < beta, (params, alpha, beta)
    assert time.perf_counter() - start < 120.0


def test_04_duality():
    rng = random.Random(4)
    # coefficient level: the convex sum equals the starlike weights applied
    # to the coefficient sequence k a_k of z u'(z)
    done = 0
    while done < 500:
        q = rng.uniform(0.5, 20.0)
        c = rng.uniform(-3.0, 3.0)
        if abs(c) < 0.01:
            continue
        done += 1
        params = BesselParams(q - 1.0, 1.0, c)
        cls = ClassSpec(rng.uniform(0.0, 0.99), rng.uniform(0.01, 1.0))
        got = convex_sum(params, cls).sum
        want = math.fsum(
            ((k - 1.0) + cls.beta * (k + 1.0 - 2.0 * cls.alpha))
            * abs(k * ref_coeff(params.p, 1.0, c, k))
            for k in range(2, 80)
        )
        assert abs(got - want) < 1e-12, (params, cls)

    # quotient level: the convex quotient of u is the starlike quotient of
    # g = z u'.  The disk layer's convex sup, which it takes at z = sign(c),
    # must equal the starlike quotient of g there, evaluated through an
    # independent series for z u'.
    checked = 0
    for _ in range(40):
        params, alpha, beta = draw_chain_inputs(rng)
        got = sup_estimate(params, ClassSpec(alpha, beta), QuotientKind.CONVEX)
        if got == math.inf:  # a pole of the quotient in the closed disk
            continue
        z = -1.0 if params.c < 0.0 else 1.0
        _, up, upp = ref_u_derivs(params.p, params.b, params.c, z)
        w_g = 1.0 + z * upp / up  # z g'/g for g = z u'
        want = abs((w_g - 1.0) / (w_g + 1.0 - 2.0 * alpha))
        assert abs(got - want) < 1e-10 * max(1.0, want), (params, alpha)
        checked += 1
    assert checked >= 20


def test_05_corollary_consistency_audit():
    report = consistency_audit()
    must_agree = [
        "STARLIKE_FIRST_KIND", "STARLIKE_SPHERICAL",
        "CONVEX_FIRST_KIND", "CONVEX_SPHERICAL",
        "STARLIKE_FIRST_KIND_BETA1", "STARLIKE_SPHERICAL_BETA1",
        "CONVEX_FIRST_KIND_BETA1", "CONVEX_SPHERICAL_BETA1",
    ]
    for name in must_agree:
        assert report["criteria"][name]["disagreements"] == 0, name
    for name in ("STARLIKE_MODIFIED", "STARLIKE_MODIFIED_BETA1"):
        entry = report["criteria"][name]
        assert entry["disagreements"] >= 1, name
        assert entry["disagreement_examples"], name
    pin = report["pinned_case"]
    assert pin["printed"] == pytest.approx(4.417550299655642, rel=1e-12)
    assert pin["derived"] == pytest.approx(-1.1648994006887161, rel=1e-12)
    assert pin["printed_holds"] and not pin["derived_holds"]
    # the committed artifact is exactly a fresh run of the audit
    committed = json.loads((REPO / "reports" / "corollary_audit.json").read_text())
    assert committed == report


def test_06_series_accuracy():
    oracle = math.fsum((-1.0) ** k / math.factorial(k) ** 2 for k in range(40))
    got = eval_u(params_of_kind(BesselKind.FIRST_KIND, 0.0), 1.0, eps=1e-15).value
    assert abs(got - oracle) / abs(oracle) < 1e-12
    for p in (0.0, 1.0, 2.5):
        for b in (1.0, 2.0):
            for c in (1.0, -1.0):
                for x in (0.3, 0.7, 1.5):
                    assert ode_residual(BesselParams(p, b, c), x) < 1e-8


def test_07_closed_form_agreement():
    for p in (-0.5, 1.0, 5.0):
        for alpha in (0.0, 0.4, 0.8):
            for beta in (0.2, 0.6, 1.0):
                params = BesselParams(p, 1.0, -1.0)
                cls = ClassSpec(alpha, beta)
                diff = abs(starlike_sum_closed_form(params, cls) - starlike_sum(params, cls).sum)
                assert diff < 1e-10, (p, alpha, beta)
