"""Shared reference oracles and draw helpers.

Every numeric oracle here is structurally independent of the package:
coefficients come from explicit Pochhammer products and math.factorial, sums
go through math.fsum (exact up to one final rounding), the disk quotients
come from scipy's 0F1 on polar rings, and nothing reuses the package's ratio
recurrences, continued fraction or Kahan loops.  scalar_scan_rows is the one
structural oracle: scan's rows rebuilt one class at a time from the public
layer functions, against which scan's per-order evaluation is compared.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.special as sp

from besselgeom import (
    BesselParams,
    ClassSpec,
    QuotientKind,
    SumStatus,
    convex_condition,
    starlike_condition,
    sum_reports,
    sup_estimates,
)


def ref_coeff(p: float, b: float, c: float, k: int) -> float:
    """a_k = (-c)^(k-1) / ((q)_(k-1) (k-1)!) by direct product."""
    q = p + (b + 1.0) / 2.0
    poch = 1.0
    for j in range(k - 1):
        poch *= q + j
    return (-c) ** (k - 1) / (poch * math.factorial(k - 1))


def _fsum_complex(terms: list[complex]) -> complex:
    return complex(
        math.fsum(t.real for t in terms),
        math.fsum(t.imag for t in terms),
    )


def ref_u(p: float, b: float, c: float, z: complex, n: int = 60) -> complex:
    terms = [ref_coeff(p, b, c, k) * z**k for k in range(1, n + 1)]
    return _fsum_complex(terms)


def ref_u_derivs(
    p: float, b: float, c: float, z: complex, n: int = 60
) -> tuple[complex, complex, complex]:
    a = [ref_coeff(p, b, c, k) for k in range(1, n + 1)]
    u = _fsum_complex([ak * z**k for k, ak in enumerate(a, start=1)])
    up = _fsum_complex([k * ak * z ** (k - 1) for k, ak in enumerate(a, start=1)])
    upp = _fsum_complex(
        [k * (k - 1) * ak * z ** (k - 2) for k, ak in enumerate(a, start=1) if k >= 2]
    )
    return u, up, upp


def ref_weighted_sum(
    p: float, b: float, c: float, alpha: float, beta: float,
    convex: bool, n: int = 80,
) -> float:
    """Reference for the coefficient criteria, on |a_k| with fsum."""
    terms = []
    for k in range(2, n + 1):
        w = (k - 1.0) + beta * (k + 1.0 - 2.0 * alpha)
        if convex:
            w *= k
        terms.append(w * abs(ref_coeff(p, b, c, k)))
    return math.fsum(terms)


RING_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999)
RING_ANGLES = 720
RING_GUARD = 1e-14


def ring_max(
    p: float, b: float, c: float, alpha: float, convex: bool,
    radii: tuple[float, ...] = RING_RADII, angles: int = RING_ANGLES,
) -> float:
    """Largest |n / (n + 2 (1 - alpha))| over polar rings inside the unit disk.

    n = z u'/u - 1 (starlike) or z u''/u' (convex), from u(z) = z F_q(-c z)
    with F_q = 0F1(;q;.): z u'/u - 1 = -c z F_(q+1) / (q F_q) and
    u'' = 2 (-c / q) F_(q+1) + z c^2 / (q (q + 1)) F_(q+2).  Points where
    |f / z| (|u / z| or |u'|) or the denominator is at most RING_GUARD are
    skipped.  Every sampled point lies inside the disk, so the result is a
    lower bound of the quotient's sup there (0.0 when every point is skipped).
    """
    q = p + (b + 1.0) / 2.0
    theta = np.arange(angles) * (2.0 * np.pi / angles)
    zs = np.concatenate([r * np.exp(1j * theta) for r in radii])
    f0, f1 = sp.hyp0f1(q, -c * zs), sp.hyp0f1(q + 1.0, -c * zs)
    with np.errstate(all="ignore"):
        if convex:
            first = f0 + zs * (-c / q) * f1  # u'
            upp = 2.0 * (-c / q) * f1 + zs * (c * c / (q * (q + 1.0))) * sp.hyp0f1(q + 2.0, -c * zs)
            n = zs * upp / first
        else:
            first = f0  # u / z
            n = -c * zs * f1 / (q * f0)
        den = n + 2.0 * (1.0 - alpha)
        quot = np.abs(n / den)
    valid = (np.abs(first) > RING_GUARD) & (np.abs(den) > RING_GUARD) & np.isfinite(quot)
    return float(np.max(quot[valid])) if valid.any() else 0.0


def scalar_scan_rows(
    b: float,
    c: float,
    p_range: tuple[float, float],
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    klass: str,
    steps: tuple[int, int, int],
) -> tuple[list[dict], bool]:
    """(rows, consistent) of scan_record, one class at a time.

    Each row takes starlike_condition or convex_condition, sum_reports and
    sup_estimates of its own class, and the chain theorem => lemma =>
    sup <= beta is written out here; the axes come from np.linspace.  A
    layer error propagates from the first row that meets it, in the order
    condition, sum, disk.
    """
    cond, which = {
        "star": (starlike_condition, QuotientKind.STARLIKE),
        "convex": (convex_condition, QuotientKind.CONVEX),
    }[klass]
    axes = [np.linspace(lo, hi, n).tolist()
            for (lo, hi), n in zip((p_range, alpha_range, beta_range), steps)]
    rows, consistent = [], True
    for p in axes[0]:
        params = BesselParams(p, b, c)
        for alpha in axes[1]:
            for beta in axes[2]:
                cls = ClassSpec(alpha, beta)
                thm = cond(params, cls)
                status = sum_reports(params, [cls], which)[0].status
                sup = sup_estimates(params, [cls], which)[0]
                if thm.holds and status is SumStatus.FAILS:
                    consistent = False
                if status is SumStatus.HOLDS and not sup <= beta:
                    consistent = False
                rows.append({
                    "p": p, "alpha": alpha, "beta": beta,
                    "theorem": "holds" if thm.holds else "fails",
                    "lemma": status.value,
                    "disk_max": sup,
                })
    return rows, consistent


def draw_chain_inputs(rng: random.Random) -> tuple[BesselParams, float, float]:
    """Random draw matching the soundness-property ranges (b = 1, so q = p + 1)."""
    q = rng.uniform(0.05, 20.0)
    c = -rng.uniform(0.01, 5.0)
    alpha = rng.uniform(0.0, 0.99)
    beta = rng.uniform(0.001, 1.0)
    return BesselParams(q - 1.0, 1.0, c), alpha, beta


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260814)
