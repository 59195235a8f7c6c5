"""Normalized Bessel-type power series with rigorous truncation control.

The central object is the normalized series

    u(z) = sum_{k>=0} (-c)^k z^(k+1) / ((q)_k k!),      q = p + (b+1)/2,

an analytic function on the unit disk with u(0) = 0 and u'(0) = 1.  Its
unnormalized companion

    w(x) = sum_{k>=0} (-c)^k (x/2)^(2k+p) / (k! Gamma(k+q))

solves the second-order equation

    x^2 w'' + b x w' + (c x^2 - p^2 + (1-b) p) w = 0

and is recovered from u through w(x) = u(x^2/4) * (x/2)^(p-2) / Gamma(q).
Specializing (b, c) = (1, 1) gives w = J_p, (b, c) = (1, -1) gives w = I_p,
and (b, c) = (2, 1) gives 2/sqrt(pi) times the spherical function j_p in
its conventional normalization.

Every evaluation returns a SeriesValue carrying a tail bound that is valid
by construction: summation stops only once the remaining terms are
dominated by a geometric series with ratio <= 1/2, and the bound
|next term| / (1 - ratio) covers the discarded tail.  Accumulation is
compensated (Kahan), so the returned values are accurate to a few ulps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, NoConvergenceError, PoleError

# Working region for the normalized series: unit disk plus margin.
MAX_ABS_Z = 4.0

# Minimum number of terms summed before the stop rule may fire, and the
# hard cap beyond which NoConvergenceError is raised.
MIN_TERMS = 10
MAX_TERMS = 10_000

DEFAULT_EPS = 1e-13

_EPS_ULP = sys.float_info.epsilon


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


@dataclass(frozen=True)
class BesselParams:
    """Parameter triple (p, b, c) with the derived Pochhammer shift q.

    q = p + (b+1)/2 must avoid {0, -1, -2, ...} so that every denominator
    (q)_k in the series is pole free.  Closed-form criteria additionally
    require q > 0; that stronger check is made where it is needed.
    """

    p: float
    b: float
    c: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("p", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        q = self.p + (self.b + 1.0) / 2.0
        if _is_nonpositive_integer(q):
            raise PoleError(
                f"q = p + (b+1)/2 = {q!r} is zero or a negative integer; "
                "the series denominators (q)_k have a pole"
            )
        object.__setattr__(self, "q", q)


class BesselKind(Enum):
    """Named specializations of the parameter triple."""

    GENERALIZED = "generalized"
    FIRST_KIND = "first-kind"  # (b, c) = (1, 1),  w = J_p,  p > -1
    MODIFIED = "modified"      # (b, c) = (1, -1), w = I_p,  p > -1
    SPHERICAL = "spherical"    # (b, c) = (2, 1),  w = 2 j_p / sqrt(pi), p > -3/2


def params_of_kind(
    kind: BesselKind,
    p: float,
    b: float | None = None,
    c: float | None = None,
) -> BesselParams:
    """Build BesselParams for a named kind, enforcing its order domain."""
    if kind is BesselKind.GENERALIZED:
        if b is None or c is None:
            raise DomainError("generalized kind requires explicit b and c")
        return BesselParams(p, b, c)
    if b is not None or c is not None:
        raise DomainError(f"{kind.value} kind fixes b and c; do not pass them")
    if kind is BesselKind.FIRST_KIND:
        if not p > -1.0:
            raise DomainError(f"first-kind order requires p > -1, got {p!r}")
        return BesselParams(p, 1.0, 1.0)
    if kind is BesselKind.MODIFIED:
        if not p > -1.0:
            raise DomainError(f"modified order requires p > -1, got {p!r}")
        return BesselParams(p, 1.0, -1.0)
    if kind is BesselKind.SPHERICAL:
        if not p > -1.5:
            raise DomainError(f"spherical order requires p > -3/2, got {p!r}")
        return BesselParams(p, 2.0, 1.0)
    raise DomainError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series evaluation.

    tail_bound >= |true value - value| by the geometric-majorant stop rule;
    terms_used counts the terms actually accumulated (always >= 2).
    """

    value: complex | float
    terms_used: int
    tail_bound: float


def _gamma(x: float) -> float:
    """Gamma(x) via math.gamma, mapping its pole errors to PoleError.

    The underlying implementation is a Lanczos-type approximation accurate
    to well under 1e-12 relative error on this package's domain and exact
    at small positive integers.
    """
    try:
        return math.gamma(x)
    except ValueError as exc:
        raise PoleError(f"Gamma({x!r}) is at a pole") from exc


def coefficient(params: BesselParams, k: int) -> float:
    """Taylor coefficient a_k of u: a_1 = 1, a_k = (-c)^(k-1) / ((q)_(k-1) (k-1)!).

    Computed by the stable ratio recurrence a_(k+1) = a_k * (-c) / ((q+k-1) k),
    which avoids intermediate overflow of (q)_(k-1) (k-1)! for large k.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"k must be an int, got {k!r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    a = 1.0
    for j in range(1, k):
        denom = (params.q + (j - 1.0)) * j  # q + (j-1) keeps the low bits of a small q
        if denom == 0.0:
            raise PoleError(f"(q)_{k-1} vanishes for q = {params.q!r}")
        a *= -params.c / denom
    return a


def _kahan_step(total, comp, term):
    """One compensated-summation step; works componentwise for complex."""
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _series_sums(
    params: BesselParams,
    z: complex | float,
    eps: float,
    want_derivatives: bool,
    max_terms: int,
):
    """Shared summation core for eval_u and eval_u_derivatives.

    Terms of u are t_k = (-c)^k z^(k+1) / ((q)_k k!) for k >= 0, with
    |t_(k+1) / t_k| = |c| |z| / (|q+k| (k+1)).  Once q+k > 0 this ratio
    decreases in k, so when it drops to r <= 1/2 the remaining tail is
    bounded by |t_(k+1)| / (1 - r).  The derivative series carry the extra
    factors (k+1) and (k+1)k; their term ratios gain (k+2)/(k+1) and
    (k+2)/k, so a single conservative ratio r* = ratio * (k+2)/max(k,1)
    dominates all three series at once.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if max_terms < 2:
        raise DomainError(f"max_terms must be >= 2, got {max_terms}")
    az = abs(z)
    if az > MAX_ABS_Z:
        raise DomainError(f"|z| = {az!r} exceeds the working region |z| <= {MAX_ABS_Z}")

    q, c = params.q, params.c
    is_complex = isinstance(z, complex)
    one = complex(1.0) if is_complex else 1.0
    zero = complex(0.0) if is_complex else 0.0

    if az == 0.0:
        u = SeriesValue(zero, 2, 0.0)
        if not want_derivatives:
            return (u,)
        second = (2.0 * (-c) / q) * one
        return u, SeriesValue(one, 2, 0.0), SeriesValue(second, 2, 0.0)

    # g_k = (-c)^k z^k / ((q)_k k!); u sums g_k * z, u' sums (k+1) g_k,
    # u'' sums (k+1) k g_k / z.
    g = one
    s0, c0 = g * z, zero
    s1, c1 = g, zero
    s2, c2 = zero, zero

    k = 0
    while True:
        denom = (q + k) * (k + 1.0)
        if denom == 0.0:
            raise PoleError(f"(q)_{k+1} vanishes for q = {params.q!r}")
        g_next = g * (-c) * z / denom
        summed = k + 1  # terms t_0 .. t_k are in the accumulators

        kn = k + 1  # index of the candidate first discarded term
        if summed >= MIN_TERMS and q + kn > 0.0:
            ratio = abs(c) * az / ((q + kn) * (kn + 1.0))
            # (kn+2)/kn covers the extra term-ratio factor of the u'' series
            # (and a fortiori those of u and u'), so one r works for all.
            r = ratio * (kn + 2.0) / kn if want_derivatives else ratio
            if r <= 0.5:
                mag = abs(g_next)
                tail0 = mag * az / (1.0 - r)
                if not want_derivatives:
                    if tail0 < eps:
                        return (SeriesValue(s0, summed, tail0),)
                else:
                    tail1 = (kn + 1.0) * mag / (1.0 - r)
                    tail2 = (kn + 1.0) * kn * mag / az / (1.0 - r)
                    if tail0 < eps and tail1 < eps and tail2 < eps:
                        return (
                            SeriesValue(s0, summed, tail0),
                            SeriesValue(s1, summed, tail1),
                            SeriesValue(s2, summed, tail2),
                        )

        if summed + 1 > max_terms:
            raise NoConvergenceError(
                f"tail bound {eps!r} not certified within {max_terms} terms"
            )
        g = g_next
        s0, c0 = _kahan_step(s0, c0, g * z)
        if want_derivatives:
            s1, c1 = _kahan_step(s1, c1, (k + 2.0) * g)
            s2, c2 = _kahan_step(s2, c2, (k + 2.0) * (k + 1.0) * g / z)
        k += 1


def eval_u(
    params: BesselParams,
    z: complex | float,
    eps: float = DEFAULT_EPS,
    max_terms: int = MAX_TERMS,
) -> SeriesValue:
    """Evaluate u(z) = sum_{k>=0} (-c)^k z^(k+1) / ((q)_k k!) with tail_bound < eps.

    Requires |z| <= 4 (the unit disk plus margin).  Real z in gives a real
    value out; complex z stays complex.
    """
    (sv,) = _series_sums(params, z, eps, want_derivatives=False, max_terms=max_terms)
    return sv


def eval_u_derivatives(
    params: BesselParams,
    z: complex | float,
    eps: float = DEFAULT_EPS,
    max_terms: int = MAX_TERMS,
) -> tuple[SeriesValue, SeriesValue, SeriesValue]:
    """Evaluate (u, u', u'') by term-wise differentiation, each with its own tail bound.

    u'(0) = 1 and u''(0) = 2 (-c) / q exactly.
    """
    res = _series_sums(params, z, eps, want_derivatives=True, max_terms=max_terms)
    return res  # type: ignore[return-value]


def eval_w(
    params: BesselParams,
    x: float,
    eps: float = DEFAULT_EPS,
    max_terms: int = MAX_TERMS,
) -> SeriesValue:
    """Evaluate the unnormalized series w(x) = u(x^2/4) * (x/2)^(p-2) / Gamma(q).

    Only real x > 0 is accepted (the principal real power x^p needs no
    branch policy there).  The working region of u limits x to (0, 4].
    """
    if isinstance(x, complex):
        raise DomainError("x must be real")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    scale = (x / 2.0) ** (params.p - 2.0) / _gamma(params.q)
    sv = eval_u(params, x * x / 4.0, eps, max_terms)
    value = sv.value * scale
    tail = sv.tail_bound * abs(scale) + 2.0 * _EPS_ULP * abs(value)
    return SeriesValue(value, sv.terms_used, tail)
