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

One private kernel, _coefficients, produces the coefficients a_k of u by
their ratio recurrence and decides where to truncate, for the series
evaluations here (which run it on the terms a_k z^(k-1), so that a_k and
|z|^k never have to be finite on their own) and the weighted coefficient
sums of criteria.  Each caller gives the degree d of its weight
w(k) = (k - 1) k^(d-1); the kernel stops only once the discarded terms
w(k) |a_k| are dominated by a geometric series with ratio r <= 1/2, and
|first discarded term| / (1 - r) bounds them.  So every SeriesValue carries
a tail bound that is valid by construction.  Accumulation is compensated
(Kahan), which bounds each sum's rounding error by a few ulps of the sum of
its terms' moduli, not of the value, so under cancellation the relative
error can be large.  tail_bound does not yet count rounding (ROADMAP item 3).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, NoConvergenceError, PoleError, SeriesOverflowError

# Working region for the normalized series: unit disk plus margin.
MAX_ABS_Z = 4.0

# Minimum number of terms summed before the stop rule may fire, and the
# hard cap beyond which NoConvergenceError is raised.
MIN_TERMS = 10
MAX_TERMS = 10_000

DEFAULT_EPS = 1e-13

_EPS_ULP = sys.float_info.epsilon
_TINY = math.ulp(0.0)  # the smallest positive double
_INF = math.inf


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
        if not math.isfinite(q):
            raise DomainError(f"q = p + (b+1)/2 = {q!r} overflows binary64")
        if _is_nonpositive_integer(q):
            raise PoleError(
                f"q = p + (b+1)/2 = {q!r} is zero or a negative integer; "
                "the series denominators (q)_k have a pole"
            )
        object.__setattr__(self, "q", q)


class BesselKind(Enum):
    """Named specializations of the parameter triple."""

    FIRST_KIND = "first-kind"  # w = J_p
    MODIFIED = "modified"      # w = I_p
    SPHERICAL = "spherical"    # w = 2 j_p / sqrt(pi)


# (b, c, p_low) of each named kind; its orders are p > p_low.  Every other
# module takes a kind's parameters and order domain from params_of_kind.
_KINDS: dict[BesselKind, tuple[float, float, float]] = {
    BesselKind.FIRST_KIND: (1.0, 1.0, -1.0),
    BesselKind.MODIFIED: (1.0, -1.0, -1.0),
    BesselKind.SPHERICAL: (2.0, 1.0, -1.5),
}


def params_of_kind(kind: BesselKind, p: float) -> BesselParams:
    """Build BesselParams for a named kind, enforcing its order domain."""
    entry = _KINDS.get(kind) if isinstance(kind, BesselKind) else None
    if entry is None:
        raise DomainError(f"unknown kind {kind!r}")
    b, c, p_low = entry
    if not p > p_low:
        raise DomainError(f"{kind.value} order requires p > {p_low!r}, got {p!r}")
    return BesselParams(p, b, c)


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series evaluation.

    tail_bound >= |true value - value| by the kernel's geometric-majorant
    stop rule; terms_used counts the terms actually accumulated: the K of
    the kernel, which exceeds MIN_TERMS, or 2 at z = 0.
    """

    value: complex | float
    terms_used: int
    tail_bound: float


def _modulus(v: complex | float) -> float:
    """abs(v), or inf for a complex whose parts are finite but whose modulus is not."""
    try:
        return abs(v)
    except OverflowError:
        return _INF


def _coefficients(q: float, x: complex | float, eps: float, scale: float, degree: int):
    """a_1..a_(K+1) of the ratio recurrence and the tail bound past a_K.

    The recurrence is a_1 = 1, a_(k+1) = a_k x / ((q + (k - 1)) k); with
    x = -c it gives the Taylor coefficients a_k = (-c)^(k-1) / ((q)_(k-1)
    (k-1)!) of u without the intermediate overflow of (q)_(k-1) (k-1)!, and
    with x = -c z (complex when z is) the terms a_k z^(k-1).
    Forming q + (k - 1) keeps the low bits of a small q that (q + k) - 1
    would round away at k = 1.  No denominator is 0: the exact sum of two
    doubles is a multiple of 2**-1074, so q + (k - 1) rounds to 0 only for
    q = -(k - 1), a pole that BesselParams refuses, and a product by k >= 1
    cannot underflow.

    This is the one stop rule of the package.  With the weight
    w(k) = (k - 1) k^(degree-1), degree 1 or 2, K is the first index above
    MIN_TERMS with q + K > 0 at which

        r = |x| (K + degree) / ((q + K) (K + 1) K)  <=  1/2   and
        bound = w(K+1) |a_(K+1)| / (1 - r)           <   max(eps scale, 0+).

    The threshold is the caller's eps times its scale, floored at the smallest
    double 0+ so that a product that underflows still stops at a bound of 0;
    every error quotes the caller's own eps.

    Once q + k > 0 the term ratios |x| / ((q + k) (k + 1)) fall with k, and
    so do the weight ratios w(k+2) / w(k+1) = (k + degree) / k, so the
    discarded terms w(k) |a_k|, k > K, are dominated by a geometric series
    of ratio r and sum to at most bound.  a_(K+1), the first discarded
    coefficient, is the last entry of the list.  Raises NoConvergenceError
    when no K <= MAX_TERMS qualifies, and its subclass SeriesOverflowError at
    once at the first index past MIN_TERMS with q + k > 0 whose coefficient
    has no finite modulus: a non-finite a_k stays non-finite, so no later
    bound could fall below eps.  Before raising it reruns the recurrence
    once with the quotient x / ((q + (k - 1)) k) formed first, for an
    a_k x that overflowed where a_(k+1) is finite, and returns that run's
    coefficients if it stops.
    """
    a = [1.0]
    ak = 1.0
    ax = _modulus(x)
    tol = max(eps * scale, _TINY)
    try:
        for k in range(1, MAX_TERMS + 1):
            ak = ak * x / ((q + (k - 1.0)) * k)
            a.append(ak)  # a_1 .. a_(k+1)
            if k > MIN_TERMS and q + k > 0.0:
                if not abs(ak) < _INF:
                    raise OverflowError
                r = ax / ((q + k) * (k + 1.0)) * ((k + degree) / k)
                if r <= 0.5:
                    bound = abs((k if degree == 1 else k * (k + 1.0)) * ak) / (1.0 - r)
                    if bound < tol:
                        return a, bound
    except OverflowError:  # also abs() of a complex whose parts are finite but modulus is not
        msg = f"term {k + 1} overflows, so tail bound {eps!r} cannot be certified"
    else:
        raise NoConvergenceError(f"tail bound {eps!r} not certified within {MAX_TERMS} terms")
    # a_k x itself may have overflowed where a_(k+1) is finite (|x| and q
    # near the largest double): rerun once as a_k ((x / (q + (k - 1))) / k),
    # with no product that can overflow where its quotient would not.  The
    # loop above keeps its one rounding order, and with it every result it
    # returns.
    a = [1.0]
    ak = 1.0
    try:
        for k in range(1, MAX_TERMS + 1):
            ak = ak * (x / (q + (k - 1.0)) / k)
            a.append(ak)
            if k > MIN_TERMS and q + k > 0.0:
                if not abs(ak) < _INF:
                    break
                r = ax / (q + k) / (k + 1.0) * ((k + degree) / k)
                if r <= 0.5:
                    bound = abs((k if degree == 1 else k * (k + 1.0)) * ak) / (1.0 - r)
                    if bound < tol:
                        return a, bound
    except OverflowError:
        pass
    raise SeriesOverflowError(msg)


def eval_u(params: BesselParams, z: complex | float, eps: float = DEFAULT_EPS) -> SeriesValue:
    """Evaluate u(z) = sum_{k>=0} (-c)^k z^(k+1) / ((q)_k k!) with tail_bound < eps.

    Requires |z| <= 4 (the unit disk plus margin).  Real z in gives a real
    value out; complex z stays complex.  This is the first component of
    eval_u_derivatives.
    """
    return eval_u_derivatives(params, z, eps)[0]


def eval_u_derivatives(
    params: BesselParams, z: complex | float, eps: float = DEFAULT_EPS
) -> tuple[SeriesValue, SeriesValue, SeriesValue]:
    """Evaluate (u, u', u'') by term-wise differentiation, each with tail_bound < eps.

    With t_k = a_k z^(k-1), u = sum_k t_k z, u' = sum_k k t_k and
    u'' = sum_k k (k-1) t_k / z are summed over the kernel's t_1..t_K.  The
    kernel runs on x = -c z with the u'' weight k (k-1) (degree 2), whose
    majorant ratio also dominates the term ratios of u and u', and with
    eps |z|: it bounds sum_(k>K) k (k-1) |t_k|, which is |z| times the u''
    tail, so every lane's tail is below eps.  The kernel's recurrence
    t_k = t_(k-1) (-c z) / ((q + (k-2)) (k-1)) turns the u'' term into

        k (k-1) t_k / z = k (-c) t_(k-1) / (q + (k-2)),

    so no term divides by z.  u'(0) = 1 and u''(0) = 2 (-c) / q exactly.
    A value that overflows raises SeriesOverflowError, as a term does.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    az = _modulus(z)
    if not az <= MAX_ABS_Z:
        raise DomainError(f"|z| = {az!r} lies outside the working region |z| <= {MAX_ABS_Z}")

    q, c = params.q, params.c
    is_complex = isinstance(z, complex)
    one = complex(1.0) if is_complex else 1.0
    zero = complex(0.0) if is_complex else 0.0

    if az == 0.0:
        u, up, upp = zero, one, 2.0 * ((-c) / q) * one
        n, tails = 2, (0.0, 0.0, 0.0)
    else:
        # The kernel runs on x = -c z, so its entries are the terms
        # t_k = a_k z^(k-1) themselves: a_k or |z|^k alone can overflow (or
        # a_k underflow) where t_k is finite.
        t, bound = _coefficients(q, -c * z, eps, az, 2)
        n = len(t) - 1  # K: t_1 .. t_K are summed, t_(K+1) is the first discarded
        tails = (bound * az / ((n + 1.0) * n), bound / n, bound / az)

        # three compensated (Kahan) sums in one pass, from the k = 1 terms z,
        # 1 and 0 (t_1 = 1); zero + z turns a -0.0 part of z into 0.0, as a
        # sum does
        u, up, upp = zero + z, one, zero
        c0 = c1 = c2 = zero
        for k in range(2, n + 1):
            tk = t[k - 1]
            y = tk * z - c0
            s = u + y
            c0 = (s - u) - y
            u = s
            y = k * tk - c1
            s = up + y
            c1 = (s - up) - y
            up = s
            y = k * ((-c) * t[k - 2] / (q + (k - 2.0))) - c2
            s = upp + y
            c2 = (s - upp) - y
            upp = s
        if not cmath.isfinite(upp):
            # (-c) t_(k-1) may have overflowed where the u'' term is finite:
            # rerun that lane once as t_(k-1) ((-c) / (q + (k-2))), as the
            # kernel reruns its recurrence
            upp = c2 = zero
            for k in range(2, n + 1):
                y = k * (t[k - 2] * ((-c) / (q + (k - 2.0)))) - c2
                s = upp + y
                c2 = (s - upp) - y
                upp = s
    # a lane past binary64 reads inf or nan (Kahan's corrections turn inf to nan)
    if not (cmath.isfinite(u) and cmath.isfinite(up) and cmath.isfinite(upp)):
        raise SeriesOverflowError(
            f"u, u' or u'' overflows, so tail bound {eps!r} cannot be certified"
        )
    return SeriesValue(u, n, tails[0]), SeriesValue(up, n, tails[1]), SeriesValue(upp, n, tails[2])


def eval_w(params: BesselParams, x: float, eps: float = DEFAULT_EPS) -> SeriesValue:
    """Evaluate the unnormalized series w(x) = u(x^2/4) * (x/2)^(p-2) / Gamma(q).

    Only real x > 0 is accepted (the principal real power x^p needs no
    branch policy there).  The working region of u limits x to (0, 4].
    DomainError is raised where the scale (x/2)^(p-2) / Gamma(q) cannot be
    formed in binary64: the power, Gamma(q) or their quotient overflows, or
    Gamma(q) or x/2 underflows to 0 and is divided by or raised to a
    negative power.
    """
    if isinstance(x, complex):
        raise DomainError("x must be real")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    try:
        scale = (x / 2.0) ** (params.p - 2.0) / math.gamma(params.q)
    except (OverflowError, ZeroDivisionError):
        scale = _INF
    if math.isinf(scale):
        raise DomainError(
            f"the scale (x/2)^(p-2) / Gamma(q) of w is out of binary64 range "
            f"at p = {params.p!r}, x = {x!r}"
        )
    sv = eval_u(params, x * x / 4.0, eps)
    value = sv.value * scale
    tail = sv.tail_bound * abs(scale) + 2.0 * _EPS_ULP * abs(value)
    return SeriesValue(value, sv.terms_used, tail)
