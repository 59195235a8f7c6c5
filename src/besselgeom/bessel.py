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
sums of criteria.  Each caller gives a weight w(k); the kernel stops only
once the discarded terms w(k) |a_k| are dominated by a geometric series
with ratio r <= 1/2, and |first discarded term| / (1 - r) bounds them.
So every SeriesValue carries a tail bound that is valid by construction.
Accumulation is compensated (Kahan), so the returned values are accurate to
a few ulps.
"""

from __future__ import annotations

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
_MIN_NORMAL = sys.float_info.min


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


def _gamma(x: float) -> float:
    """Gamma(x) via math.gamma, mapping its pole errors to PoleError.

    Overflow still raises OverflowError; eval_w turns it into DomainError.
    The underlying implementation is a Lanczos-type approximation accurate
    to well under 1e-12 relative error on this package's domain and exact
    at small positive integers.
    """
    try:
        return math.gamma(x)
    except ValueError as exc:
        raise PoleError(f"Gamma({x!r}) is at a pole") from exc


def _u2_weight(k: int) -> float:
    """Weight of a_k in u''(z) z = sum_k k (k-1) a_k z^(k-1)."""
    return k * (k - 1.0)


def _coefficients(q: float, x: complex | float, eps: float, weight):
    """a_1..a_(K+1) of the ratio recurrence and the tail bound past a_K.

    The recurrence is a_1 = 1, a_(k+1) = a_k x / ((q + (k - 1)) k); with
    x = -c it gives the Taylor coefficients a_k = (-c)^(k-1) / ((q)_(k-1)
    (k-1)!) of u without the intermediate overflow of (q)_(k-1) (k-1)!, and
    with x = -c z (complex when z is) the terms a_k z^(k-1).
    Forming q + (k - 1) keeps the low bits of a small q that (q + k) - 1
    would round away at k = 1.  A zero denominator raises PoleError.

    This is the one stop rule of the package.  K is the first index above
    MIN_TERMS with q + K > 0 at which

        r = |x| w(K+2) / ((q + K) (K + 1) w(K+1))  <=  1/2   and
        bound = w(K+1) |a_(K+1)| / (1 - r)          <   eps.

    Once q + k > 0 the term ratios |x| / ((q + k) (k + 1)) fall with k,
    and so do the weight ratios w(k+1) / w(k) of every weight used here, so
    the discarded terms w(k) |a_k|, k > K, are dominated by a geometric
    series of ratio r and sum to at most bound.  a_(K+1), the first
    discarded coefficient, is the last entry of the list.  Raises
    NoConvergenceError when no K <= MAX_TERMS qualifies, and its subclass
    SeriesOverflowError at once at the first index past MIN_TERMS with
    q + k > 0 whose coefficient is inf or nan: a non-finite a_k stays
    non-finite, so no later bound could fall below eps.
    """
    a = [1.0]
    ak = 1.0
    scale = abs(x)
    for k in range(1, MAX_TERMS + 1):
        denom = (q + (k - 1.0)) * k
        if denom == 0.0:
            raise PoleError(f"(q)_{k} vanishes for q = {q!r}")
        ak = ak * x / denom
        a.append(ak)  # a_1 .. a_(k+1)
        if k > MIN_TERMS and q + k > 0.0:
            if not abs(ak) < _INF:
                raise SeriesOverflowError(
                    f"term {k + 1} overflows, so tail bound {eps!r} cannot be certified"
                )
            r = scale / ((q + k) * (k + 1.0)) * (weight(k + 2) / weight(k + 1))
            if r <= 0.5:
                bound = abs(weight(k + 1) * ak) / (1.0 - r)
                if bound < eps:
                    return a, bound
    raise NoConvergenceError(f"tail bound {eps!r} not certified within {MAX_TERMS} terms")


def _kahan_sum(terms):
    """Compensated (Kahan) sum of real or complex terms, in order.

    eval_u_derivatives writes the same steps inline for its three lanes,
    which one pass keeps faster than three calls.
    """
    total = comp = 0.0
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


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
    kernel runs on x = -c z with the u'' weight k (k-1), whose majorant
    ratio also dominates the term ratios of u and u', and with eps |z|: it
    bounds sum_(k>K) k (k-1) |t_k|, which is |z| times the u'' tail, so
    every lane's tail is below eps.  u'(0) = 1 and u''(0) = 2 (-c) / q
    exactly.  Where |c z| is below the smallest normal double, t_2 = -c z / q
    has lost bits to underflow, so the u'' lane takes its k = 2 term
    2 t_2 / z as 2 (-c) / q.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    az = abs(z)
    if not az <= MAX_ABS_Z:
        raise DomainError(f"|z| = {az!r} lies outside the working region |z| <= {MAX_ABS_Z}")

    q, c = params.q, params.c
    is_complex = isinstance(z, complex)
    one = complex(1.0) if is_complex else 1.0
    zero = complex(0.0) if is_complex else 0.0

    if az == 0.0:
        second = (2.0 * (-c) / q) * one
        return SeriesValue(zero, 2, 0.0), SeriesValue(one, 2, 0.0), SeriesValue(second, 2, 0.0)

    # The kernel runs on x = -c z, so its entries are the terms
    # t_k = a_k z^(k-1) themselves: a_k or |z|^k alone can overflow (or a_k
    # underflow) where t_k is finite.  The floor lets a subnormal |z|, where
    # every discarded term is 0, stop.  A failure quotes the caller's eps.
    try:
        t, bound = _coefficients(q, -c * z, max(eps * az, _TINY), _u2_weight)
    except SeriesOverflowError:
        raise SeriesOverflowError(
            f"the terms overflow, so tail bound {eps!r} cannot be certified"
        ) from None
    except NoConvergenceError:
        raise NoConvergenceError(
            f"tail bound {eps!r} not certified within {MAX_TERMS} terms"
        ) from None
    n = len(t) - 1  # K: t_1 .. t_K are summed, t_(K+1) is the first discarded

    # three compensated (Kahan) sums in one pass; _kahan_sum on a generator
    # per lane would make a short series about a fifth slower
    u = up = upp = c0 = c1 = c2 = zero
    for k in range(1, n + 1):
        tk = t[k - 1]
        y = tk * z - c0
        s = u + y
        c0 = (s - u) - y
        u = s
        y = k * tk - c1
        s = up + y
        c1 = (s - up) - y
        up = s
        y = k * (k - 1.0) * tk / z - c2
        s = upp + y
        c2 = (s - upp) - y
        upp = s
    if c != 0.0 and abs(c * z) < _MIN_NORMAL:
        upp = _kahan_sum(
            [(2.0 * (-c) / q) * one] + [k * (k - 1.0) * t[k - 1] / z for k in range(3, n + 1)]
        )
    return (
        SeriesValue(u, n, bound * az / ((n + 1.0) * n)),
        SeriesValue(up, n, bound / n),
        SeriesValue(upp, n, bound / az),
    )


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
        scale = (x / 2.0) ** (params.p - 2.0) / _gamma(params.q)
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
