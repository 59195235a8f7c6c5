"""Unit-disk verdicts: the exact sup of the quotient, from one real point.

Both classes are one inequality.  For f analytic with f(0) = 0, f'(0) = 1,
let n = z f'(z) / f(z) - 1; f is in S*(alpha, beta) when

    | n / (n + 2 (1 - alpha)) |  <  beta

at every z in the open unit disk, and u is in K(alpha, beta) exactly when
z u' is in S*(alpha, beta).  So the starlike check takes f = u and the
convex check f = z u'.  _sup is the only evaluator of the quotient's
supremum, from the n that _lane_n computes once per order; sup_estimates and
sup_estimate apply it to classes.  All return the bare sup: its point is
always z = sign(c), and beta only moves the verdict.

The real-axis theorem (q > 0).  u(z) = z F_q(-c z) with F_q = 0F1(;q;.).
For q > 0 every zero of F_q is real and negative (Hurwitz; Watson, Treatise
on the Theory of Bessel Functions, 15.25), so u is in the Laguerre-Polya
class and the zeros z_k of f / z, for f = u and for f = z u' alike, lie on
the ray sign(c) (0, oo); those of u' interlace with those of u, one below
the first and one in each gap.  Then n = sum_k z / (z - z_k).  When every
|z_k| > 1, each term maps the unit disk onto the disk with real diameter
[-1 / (|z_k| - 1), 1 / (|z_k| + 1)], its left end taken at z = sign(c), so
n maps it into the disk with real diameter [-A, B], A >= B, and
n(sign c) = -A.  The sets |w / (w + 2 (1 - alpha))| <= t (t < 1) are disks
on the real axis that reach further right of 0 than left, so [-A, B] lies
in the one whose left end is -A.  So the sup of the quotient over the
disk is decided by one real point:

    sup = oo                        if f / z has a zero in the closed disk
                                    or n(sign c) + 2 (1 - alpha) <= 0,
    sup = |n / (n + 2 (1 - alpha))|  at z = sign(c) otherwise,

the r -> 1 limit of the value at z = sign(c) r.  A zero of f / z, or a root
of n + 2 (1 - alpha) on the segment from 0 to sign(c), where n falls from
0, is a pole of the quotient in the closed disk, so oo is the exact sup
there.  The sup depends on (params, alpha, which) alone, and comparing it
with beta decides the class for every beta in (0, 1]: f is in the class
exactly when sup <= beta.  The tie is a member, since the class asks for a
strict inequality on the open disk: for c != 0, n falls strictly along the
segment, so the value at z = sign(c) r rises strictly with r and reaches
the sup only as r -> 1; for c = 0, f = z and the sup is 0.  For q <= 0,
F_q can have complex zeros and the theorem does not apply: the disk layer
refuses such q with DomainError.

The real point is one continued fraction.  With x = -|c| and r_m =
F_(q+m+1)(x) / F_(q+m)(x), the contiguous relation of 0F1 gives the
backward recurrence

    r_m = 1 / d_m,   d_m = 1 + x / ((q + m) (q + m + 1)) r_(m+1),

stable for this minimal solution (Gautschi, SIAM Review 9, 1967).  Its
depth is certified, not guessed: once |x| / ((q + m) (q + m + 1)) <= 1/4
(from m = M on) Worpitzky's theorem keeps every r_m in [2/3, 2], a change
of r_(m+1) moves r_m by at most 4 |x| / ((q + m) (q + m + 1)) times as
much, and starting from r_N = 1 leaves r_M within CF_EPS of its value.
Each d_m is F_(q+m)(x) / F_(q+m+1)(x), and the number of negative d_m is
the number of zeros of F_q(-y) for 0 < y < |c| (a Sturm sequence), that is
of u / z on the open segment from 0 to sign(c).  From r = r_0 and r_1:

    starlike  n = x r / q,
    convex    n = z u'' / u' = x r (2 + x r_1 / (q + 1)) / (q + x r),

where q + x r = q u'(sign c) / F_q(x).  f / z has no zero in the closed
disk exactly when no d_m is negative and, for the convex lane, q + x r > 0
as well (u' > 0 at sign(c), by the interlacing); a zero of u at sign(c)
itself makes d_0 = 0, r = oo and n = -oo.

The package uses these verdicts as the ground-truth end of the implication
chain: whenever a coefficient criterion holds, the sup must not exceed
beta.
"""

from __future__ import annotations

import math
from typing import Sequence

from .bessel import MAX_TERMS, BesselParams
from .criteria import ClassSpec, QuotientKind
from .errors import DomainError, NoConvergenceError

# Certified error of the continued fraction's r_M: an eighth of an ulp of
# r_M, which lies in [2/3, 2] (see the module docstring).
CF_EPS = 2.0 ** -56


def _fraction(q: float, s: float) -> tuple[float, float, int]:
    """(r_0, r_1, zeros) of the continued fraction at x = -s, for q > 0, s >= 0.

    r_m = F_(q+m+1)(-s) / F_(q+m)(-s); zeros is the number of negative
    denominators d_m, which is the number of zeros of F_q(-y) for
    0 < y < s.  The depth N is the first level past the Worpitzky index M
    at which the product of 4 s / ((q + m) (q + m + 1)), m = M .. N - 1,
    the bound on the error that r_N = 1 leaves in r_M, falls below CF_EPS;
    raises NoConvergenceError when N would exceed MAX_TERMS.  A zero d_m
    (F_(q+m) vanishing at -s) gives r_m = inf rather than raising.
    """
    depth, bound = 0, 1.0
    while bound > CF_EPS:
        a = s / ((q + depth) * (q + depth + 1.0))
        if a <= 0.25:  # from here on, since a falls with m
            bound *= 4.0 * a
        depth += 1
        if depth > MAX_TERMS:
            raise NoConvergenceError(
                f"continued fraction for |c| = {s!r} needs more than {MAX_TERMS} levels"
            )
    r = r1 = 1.0
    zeros = 0
    for m in range(depth - 1, -1, -1):
        d = 1.0 - s / ((q + m) * (q + m + 1.0)) * r
        zeros += d < 0.0
        r1, r = r, (1.0 / d if d else math.inf)
    return r, r1, zeros


def _real_axis(q: float, s: float, which: QuotientKind) -> float:
    """n = z f'/f - 1 of the lane at z = sign(c), where |c| = s.

    -inf when f / z has a zero in the closed disk.
    """
    x = -s
    r, r1, zeros = _fraction(q, s)
    den = q + x * r  # q u'(sign c) / F_q(x)
    if zeros or (which is QuotientKind.CONVEX and not den > 0.0):
        return -math.inf
    if which is QuotientKind.STARLIKE:
        return x * r / q
    return x * r * (2.0 + x * r1 / (q + 1.0)) / den


def _lane_n(params: BesselParams, which: QuotientKind) -> float:
    """n of _real_axis, the part of sup_estimates that no class enters; raises as it does."""
    if not isinstance(which, QuotientKind):
        raise DomainError(f"which must be a QuotientKind, got {which!r}")
    q = params.q
    if not q > 0.0:
        raise DomainError(f"the disk layer requires q > 0, got q = {q!r}")
    return _real_axis(q, abs(params.c), which)


def _sup(n: float, alpha: float) -> float:
    """The sup of the class of order alpha, from the n of _lane_n."""
    den = n + 2.0 * (1.0 - alpha)
    # den <= 0: a pole of the quotient in the closed disk, whatever beta
    return abs(n / den) if den > 0.0 else math.inf


def sup_estimates(
    params: BesselParams, classes: Sequence[ClassSpec], which: QuotientKind
) -> list[float]:
    """Exact sup of the chosen quotient over the unit disk, for several classes.

    One continued fraction at z = sign(c) decides every class: a pole of the
    quotient in the closed disk (a zero of f / z, or n + 2 (1 - alpha) <= 0
    there) gives sup = inf, and otherwise the sup is |n / (n + 2 (1 - alpha))|
    at that point, whatever beta (see the module docstring).  A class holds
    exactly when its sup <= beta.  Raises DomainError for a which that is not
    a QuotientKind, and for q <= 0, where the theorem does not hold.
    """
    n = _lane_n(params, which)
    return [_sup(n, cls.alpha) for cls in classes]


def sup_estimate(params: BesselParams, cls: ClassSpec, which: QuotientKind) -> float:
    """Exact sup of the chosen quotient for one class; see sup_estimates."""
    return sup_estimates(params, [cls], which)[0]
