"""Auxiliary threshold functions and their critical points.

Six real functions g_1 .. g_6 mark, as a function of the order x, where the
beta = 1, alpha = 0 specialized conditions change sign.  Each g_i equals the
corresponding *_BETA1 condition value at alpha = 0 and order x, cleared of a
positive factor:

    id  kind / class                 cleared factor        singularity
    1   first-kind / starlike        1                     x = -2
    2   modified   / starlike        1                     x = -2
    3   spherical  / starlike        1                     x = -5/2
    4   first-kind / convex          (x+1)(x+2)            x = -2
    5   modified   / convex          (x+1)(x+2)            x = -2
    6   spherical  / convex          (2x+3)(2x+5)          x = -5/2

The largest zero x0 of g_i is the threshold order: g_i > 0 (hence the
condition holds) for all x > x0.  Roots are located by scanning both sides
of the essential singularity for sign changes and bisecting each bracket;
the right-most root is the reported threshold.  Function 2 has no root at
all: it is positive everywhere right of its singularity and negative
everywhere left of it (g_2(-10) = -9.06), so its only sign change is the
jump at x = -2.

Near the singularity the exponential factor overflows; evaluations then
return +/-inf with the correct sign rather than raising.

Each g_i takes a float, a float64 array or an _Interval, and the
exponential as an optional second argument.  The sign scans decide signs a
grid cell at a time ("exclusion by subdivision"; Rump, Acta Numerica 19,
2010): one call g(_Interval(...), _interval_exp) encloses both halves of a
cell, on an interval type whose every endpoint is the IEEE operation the
scalar path performs on one float.  Round-to-nearest + - * / are monotone,
and _interval_exp widens math.exp (faithful, not proven monotone) by 4 to 8
ulps and an absolute 2**-1000 for subnormal results, so an enclosure holds
g's float value at every grid point of its half.  A half whose enclosure
has one strict sign takes that sign at all its points; any other half (a
NaN end from 0 * inf or inf - inf, or ends on both sides of 0) is a cell
again.  Cells of at most _CELL_POINTS points are evaluated point by point
with g(x), the scalar path.  Brackets come from the signs alone, so a
product of neighbours that underflows cannot hide a change, and they equal
those of a scalar scan of every point.  The enclosures certify the float
path, not the real-valued g_i.  Bisection stays scalar, so roots, brackets
and residuals keep their bits.

figure_table returns the float64 (n, 2) array of columns [x, g], which the
cli writes chunk by chunk.  Its values are printed, so it evaluates on the
exact array path, whose values are bit-equal to the scalar ones: that
exponential maps math.exp over the entries (_entrywise; np.exp differs from
it by an ulp at some arguments) and saturates exactly where the scalar one
does, and every other operation is an elementwise IEEE + - * / in the
scalar order.  The corollary audit of the conditions module uses the same map.

numpy is imported inside the functions that build or receive arrays
(sample_grid, figure_table, the array branches of _entrywise and _exp), not
at module level, so that importing the package, evaluating single points
(figure_eval) and the threshold searches and positivity scans never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, NoBracketError, SingularityError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-10
SCAN_STEP = 0.01
WINDOW = 100.0
SING_MARGIN = 1e-6

# Largest number of points sample_grid builds.
MAX_GRID_POINTS = 1_000_000

# figure_eval refuses, and figure_table drops, samples closer than this to the
# singularity.
SINGULAR_SKIP = 1e-12

# Largest |x| figure_eval and sample_grid accept.  Every g_i is finite up to
# it; the polynomial parts of the quadratic ones overflow near 4.7e153, where
# A*E - B turns into inf - inf.
MAX_ABS_X = 1e150


# Below this exponent math.exp cannot overflow binary64 (log of the largest
# double is 709.78).
_EXP_SAFE = 709.0


def _entrywise(fn, t):
    """fn(t) at a float t; at a float64 array, fn mapped over its entries.

    Each entry is bit-equal to fn at that float, which np.exp is not: it
    differs from math.exp by an ulp at some arguments.  A float, the case of
    every single point, costs one type test and never loads numpy.  An
    entry at which fn overflows raises DomainError rather than fn's
    OverflowError, which a caller's scalar branch would read as the value of
    the whole array.
    """
    if isinstance(t, float):
        return fn(t)
    import numpy as np

    try:
        out = np.fromiter(map(fn, t.ravel().tolist()), float, t.size)
    except OverflowError:
        raise DomainError(f"{fn.__name__} overflows at an entry of an array") from None
    return out.reshape(t.shape)


def _exp(t):
    """exp saturating to +inf instead of raising on overflow.

    An array argument goes through _entrywise, so each entry is bit-equal to
    the scalar result.  Only figure_table passes one; the sign scans enclose
    exp over a cell with _interval_exp instead.  A float, which bisection and
    the scans' point evaluations pass, takes the scalar path without numpy.
    """
    if isinstance(t, float):
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf
    import numpy as np

    out = _entrywise(math.exp, np.minimum(t, _EXP_SAFE))
    big = np.flatnonzero(t > _EXP_SAFE)
    out[big] = [_exp(v) for v in t[big].tolist()]
    return out


class _Interval:
    """Two closed intervals of floats, [lo, hi] and [lo2, hi2], evaluated in lockstep.

    The sign scans enclose the two halves of a grid cell with one call of a
    g_i: the call's cost is mostly per operation, not per interval.  Each
    operation forms every endpoint with the IEEE operation the scalar path
    performs on one float, at the operands' endpoints.  Round-to-nearest
    + - * / are monotone in each operand, so the scalar result at any floats
    of the operands lies between them: a g_i evaluated on
    _Interval(x_i, x_m, x_n, x_j) encloses its float value at every float of
    [x_i, x_m] in [lo, hi] and of [x_n, x_j] in [lo2, hi2].  A NaN endpoint
    (0 * inf, inf - inf, or a divisor interval holding 0) survives every
    later operation and leaves its interval undecided.  Only the operations
    the g_i use are defined: + and - with an interval or a number, * with
    either on either side, and a number divided by an interval.
    """

    __slots__ = ("lo", "hi", "lo2", "hi2")

    def __init__(self, lo: float, hi: float, lo2: float, hi2: float) -> None:
        self.lo, self.hi, self.lo2, self.hi2 = lo, hi, lo2, hi2

    def __add__(self, other):
        iv = _new_object(_Interval)
        if type(other) is _Interval:
            iv.lo, iv.hi = self.lo + other.lo, self.hi + other.hi
            iv.lo2, iv.hi2 = self.lo2 + other.lo2, self.hi2 + other.hi2
        else:
            iv.lo, iv.hi = self.lo + other, self.hi + other
            iv.lo2, iv.hi2 = self.lo2 + other, self.hi2 + other
        return iv

    def __sub__(self, other):
        iv = _new_object(_Interval)
        if type(other) is _Interval:
            iv.lo, iv.hi = self.lo - other.hi, self.hi - other.lo
            iv.lo2, iv.hi2 = self.lo2 - other.hi2, self.hi2 - other.lo2
        else:
            iv.lo, iv.hi = self.lo - other, self.hi - other
            iv.lo2, iv.hi2 = self.lo2 - other, self.hi2 - other
        return iv

    def __rmul__(self, k):
        iv = _new_object(_Interval)
        if k >= 0.0:
            iv.lo, iv.hi, iv.lo2, iv.hi2 = k * self.lo, k * self.hi, k * self.lo2, k * self.hi2
        else:
            iv.lo, iv.hi, iv.lo2, iv.hi2 = k * self.hi, k * self.lo, k * self.hi2, k * self.lo2
        return iv

    def __mul__(self, other):
        if type(other) is not _Interval:
            return self.__rmul__(other)
        iv = _new_object(_Interval)
        if other is self:  # x*x: a square, never below 0
            iv.lo, iv.hi = _square(self.lo, self.hi)
            iv.lo2, iv.hi2 = _square(self.lo2, self.hi2)
        else:
            iv.lo, iv.hi = _product(self.lo, self.hi, other.lo, other.hi)
            iv.lo2, iv.hi2 = _product(self.lo2, self.hi2, other.lo2, other.hi2)
        return iv

    def __rtruediv__(self, k):
        iv = _new_object(_Interval)
        iv.lo, iv.hi = _quotient(k, self.lo, self.hi)
        iv.lo2, iv.hi2 = _quotient(k, self.lo2, self.hi2)
        return iv


_new_object = object.__new__
_INF = math.inf
_NAN = math.nan


def _square(a: float, b: float) -> tuple[float, float]:
    """The ends of [a, b] * [a, b] when both factors are the same float."""
    if a >= 0.0:
        return a * a, b * b
    if b <= 0.0:
        return b * b, a * a
    hi, t = a * a, b * b
    return 0.0, (t if t > hi or t != t else hi)


def _product(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """The ends of [a, b] * [c, d], NaN where a corner is 0 * inf."""
    if a >= 0.0 and c >= 0.0:  # the common case: a positive factor times exp
        lo, hi = a * c, b * d
    elif a >= 0.0:
        lo, hi = (b * c, a * d) if d <= 0.0 else (b * c, b * d)
    elif b <= 0.0:
        if c >= 0.0:
            lo, hi = a * d, b * c
        else:
            lo, hi = (b * d, a * c) if d <= 0.0 else (a * d, a * c)
    elif c >= 0.0:
        lo, hi = a * d, b * d
    elif d <= 0.0:
        lo, hi = b * c, a * c
    else:  # both hold 0 inside: two candidates for each end
        lo, t = a * d, b * c
        if t < lo or t != t:
            lo = t
        hi, t = a * c, b * d
        if t > hi or t != t:
            hi = t
    if hi == _INF or lo == -_INF:  # a corner left out may be 0 * inf
        for corner in (a * c, a * d, b * c, b * d):
            if corner != corner:
                return _NAN, _NAN
    return lo, hi


def _quotient(k: float, a: float, b: float) -> tuple[float, float]:
    """The ends of k / [a, b], NaN where [a, b] holds 0."""
    if not (a > 0.0 or b < 0.0):  # holds 0, or is NaN
        return _NAN, _NAN
    return (k / b, k / a) if k >= 0.0 else (k / a, k / b)


# Relative and absolute widening of math.exp at an interval's endpoints: 4 to
# 8 ulps of a normal result, and 2**-1000 for the subnormal ones.  math.exp
# is faithful (within an ulp) but not proven monotone, so the widened ends
# enclose it at every float between them.
_EXP_SLACK = 2.0 ** -50
_EXP_FLOOR = 2.0 ** -1000


def _exp_down(t: float) -> float:
    try:
        return math.exp(t) * (1.0 - _EXP_SLACK) - _EXP_FLOOR
    except OverflowError:
        return _INF


def _exp_up(t: float) -> float:
    try:
        return math.exp(t) * (1.0 + _EXP_SLACK) + _EXP_FLOOR
    except OverflowError:
        return _INF


def _interval_exp(t: _Interval) -> _Interval:
    """An enclosure of _exp at every float of t, saturating to +inf as _exp does."""
    iv = _new_object(_Interval)
    down, up = 1.0 - _EXP_SLACK, 1.0 + _EXP_SLACK
    try:
        iv.lo, iv.hi = math.exp(t.lo) * down - _EXP_FLOOR, math.exp(t.hi) * up + _EXP_FLOOR
        iv.lo2, iv.hi2 = math.exp(t.lo2) * down - _EXP_FLOOR, math.exp(t.hi2) * up + _EXP_FLOOR
    except OverflowError:  # next to a singularity: saturate end by end
        iv.lo, iv.hi, iv.lo2, iv.hi2 = _exp_down(t.lo), _exp_up(t.hi), _exp_down(t.lo2), _exp_up(t.hi2)
    return iv


def _g1(x, exp=_exp):
    return (2*x + 3) * exp(1/(x + 2)) - (x + 1)


def _g2(x, exp=_exp):
    return (2*x + 3) - exp(1/(x + 2)) * (x + 1)


def _g3(x, exp=_exp):
    return 4*(x + 2) * exp(2/(2*x + 5)) - (2*x + 3)


def _g4(x, exp=_exp):
    return (2*x*x + 7*x + 6) * exp(1/(x + 2)) - (x*x + x - 1)


def _g5(x, exp=_exp):
    return (2*x*x + 7*x + 6) - (x*x + 7*x + 11) * exp(1/(x + 2))


def _g6(x, exp=_exp):
    return (8*x*x + 36*x + 40) * exp(2/(2*x + 5)) - (4*x*x + 8*x - 1)


@dataclass(frozen=True)
class FigureSpec:
    """The singularity, label and evaluator of one g_i; its figure id is its key in FIGURES."""

    singularity: float
    label: str
    func: Callable  # (x, exp=_exp): float, float64 array or _Interval in, the same kind out


FIGURES: dict[int, FigureSpec] = {
    1: FigureSpec(-2.0, "first-kind starlike threshold function", _g1),
    2: FigureSpec(-2.0, "modified starlike threshold function", _g2),
    3: FigureSpec(-2.5, "spherical starlike threshold function", _g3),
    4: FigureSpec(-2.0, "first-kind convex threshold function", _g4),
    5: FigureSpec(-2.0, "modified convex threshold function", _g5),
    6: FigureSpec(-2.5, "spherical convex threshold function", _g6),
}


@dataclass(frozen=True)
class RootResult:
    """A bisection-located zero with its final bracket and residual."""

    x0: float
    bracket: tuple[float, float]
    iterations: int
    residual: float


def _spec(fig_id: int) -> FigureSpec:
    spec = FIGURES.get(fig_id)
    if spec is None:
        raise DomainError(f"figure id must be in 1..6, got {fig_id!r}")
    return spec


def figure_eval(fig_id: int, x: float) -> float:
    """Evaluate g_{fig_id}(x) for |x| <= MAX_ABS_X.  Both sides of the singularity are legal.

    An x within SINGULAR_SKIP of the singularity raises SingularityError:
    figure_table drops the same samples, and a few ulps right of it the
    quadratic g_4 and g_6 read 0 * inf.
    """
    spec = _spec(fig_id)
    if not abs(x) <= MAX_ABS_X:
        raise DomainError(f"x must be finite with |x| <= {MAX_ABS_X:g}, got {x!r}")
    if abs(x - spec.singularity) < SINGULAR_SKIP:
        raise SingularityError(
            f"figure {fig_id} has an essential singularity at x = {spec.singularity}; "
            f"x = {x!r} lies within {SINGULAR_SKIP:g} of it"
        )
    return spec.func(x)


def _grid_size(low: float, high: float, step: float) -> int:
    """The n of the grid low + i * step, i = 0 .. n: floor((high - low) / step + 1e-9).

    Raises DomainError unless low < high lie within MAX_ABS_X in modulus,
    step > 0 is finite and the grid has at most MAX_GRID_POINTS points.
    """
    for name, v in (("low", low), ("high", high)):
        if not abs(v) <= MAX_ABS_X:
            raise DomainError(f"x must be finite with |x| <= {MAX_ABS_X:g}, got {name} = {v!r}")
    if not math.isfinite(step):
        raise DomainError(f"step must be finite, got {step!r}")
    if low >= high:
        raise DomainError(f"empty range: low {low!r} >= high {high!r}")
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    span = (high - low) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also catches a quotient overflowing to inf
        raise DomainError(
            f"grid of step {step!r} on [{low!r}, {high!r}] has more than "
            f"{MAX_GRID_POINTS} points"
        )
    return math.floor(span)


def sample_grid(low: float, high: float, step: float) -> np.ndarray:
    """The float64 grid low + i * step, i = 0 .. n, with n = _grid_size(low, high, step).

    Raises _grid_size's DomainError before allocating anything.
    """
    n = _grid_size(low, high, step)
    import numpy as np

    return low + np.arange(n + 1) * step  # the IEEE operations of low + i * step


def figure_table(fig_id: int, low: float, high: float, step: float) -> np.ndarray:
    """The float64 (n, 2) array of columns [x, g(x)] on sample_grid(low, high, step), in grid order.

    A sample within SINGULAR_SKIP of the singularity is dropped instead of
    aborting the table, and a value that overflows saturates to +/-inf, as a
    float evaluation does.
    """
    import numpy as np

    spec = _spec(fig_id)
    xs = sample_grid(low, high, step)
    xs = xs[~(np.abs(xs - spec.singularity) < SINGULAR_SKIP)]
    with np.errstate(over="ignore", invalid="ignore"):
        gs = spec.func(xs)
    return np.column_stack((xs, gs))


# A cell of at most this many grid points is evaluated point by point: one
# call of a g_i enclosing two halves costs about as much as 12 to 20 scalar
# calls of it.
_CELL_POINTS = 16


def _sign_changes(
    func: Callable, low: float, high: float, step: float
) -> list[tuple[float, float]]:
    """Brackets [x, x+step] on which func changes sign (or hits 0 at x+step).

    The points are low + i * step, i = 0 .. n (n from _grid_size), and high
    when the last of them falls short of it.  The scan bisects index ranges,
    cells.  A cell of at most _CELL_POINTS points is evaluated point by point
    with func(x).  A larger cell is split in two, and both halves are
    enclosed by one call, func(_Interval(x_i, x_m, x_(m+1), x_j),
    _interval_exp): a half whose enclosure has one strict sign takes it at
    all its points, and any other half is a cell again.  When a half's
    enclosure reaches past 0 by more than a quarter of its width on each
    side, its own halves are not enclosed but split at once: their
    enclosures, about half as wide, would straddle 0 too.  Brackets come
    from the signs alone, as in a scan of func(x) at every point: a bracket
    ends at each point whose value is 0 or whose sign is opposite to its
    left neighbour's, and a NaN never brackets.
    """
    n = _grid_size(low, high, step)
    last = n + 1 if low + n * step < high else n
    out = []
    fa = xa = None
    cells = [(0, last, 0.0, False)]  # (i, j, sign if its enclosure decided it, else 0, deep)
    while cells:
        i, j, sign, deep = cells.pop()
        xi = low + i * step
        if sign:
            if i and (fa < 0.0 < sign or sign < 0.0 < fa):
                out.append((xa, xi))
            fa, xa = sign, (low + j * step if j <= n else high)
            continue
        if j - i < _CELL_POINTS:
            for k in range(i, j + 1):
                xb = low + k * step if k <= n else high
                fb = func(xb)
                if k and (fa < 0.0 < fb or fb < 0.0 < fa or fb == 0.0):
                    out.append((xa, xb))
                fa, xa = fb, xb
            continue
        m = (i + j) // 2
        if deep:
            cells += ((m + 1, j, 0.0, False), (i, m, 0.0, False))
            continue
        xj = low + j * step if j <= n else high
        g = func(_Interval(xi, low + m * step, low + (m + 1) * step if m < n else high, xj),
                 _interval_exp)
        for a, b, lo, hi in ((m + 1, j, g.lo2, g.hi2), (i, m, g.lo, g.hi)):
            sign = 1.0 if 0.0 < lo <= hi else -1.0 if lo <= hi < 0.0 else 0.0
            cells.append((a, b, sign, not 4.0 * min(-lo, hi) < hi - lo))
    return out


def positivity_scan(
    fig_id: int, low: float, high: float, step: float
) -> list[tuple[float, float]]:
    """Every grid interval on which g changes sign; empty means none at this resolution."""
    spec = _spec(fig_id)
    if not low > spec.singularity:
        raise DomainError(
            f"scan must start right of the singularity {spec.singularity}, got low = {low!r}"
        )
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if low >= high:
        return []
    return _sign_changes(spec.func, low, high, step)


def _bisect(func: Callable[[float], float], a: float, b: float, tol: float) -> RootResult:
    fa = func(a)
    iterations = 0
    while (b - a) / 2.0 > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent doubles: no midpoint is left
            break
        fm = func(mid)
        iterations += 1
        if fm == 0.0:
            a = b = mid
            break
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    x0 = 0.5 * (a + b)
    return RootResult(x0, (a, b), iterations, abs(func(x0)))


def find_all_thresholds(fig_id: int, tol: float = DEFAULT_TOL) -> list[RootResult]:
    """All sign-change roots in the windows singularity +/- [1e-6, 100], ascending."""
    spec = _spec(fig_id)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    s = spec.singularity
    brackets = _sign_changes(spec.func, s - WINDOW, s - SING_MARGIN, SCAN_STEP)
    brackets += _sign_changes(spec.func, s + SING_MARGIN, s + WINDOW, SCAN_STEP)
    return [_bisect(spec.func, a, b, tol) for a, b in brackets]


def find_threshold(fig_id: int) -> RootResult:
    """The right-most root (the threshold beyond which g stays positive), at DEFAULT_TOL.

    For another tolerance take find_all_thresholds(fig_id, tol)[-1].  Raises
    NoBracketError when no sign change exists in the searched windows, as
    happens for figure 2.
    """
    roots = find_all_thresholds(fig_id)
    if not roots:
        spec = _spec(fig_id)
        raise NoBracketError(
            f"figure {fig_id} has no sign change within {WINDOW} of {spec.singularity}"
        )
    return roots[-1]
