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

Each g_i takes a float or a float64 array, and the exponential as an
optional second argument.  The sign scans decide every grid point's sign
from two array calls, g(xs, _exp_below) and g(xs, _exp_above).  These shift
np.exp down and up by a relative _EXP_SLACK = 2**-40, some 4,000 ulps (np.exp
and math.exp differ by at most an ulp on the scanned grids), and by an
absolute 2**-1000 that covers subnormal results, so they enclose math.exp.
Each g_i is A*E - B or B - E*A with one product by E = exp(t), and A, B and
t are the same operations in both calls.  IEEE round-to-nearest * and - are
monotone, so the exact value g(math.exp(t)) lies between the two results.
Where both are finite and of the same strict sign, that is the exact sign.
Every other point (non-finite, zero, or results on both sides of 0) is
evaluated exactly by the scalar path, func(float(x)): about one point per
window, the overflow next to the singularity.  Brackets come from the signs
alone, so a product of neighbours that underflows cannot hide a change.
Bisection stays scalar, so roots, brackets and residuals keep their bits.

figure_table prints its values, so it evaluates on the exact array path,
whose values are bit-equal to the scalar ones: that exponential maps
math.exp over the entries (np.exp differs from it by an ulp at some
arguments) and saturates exactly where the scalar one does, and every other
operation is an elementwise IEEE + - * / in the scalar order.

This is the package's one numpy module.  numpy is imported inside the
functions that build arrays (sample_grid, _sign_changes, figure_table), not
at module level, so that importing the package and evaluating single points
(figure_eval) never load it.
"""

from __future__ import annotations

import math
import sys
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

# figure_table drops samples closer than this to the singularity.
SINGULAR_SKIP = 1e-12


# Below this exponent math.exp cannot overflow binary64 (log of the largest
# double is 709.78).
_EXP_SAFE = 709.0


def _exp(t):
    """exp saturating to +inf instead of raising on overflow.

    An array argument is mapped entrywise through math.exp, so each entry is
    bit-equal to the scalar result.  Only figure_table passes one; the sign
    scans enclose exp between _exp_below and _exp_above instead.  numpy is
    looked up in sys.modules, not imported: before it is loaded no argument
    can be an array, and a number (bisection passes one on every evaluation)
    takes the scalar path without loading it.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(t, np.ndarray):
        out = np.fromiter(map(math.exp, np.minimum(t, _EXP_SAFE).tolist()), float, t.size)
        big = np.flatnonzero(t > _EXP_SAFE)
        out[big] = [_exp(v) for v in t[big].tolist()]
        return out
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


# Relative and absolute slack of the scans' enclosure of math.exp by np.exp.
_EXP_SLACK = 2.0 ** -40
_EXP_FLOOR = 2.0 ** -1000


def _exp_below(t):
    """A lower bound of math.exp over a float64 array."""
    import numpy as np

    return np.exp(t) * (1.0 - _EXP_SLACK) - _EXP_FLOOR


def _exp_above(t):
    """An upper bound of math.exp over a float64 array."""
    import numpy as np

    return np.exp(t) * (1.0 + _EXP_SLACK) + _EXP_FLOOR


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
    func: Callable  # (x, exp=_exp): float -> float, and float64 array -> float64 array


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
    """Evaluate g_{fig_id}(x).  Both sides of the singularity are legal."""
    spec = _spec(fig_id)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x == spec.singularity:
        raise SingularityError(
            f"figure {fig_id} has an essential singularity at x = {spec.singularity}"
        )
    return spec.func(x)


def sample_grid(low: float, high: float, step: float) -> np.ndarray:
    """The grid low + i * step, i = 0 .. n, with n = floor((high - low) / step + 1e-9).

    Raises DomainError, before allocating anything, unless low < high and
    step > 0 are finite and the grid has at most MAX_GRID_POINTS points;
    and when the last point rounds past the largest double.
    """
    for name, v in (("low", low), ("high", high), ("step", step)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    if low >= high:
        raise DomainError(f"empty range: low {low!r} >= high {high!r}")
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    span = (high - low) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also catches high - low overflowing to inf
        raise DomainError(
            f"grid of step {step!r} on [{low!r}, {high!r}] has more than "
            f"{MAX_GRID_POINTS} points"
        )
    import numpy as np

    with np.errstate(over="ignore"):
        xs = low + np.arange(math.floor(span) + 1) * step  # the IEEE operations of low + i * step
    if not math.isfinite(xs[-1]):
        raise DomainError(f"x must be finite, got {float(xs[-1])!r}")
    return xs


def figure_table(fig_id: int, low: float, high: float, step: float) -> list[tuple[float, float]]:
    """The pairs (x, g(x)) on sample_grid(low, high, step), in grid order.

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
    return list(zip(xs.tolist(), gs.tolist()))


def _sign_changes(
    func: Callable, low: float, high: float, step: float
) -> list[tuple[float, float]]:
    """Brackets [x, x+step] on which func changes sign (or hits 0 at x+step).

    func(xs, exp) must enclose the exact func(x) between its values at
    exp = _exp_below and _exp_above; a point they leave undecided is
    evaluated by func(x).
    """
    import numpy as np

    xs = sample_grid(low, high, step)
    if xs[-1] < high:
        xs = np.append(xs, high)
    # floats overflow to +/-inf silently; so does the array path
    with np.errstate(over="ignore", invalid="ignore"):
        lo = func(xs, _exp_below)
        hi = func(xs, _exp_above)
    signs = np.sign(lo)
    decided = np.isfinite(lo) & np.isfinite(hi) & (signs * np.sign(hi) > 0.0)
    for i in np.flatnonzero(~decided).tolist():
        signs[i] = np.sign(func(float(xs[i])))
    hits = np.flatnonzero((signs[:-1] * signs[1:] < 0.0) | (signs[1:] == 0.0))
    return list(zip(xs[hits].tolist(), xs[hits + 1].tolist()))


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


def find_threshold(fig_id: int, tol: float = DEFAULT_TOL) -> RootResult:
    """The right-most root (the threshold beyond which g stays positive).

    Raises NoBracketError when no sign change exists in the searched
    windows, as happens for figure 2.
    """
    roots = find_all_thresholds(fig_id, tol)
    if not roots:
        spec = _spec(fig_id)
        raise NoBracketError(
            f"figure {fig_id} has no sign change within {WINDOW} of {spec.singularity}"
        )
    return roots[-1]
