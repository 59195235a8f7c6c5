"""Figure functions, bisection thresholds, positivity scans."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselgeom import (
    FIGURES,
    DomainError,
    NoBracketError,
    SingularityError,
    figure_eval,
    find_all_thresholds,
    find_threshold,
    positivity_scan,
    thresholds,
)
from besselgeom.cli import POSITIVITY_HIGH, POSITIVITY_MARGIN, POSITIVITY_STEP, main

# Frozen roots at tol = 1e-12 (bisection against the exact displays).
ROOTS = {
    1: -1.5314447497839863,
    3: -2.0314447497839874,
    4: -1.5254271938996682,
    5: 3.8522583142788784,
    6: -2.0254271938996684,
}
QUOTED = {1: -1.5314, 3: -2.0314, 4: -1.5254, 5: 3.8523, 6: -2.0254}
LEFT_ROOTS = {1: -3.9663567216839883, 4: -6.228212167411693}
ROOT_COUNTS = {1: 2, 2: 0, 3: 2, 4: 2, 5: 1, 6: 2}


def test_frozen_point_values():
    assert figure_eval(1, 0.0) == pytest.approx(3.0 * math.exp(0.5) - 1.0, rel=1e-15)
    assert figure_eval(1, 0.0) == pytest.approx(3.9461638121003846, rel=1e-14)
    assert figure_eval(4, -1.0) == pytest.approx(math.e + 1.0, rel=1e-15)
    assert figure_eval(4, -1.0) == pytest.approx(3.718281828459045, rel=1e-14)


def test_figure_eval_domain():
    with pytest.raises(DomainError):
        figure_eval(0, 1.0)
    with pytest.raises(DomainError):
        figure_eval(7, 1.0)
    with pytest.raises(DomainError):
        figure_eval(1, math.inf)
    with pytest.raises(SingularityError):
        figure_eval(1, -2.0)
    with pytest.raises(SingularityError):
        figure_eval(3, -2.5)


def test_near_singularity_saturates():
    # approaching the essential singularity from the right overflows exp;
    # the value saturates to +/- infinity instead of raising
    assert math.isinf(figure_eval(1, -2.0 + 1e-14))


def test_rightmost_roots_frozen():
    for fid, want in ROOTS.items():
        root = find_threshold(fid, tol=1e-12)
        assert abs(root.x0 - want) < 5e-12
        assert abs(root.x0 - QUOTED[fid]) < 1e-3


def test_left_roots_and_counts():
    for fid, count in ROOT_COUNTS.items():
        if fid == 2:
            assert find_all_thresholds(fid) == []
            continue
        roots = find_all_thresholds(fid, tol=1e-12)
        assert len(roots) == count
        assert [r.x0 for r in roots] == sorted(r.x0 for r in roots)
    for fid, want in LEFT_ROOTS.items():
        assert abs(find_all_thresholds(fid, tol=1e-12)[0].x0 - want) < 5e-12


def test_no_bracket_for_figure2():
    with pytest.raises(NoBracketError):
        find_threshold(2)


def test_root_result_invariants():
    tol = 1e-10
    root = find_threshold(1, tol=tol)
    a, b = root.bracket
    assert b - a <= 2.0 * tol
    assert figure_eval(1, a) * figure_eval(1, b) <= 0.0
    assert root.residual == abs(figure_eval(1, root.x0))
    assert root.iterations > 0


def test_tol_domain():
    with pytest.raises(DomainError):
        find_threshold(1, tol=0.0)
    with pytest.raises(DomainError):
        find_all_thresholds(1, tol=-1e-9)
    for tol in (math.nan, math.inf):  # NaN passes tol <= 0; inf stops bisection at once
        with pytest.raises(DomainError):
            find_all_thresholds(1, tol=tol)


def test_positivity_scan_examples():
    assert positivity_scan(1, -1.5, 50.0, 0.01) == []
    assert positivity_scan(2, -1.999, 50.0, 0.01) == []
    brackets = positivity_scan(5, -1.9, 4.0, 0.01)
    assert brackets
    assert any(a <= ROOTS[5] <= b for a, b in brackets)


def test_positivity_scan_domain():
    with pytest.raises(DomainError):
        positivity_scan(1, -2.5, 10.0, 0.01)  # starts left of the singularity
    with pytest.raises(DomainError):
        positivity_scan(1, -1.5, 10.0, 0.0)
    assert positivity_scan(1, 5.0, 1.0, 0.01) == []  # empty range


@pytest.mark.parametrize("high,step", [(math.inf, 0.1), (10.0, math.nan), (1e7, 1.0)])
def test_positivity_scan_unbounded_grid(high, step):
    # a non-finite grid, or one of more than 1,000,000 points, is refused
    # before anything is allocated
    with pytest.raises(DomainError):
        positivity_scan(1, -1.0, high, step)


def test_scaling_identities():
    # the spherical displays are fixed multiples of the first-kind displays
    # shifted by one half
    for x in (-1.8, -0.3, 1.0, 4.7, 20.0):
        assert figure_eval(3, x - 0.5) == pytest.approx(2.0 * figure_eval(1, x), rel=1e-12)
        assert figure_eval(6, x - 0.5) == pytest.approx(4.0 * figure_eval(4, x), rel=1e-12)


def test_labels_cover_six_figures():
    assert sorted(FIGURES) == [1, 2, 3, 4, 5, 6]
    assert {FIGURES[i].singularity for i in (1, 2, 4, 5)} == {-2.0}
    assert {FIGURES[i].singularity for i in (3, 6)} == {-2.5}
    assert len({FIGURES[i].label for i in FIGURES}) == 6


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-1.99, 60.0))
def test_figures_finite_right_of_singularity(x):
    for fid in (1, 2, 4, 5):
        assert math.isfinite(figure_eval(fid, x))


# ---------------------------------------------------------------------------
# the array sign scan against a scalar scan, one call per point (the oracle)


def scalar_sign_changes(func, low, high, step):
    """The scalar sign scan: one func call per grid point (the oracle)."""
    out = []
    n = int(math.floor((high - low) / step + 1e-9))
    xs = [low + i * step for i in range(n + 1)]
    if xs[-1] < high:
        xs.append(high)
    fa = func(xs[0])
    for a, b in zip(xs, xs[1:]):
        fb = func(b)
        if fa * fb < 0.0 or fb == 0.0:
            out.append((a, b))
        fa = fb
    return out


def _windows(spec):
    """The two threshold search windows and the CLI's positivity window."""
    s = spec.singularity
    return [
        (s - thresholds.WINDOW, s - thresholds.SING_MARGIN, thresholds.SCAN_STEP),
        (s + thresholds.SING_MARGIN, s + thresholds.WINDOW, thresholds.SCAN_STEP),
        (s + POSITIVITY_MARGIN, POSITIVITY_HIGH, POSITIVITY_STEP),
    ]


def _grid(low, high, step):
    n = int(math.floor((high - low) / step + 1e-9))
    xs = [low + i * step for i in range(n + 1)]
    return xs + [high] if xs[-1] < high else xs


def _assert_bit_equal(func, xs):
    with np.errstate(over="ignore", invalid="ignore"):
        got = func(np.array(xs))
    want = np.array([func(x) for x in xs])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fid", sorted(FIGURES))
def test_array_g_bit_equal_on_every_window_point(fid):
    spec = FIGURES[fid]
    for low, high, step in _windows(spec):
        _assert_bit_equal(spec.func, _grid(low, high, step))


@pytest.mark.parametrize("fid", sorted(FIGURES))
def test_array_g_bit_equal_next_to_singularity(fid):
    # right of the singularity exp overflows (the scalar _exp saturates to
    # inf); left of it exp underflows to 0; both sides of the 709.78 edge
    s = FIGURES[fid].singularity
    offsets = [10.0 ** -k for k in range(1, 16)]
    offsets += [1.0 / t for t in (708.9, 709.0, 709.1, 709.78, 709.79, 710.0, 1e4)]
    xs = [s + d for d in offsets] + [s - d for d in offsets]
    _assert_bit_equal(FIGURES[fid].func, xs)
    assert any(math.isinf(FIGURES[fid].func(x)) for x in xs)


def test_array_exp_saturates_where_scalar_does():
    ts = [-1e6, -745.2, 0.0, 1.0, 708.9, 709.0, 709.78, 709.7827128933840,
          709.7827128933841, 709.79, 710.0, 1e6, math.inf, -math.inf]
    got = thresholds._exp(np.array(ts))
    want = np.array([thresholds._exp(t) for t in ts])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert math.isinf(got[-3]) and got[-1] == 0.0


@pytest.mark.parametrize("fid", sorted(FIGURES))
def test_brackets_equal_scalar_scan(fid):
    spec = FIGURES[fid]
    for low, high, step in _windows(spec):
        assert thresholds._sign_changes(spec.func, low, high, step) == (
            scalar_sign_changes(spec.func, low, high, step))


@settings(max_examples=40, deadline=None)
@given(
    fid=st.sampled_from(sorted(FIGURES)),
    left=st.booleans(),
    gap=st.floats(1e-9, 50.0),
    width=st.floats(0.0, 40.0),
    step=st.floats(2e-3, 5.0),
)
def test_brackets_equal_scalar_scan_drawn(fid, left, gap, width, step):
    # a window on one side of the singularity, as the searches use
    spec = FIGURES[fid]
    s = spec.singularity
    low, high = (s - gap - width, s - gap) if left else (s + gap, s + gap + width)
    if not low < high:
        return
    assert thresholds._sign_changes(spec.func, low, high, step) == (
        scalar_sign_changes(spec.func, low, high, step))


def test_brackets_equal_scalar_scan_with_exact_zeros():
    # zeros on grid points: a bracket ends at each, none starts there
    def func(x):
        return (x - 1.0) * (x - 1.5) * (x + 0.25)

    for low, high, step in [(-1.0, 2.0, 0.25), (-1.0, 2.1, 0.25), (1.0, 1.5, 0.5)]:
        got = thresholds._sign_changes(func, low, high, step)
        assert got == scalar_sign_changes(func, low, high, step)
    assert thresholds._sign_changes(func, -1.0, 2.0, 0.25) == [
        (-0.5, -0.25), (0.75, 1.0), (1.25, 1.5)]
    # a sign change inside the short last interval, which ends at high
    assert thresholds._sign_changes(lambda x: x - 1.55, -1.0, 1.6, 0.25) == [(1.5, 1.6)]


def test_threshold_json_unchanged_through_counting_passthrough(capsys, monkeypatch):
    # a traced run swaps each figure for a copy whose func counts its calls;
    # the scan must go through spec.func, never find figures by identity
    def outputs():
        out = {}
        for fid in sorted(FIGURES):
            assert main(["threshold", "--figure", str(fid)]) == 0
            out[fid] = capsys.readouterr().out
        return out

    plain = outputs()
    calls = dict.fromkeys(FIGURES, 0)

    def counting(fid, func):
        def count(*args):
            calls[fid] += 1
            return func(*args)
        return count

    for fid, spec in list(FIGURES.items()):
        monkeypatch.setitem(FIGURES, fid, dataclasses.replace(spec, func=counting(fid, spec.func)))
    assert outputs() == plain
    assert all(n > 0 for n in calls.values())
