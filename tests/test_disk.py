"""Unit-disk sampling: quotients, guards, vectorized sup estimates."""

import numpy as np
import pytest

from besselgeom import (
    DEFAULT_GRID,
    BesselParams,
    ClassSpec,
    DiskGrid,
    DomainError,
    NoConvergenceError,
    QuotientKind,
    SupEstimate,
    bessel,
    coefficient,
    eval_u_derivatives,
    starlike_sum,
    sup_estimate,
    disk,
    sup_estimates,
)
from conftest import draw_chain_inputs, ref_u_derivs

CLS01 = ClassSpec(0.0, 1.0)

# Deliberately extreme regression fixture: q = 0.05, c = -5 has a zero of u
# inside the disk and violates the starlike bound on 163 default-grid points.
BAD = BesselParams(-0.95, 1.0, -5.0)
BAD_MAX = 2.6787924754830135
BAD_VIOLATIONS = 163
U_ZERO = -0.010247975388452294  # real zero of u for the BAD parameters


def full_grid_sup_estimates(params, classes, which, grid=DEFAULT_GRID):
    """Reference: the quotient pipeline on every point of grid.points()."""
    zs = grid.points()
    rmax = float(np.max(np.abs(zs)))
    a = np.asarray(
        bessel._coefficients(params.q, -params.c, disk.SERIES_EPS, rmax, bessel._u2_weight)[0]
    )
    ks = np.arange(1, len(a) + 1, dtype=float)
    if which is QuotientKind.STARLIKE:
        first, second = disk._horner(a, zs) * zs, disk._horner(ks * a, zs)
        shifts = [1.0 - 2.0 * cls.alpha for cls in classes]
    else:
        first = disk._horner(ks * a, zs)
        second = disk._horner(ks * (ks - 1.0) * a, zs) / zs
        shifts = [2.0 * (1.0 - cls.alpha) for cls in classes]
    out = []
    with np.errstate(all="ignore"):
        w = zs * second / first
        num = w - 1.0 if which is QuotientKind.STARLIKE else w
        live = np.abs(first) > disk.GUARD
        for shift, cls in zip(shifts, classes):
            den = w + shift
            quot = np.abs(num / den)
            valid = live & (np.abs(den) > disk.GUARD)
            degenerate = int(zs.size - np.count_nonzero(valid))
            if degenerate == zs.size:
                out.append(SupEstimate(0.0, 0j, 0, degenerate))
                continue
            masked = np.where(valid, quot, -1.0)
            idx = int(np.argmax(masked))
            violations = int(np.count_nonzero(masked >= cls.beta))
            out.append(SupEstimate(float(masked[idx]), complex(zs[idx]), violations, degenerate))
    return out


def test_grid_validation():
    with pytest.raises(DomainError):
        DiskGrid(radii=())
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.0, 0.5))
    with pytest.raises(DomainError):
        DiskGrid(radii=(1.0,))
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.5,), angles_per_ring=0)


def test_default_grid_shape():
    grid = DiskGrid()
    pts = grid.points()
    assert len(pts) == 12 * 720
    assert max(abs(pts)) == pytest.approx(0.999, rel=1e-15)
    assert min(abs(pts)) == pytest.approx(0.1, rel=1e-12)


def test_violation_fixture_frozen():
    est = sup_estimate(BAD, CLS01, QuotientKind.STARLIKE)
    assert est.max_quotient == pytest.approx(BAD_MAX, rel=1e-12)
    assert est.violations == BAD_VIOLATIONS
    assert est.degenerate_points == 0
    assert abs(est.argmax_z - complex(-0.5, 0.0)) < 1e-9


def test_degenerate_counted_not_fatal():
    # a two-point ring through the real zero of u: one point trips the
    # guard and is excluded, the other still reports a quotient
    grid = DiskGrid(radii=(-U_ZERO,), angles_per_ring=2)
    est = sup_estimate(BAD, CLS01, QuotientKind.STARLIKE, grid)
    assert est.degenerate_points == 1
    assert est.violations == 0
    assert est.max_quotient == pytest.approx(0.2077952770540287, rel=1e-10)


def ref_quotient(params, z, alpha, kind):
    """The quotient of kind at z from the independent series; None where a guard trips."""
    u, up, upp = ref_u_derivs(params.p, params.b, params.c, z)
    first, second = (u, up) if kind is QuotientKind.STARLIKE else (up, upp)
    if abs(first) <= disk.GUARD:
        return None
    w = z * second / first  # z u'/u or z u''/u'
    if kind is QuotientKind.STARLIKE:
        num, den = w - 1.0, w + 1.0 - 2.0 * alpha
    else:
        num, den = w, w + 2.0 * (1.0 - alpha)
    return abs(num / den) if abs(den) > disk.GUARD else None


def test_vectorized_matches_scalar(rng):
    # the grid evaluator against the reference series, point by point
    grid = DiskGrid(radii=(0.2, 0.6, 0.9), angles_per_ring=16)
    for _ in range(10):
        params, alpha, beta = draw_chain_inputs(rng)
        cls = ClassSpec(alpha, beta)
        for kind in QuotientKind:
            est = sup_estimate(params, cls, kind, grid)
            quots = [ref_quotient(params, complex(z), cls.alpha, kind) for z in grid.points()]
            best = max((x for x in quots if x is not None), default=0.0)
            assert est.max_quotient == pytest.approx(best, rel=1e-10)


def test_certified_draws_have_no_violations(rng):
    # lemma HOLDS must imply zero sampled violations (soundness, spot scale)
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
    est = sup_estimate(BesselParams(10.0, 1.0, -0.1), CLS01, QuotientKind.STARLIKE)
    assert abs(abs(est.argmax_z) - 0.999) < 1e-12
    assert est.violations == 0


def test_sup_estimates_equals_per_class_calls():
    # the shared alpha-independent stage must not change a single bit
    classes = [ClassSpec(a, b) for a in (0.0, 0.3, 0.75, 0.95) for b in (0.2, 0.6, 1.0)]
    small = DiskGrid(radii=(-U_ZERO,), angles_per_ring=2)
    cases = [
        (BAD, DEFAULT_GRID),
        (BAD, small),
        (BesselParams(10.0, 1.0, -0.1), DEFAULT_GRID),
        (BesselParams(1.3, 1.0, -0.7), DEFAULT_GRID),
        (BesselParams(0.5, 2.0, 3.0), DEFAULT_GRID),
    ]
    for params, grid in cases:
        for kind in QuotientKind:
            got = sup_estimates(params, classes, kind, grid)
            assert got == [sup_estimate(params, cls, kind, grid) for cls in classes]
    # the degenerate fixture really exercises the guard on both paths
    assert sup_estimates(BAD, classes, QuotientKind.STARLIKE, small)[0].degenerate_points == 1
    assert sup_estimates(BAD, [], QuotientKind.CONVEX) == []


def test_half_ring_evaluation_matches_full_grid(rng):
    # evaluating half of each ring must give exactly what every point gives
    classes = [ClassSpec(a, b) for a in (0.0, 0.3, 0.95) for b in (0.2, 0.6, 1.0)]
    grids = (
        DEFAULT_GRID,
        DiskGrid(radii=(0.5, 0.9), angles_per_ring=1),
        DiskGrid(radii=(0.3, 0.7, 0.95), angles_per_ring=5),
        DiskGrid(radii=(0.2, 0.6, 0.9), angles_per_ring=16),
        DiskGrid(radii=(-U_ZERO,), angles_per_ring=2),  # one point trips the guard
        DiskGrid(radii=(1e-15, 0.5), angles_per_ring=5),  # |u| < GUARD on a whole ring
        DiskGrid(radii=(1e-15,), angles_per_ring=6),  # every starlike point degenerate
    )
    cases = [(BAD, grid) for grid in grids]
    for _ in range(12):
        params, _, _ = draw_chain_inputs(rng)
        cases += [(params, grid) for grid in grids[1:4]]
        c = rng.uniform(0.01, 8.0)  # c > 0: oscillating coefficients
        cases.append((BesselParams(rng.uniform(-0.4, 6.0), 2.0, c), grids[rng.randrange(4)]))
    for params, grid in cases:
        for kind in QuotientKind:
            got = sup_estimates(params, classes, kind, grid)
            assert got == full_grid_sup_estimates(params, classes, kind, grid)
    assert sup_estimate(BAD, CLS01, QuotientKind.STARLIKE, grids[-1]).degenerate_points == 6


@pytest.mark.parametrize("m", [1, 2, 5, 16, 720])
def test_points_conjugate_symmetric(m):
    grid = DiskGrid(radii=(0.1, 0.55, 0.999), angles_per_ring=m)
    rings = grid.points().reshape(len(grid.radii), m)
    j = np.arange(m)
    mirror = (m - j) % m
    paired = mirror != j  # j = 0 and j = m/2 are their own mirror and stay as built
    assert np.array_equal(rings[:, paired], np.conj(rings[:, mirror[paired]]))
    assert np.all(rings[:, 0].imag == 0.0)


@pytest.mark.parametrize("m", [1, 2, 5, 16, 720])
def test_first_half_points_keep_their_bits(m):
    grid = DiskGrid(radii=(0.1, 0.55, 0.999), angles_per_ring=m)
    rings = grid.points().reshape(len(grid.radii), m)
    ring = np.exp(1j * (np.arange(m) * (2.0 * np.pi / m)))
    for r, got in zip(grid.radii, rings):
        assert np.array_equal(got[: m // 2 + 1], (r * ring)[: m // 2 + 1])


def test_series_evaluated_on_half_of_each_ring(monkeypatch):
    sizes = []
    real = disk._horner

    def counting(coeffs, zs):
        sizes.append(zs.size)
        return real(coeffs, zs)

    monkeypatch.setattr(disk, "_horner", counting)
    sup_estimates(BesselParams(1.0, 1.0, -1.0), [CLS01], QuotientKind.CONVEX)
    assert sizes == [12 * 361, 12 * 361]  # 4,332 of the 8,640 grid points


@pytest.mark.parametrize("params", [
    BesselParams(-0.9718996164495369, 1.0, -0.08787975874807982),  # q = 0.028
    BAD,
    BesselParams(1.0, 1.0, 1.0),
    BesselParams(0.5, 0.5, -25.0),
    BesselParams(-1.7, 1.0, 3.0),  # q = -0.7
])
def test_disk_coefficients_equal_coefficient(monkeypatch, params):
    # the first Horner lane of the starlike quotient is u / z = sum_k a_k z^(k-1)
    lanes = []
    real = disk._horner

    def recording(coeffs, zs):
        lanes.append(coeffs)
        return real(coeffs, zs)

    monkeypatch.setattr(disk, "_horner", recording)
    sup_estimates(params, [CLS01], QuotientKind.STARLIKE)
    a = lanes[0].tolist()
    assert len(a) > bessel.MIN_TERMS
    assert a == [coefficient(params, k) for k in range(1, len(a) + 1)]


def test_coefficient_cap_raises():
    # |c| = 1e6 needs far more than the 10,000-term cap; no silent truncation
    with pytest.raises(NoConvergenceError):
        sup_estimate(BesselParams(1.0, 1.0, -1e6), CLS01, QuotientKind.STARLIKE)
