"""Checks of every benchmark output against references computed apart from
the program, or against properties the method must have.

Every check returns a list of error strings; an empty list means the output
passed.  The references:

* series values u, u', u'' from mpmath's 0F1 at 50 digits, since
  u(z) = z 0F1(;q;-cz);
* sums of |terms| and the weighted coefficient sums as direct 50-digit
  sums of |a_k| = |c|^(k-1) / ((q)_(k-1) (k-1)!);
* the closed-form conditions and the threshold functions g_1..g_6 written
  out again in mpmath from their displayed formulas;
* the unit-disk quotients on the 12-ring, 720-angle grid from
  scipy.special.hyp0f1.

A computed value may differ from its reference by its tail bound plus the
rounding of n floating-point terms, n 2^-52 sum|terms| (widened for q near 0,
see rounding()); the tail bound alone leaves rounding out and would reject
correct results.
"""

from __future__ import annotations

import csv
import io
import json

import mpmath
import numpy as np
import scipy.special as sp

import workloads as wl

ULP = 2.0 ** -52
DPS = 50
CONDITION_RTOL = 1e-11   # of the sum of |parts| of a closed-form display
FIGURE_RTOL = 1e-12      # likewise for the threshold functions g_i
DISK_RTOL = 1e-8         # disk_max may fall this far below the reference max
GUARD = 1e-14            # the disk layer's documented denominator guard
THRESHOLD_ATOL = 5e-5    # half a unit in the published fourth decimal
DISK_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999)
DISK_ANGLES = 720


def _mp(x: float):
    return mpmath.mpf(x)


def _q(p: float, b: float):
    return _mp(p) + (_mp(b) + 1) / 2


def rounding(n: int, q) -> float:
    """Relative rounding allowance for a sum of n terms in q.

    n 2^-52 covers the products and quotients that form each term.  The
    program also forms q = p + (b+1)/2 and (q + k - 1) as (q + k) - 1 in
    binary64; for q near 0 either rounding moves every term by up to
    2^-53 (1+q)/q relative, far beyond n 2^-52 (see CHANGES.md).
    """
    q = float(q)
    return (n + (1.0 + q) / q) * ULP


# ---------------------------------------------------------------------------
# references


def weighted_sum(q, s, alpha: float, beta: float, convex: bool, eps: float = 1e-13):
    """sum_{k>=2} weight(k) |a_k| at 50 digits, and the number of terms above eps."""
    with mpmath.workdps(DPS):
        q, s, alpha, beta = mpmath.mpf(q), mpmath.mpf(s), _mp(alpha), _mp(beta)
        total = mpmath.mpf(0)
        m = mpmath.mpf(1)
        k, n = 1, 0
        while True:
            m = m * s / ((q + k - 1) * k)
            k += 1
            w = (k - 1) + beta * (k + 1 - 2 * alpha)
            term = w * k * m if convex else w * m
            total += term
            if term > eps:
                n = k - 1
            # terms decrease once (q+k)(k+1) > s; stop far below eps and 1e-40 of the total
            if (q + k) * (k + 1) > 2 * s and term < eps * 1e-20 and term < total * mpmath.mpf(10) ** -40:
                return total, max(n, 10)
            if m == 0:
                return total, max(n, 10)


def series_reference(p: float, b: float, c: float, z: complex):
    """(u, u', u'') and their sums of |terms| (A0, A1, A2), all in mpmath."""
    with mpmath.workdps(DPS):
        q, c_, zz = _q(p, b), _mp(c), mpmath.mpc(z)
        x = -c_ * zz
        f0, f1, f2 = (mpmath.hyp0f1(q + j, x) for j in range(3))
        u = zz * f0
        up = f0 + zz * (-c_ / q) * f1
        upp = 2 * (-c_ / q) * f1 + zz * (c_ * c_ / (q * (q + 1))) * f2
        az, ac = abs(zz), abs(c_)
        a0 = a1 = a2 = mpmath.mpf(0)
        g = mpmath.mpf(1)  # |g_k| = |c|^k / ((q)_k k!)
        k = 0
        while True:
            a0 += g * az ** (k + 1)
            a1 += (k + 1) * g * az ** k
            if k >= 1:
                a2 += (k + 1) * k * g * az ** (k - 1)
            g = g * ac / ((q + k) * (k + 1))
            k += 1
            if (q + k) * (k + 1) > 2 * ac * az and (k + 2) ** 2 * g < a0 * mpmath.mpf(10) ** -40:
                break
        return (u, up, upp), (a0, a1, a2)


def starlike_value(q, s, alpha: float, beta: float):
    """General starlike display at 50 digits: (value, sum of |parts|)."""
    with mpmath.workdps(DPS):
        q, s, a, b = mpmath.mpf(q), mpmath.mpf(s), _mp(alpha), _mp(beta)
        thr = 2 * b * (1 - a)
        e = mpmath.exp(s / (q + 1))
        parts = (thr * 2, thr * e, thr * (1 - e) / q, (1 + b) * s / q * e)
        value = parts[0] - parts[1] + parts[2] - parts[3]
        return value, sum(abs(t) for t in parts)


def convex_value(q, s, alpha: float, beta: float):
    """General convex display at 50 digits: (value, sum of |parts|)."""
    with mpmath.workdps(DPS):
        q, s, a, b = mpmath.mpf(q), mpmath.mpf(s), _mp(alpha), _mp(beta)
        thr = 2 * b * (1 - a)
        e = mpmath.exp(-s / (q + 1))
        parts = (
            thr * (1 + (q + 1) / q) * e,
            (1 + b) * s * s / (q * (q + 1)),
            2 * (1 + b * (2 - a)) * s / q,
            thr * (q + 1) / q,
        )
        value = parts[0] - parts[1] - parts[2] - parts[3]
        return value, sum(abs(t) for t in parts)


def g_value(fig: int, x: float):
    """Threshold function g_fig at 50 digits: (value, sum of |parts|)."""
    with mpmath.workdps(DPS):
        x = _mp(x)
        if fig in (1, 2, 4, 5):
            e = mpmath.exp(1 / (x + 2))
        else:
            e = mpmath.exp(2 / (2 * x + 5))
        parts = {
            1: ((2 * x + 3) * e, -(x + 1)),
            2: (2 * x + 3, -e * (x + 1)),
            3: (4 * (x + 2) * e, -(2 * x + 3)),
            4: ((2 * x * x + 7 * x + 6) * e, -(x * x + x - 1)),
            5: (2 * x * x + 7 * x + 6, -(x * x + 7 * x + 11) * e),
            6: ((8 * x * x + 36 * x + 40) * e, -(4 * x * x + 8 * x - 1)),
        }[fig]
        return parts[0] + parts[1], abs(parts[0]) + abs(parts[1])


class DiskReference:
    """Quotient maxima over the 12-ring grid, from scipy's 0F1 (cached per q)."""

    def __init__(self) -> None:
        theta = np.arange(DISK_ANGLES) * (2.0 * np.pi / DISK_ANGLES)
        self.zs = np.concatenate([r * np.exp(1j * theta) for r in DISK_RADII])
        self._f: dict[tuple[float, float, int], np.ndarray] = {}

    def _hyp(self, q: float, c: float, j: int) -> np.ndarray:
        key = (q, c, j)
        if key not in self._f:
            self._f[key] = sp.hyp0f1(q + j, -c * self.zs)
        return self._f[key]

    def max_quotient(self, p: float, b: float, c: float, alpha: float, star: bool) -> float:
        q = p + (b + 1.0) / 2.0
        zs = self.zs
        f0, f1 = self._hyp(q, c, 0), self._hyp(q, c, 1)
        up = f0 + zs * (-c / q) * f1
        with np.errstate(all="ignore"):
            if star:
                first = zs * f0
                w = zs * up / first
                den = w + (1.0 - 2.0 * alpha)
                quot = np.abs((w - 1.0) / den)
            else:
                upp = 2.0 * (-c / q) * f1 + zs * (c * c / (q * (q + 1.0))) * self._hyp(q, c, 2)
                first = up
                v = zs * upp / up
                den = v + 2.0 * (1.0 - alpha)
                quot = np.abs(v / den)
        valid = (np.abs(first) > GUARD) & (np.abs(den) > GUARD) & np.isfinite(quot)
        return float(np.max(quot[valid])) if np.any(valid) else 0.0


# ---------------------------------------------------------------------------
# shared verdict checks


def _condition_errors(where, value, holds, ref, scale) -> list[str]:
    errs = []
    if holds != (value >= 0.0):
        errs.append(f"{where}: holds={holds} but value={value!r}")
    tol = CONDITION_RTOL * scale
    if abs(ref) > 1e300:  # beyond binary64: only the sign is comparable
        if (value >= 0.0) != (ref >= 0):
            errs.append(f"{where}: value {value!r} has the wrong sign (reference {mpmath.nstr(ref, 8)})")
    elif abs(value - ref) > tol:
        errs.append(f"{where}: value {value!r} differs from reference {mpmath.nstr(ref, 17)} by more than {float(tol):.3g}")
    elif abs(ref) > tol and (value >= 0.0) != (ref >= 0):
        errs.append(f"{where}: sign of {value!r} disagrees with reference")
    return errs


def _status_errors(where, status, exact, thr, slack) -> list[str]:
    """holds needs exact <= thr, fails needs exact > thr, indeterminate needs |exact - thr| <= slack."""
    if status == "holds" and not exact <= thr:
        return [f"{where}: status holds but the exact sum {mpmath.nstr(exact, 17)} exceeds {thr!r}"]
    if status == "fails" and not exact > thr:
        return [f"{where}: status fails but the exact sum {mpmath.nstr(exact, 17)} is <= {thr!r}"]
    if status == "indeterminate" and abs(exact - thr) > slack:
        return [f"{where}: indeterminate although |sum - threshold| = {mpmath.nstr(abs(exact - thr), 5)} exceeds {float(slack):.3g}"]
    if status not in ("holds", "fails", "indeterminate"):
        return [f"{where}: unknown status {status!r}"]
    return []


def _condition_ref(q, c: float, alpha: float, beta: float, star: bool):
    s = abs(_mp(c))
    return starlike_value(q, s, alpha, beta) if star else convex_value(q, s, alpha, beta)


# ---------------------------------------------------------------------------
# point-certify


def check_certify(d: wl.CertifyDraw, out: dict) -> list[str]:
    where = f"certify(p={d.p!r}, b={d.b!r}, c={d.c!r}, alpha={d.alpha!r}, beta={d.beta!r}, {d.klass}, z={d.z!r})"
    star = d.klass == "star"
    q = _q(d.p, d.b)
    errs = []

    cond = out["condition"]
    want = "starlike-general" if star else "convex-general"
    if cond["criterion"] != want:
        errs.append(f"{where}: criterion {cond['criterion']!r}, expected {want!r}")
    ref, scale = _condition_ref(q, d.c, d.alpha, d.beta, star)
    errs += _condition_errors(f"{where} condition", cond["value"], cond["holds"], ref, scale)

    rep = out["sum"]
    thr = 2.0 * d.beta * (1.0 - d.alpha)
    exact, n = weighted_sum(q, abs(_mp(d.c)), d.alpha, d.beta, convex=not star)
    allowed = rep["tail_bound"] + rounding(n, q) * exact
    if abs(rep["threshold"] - thr) > 4 * ULP * thr:
        errs.append(f"{where}: sum threshold {rep['threshold']!r}, expected {thr!r}")
    if abs(rep["sum"] - exact) > allowed:
        errs.append(f"{where}: sum {rep['sum']!r} is {mpmath.nstr(abs(rep['sum'] - exact), 5)} from the "
                    f"50-digit sum, more than tail + rounding {float(allowed):.3g}")
    errs += _status_errors(f"{where} sum", rep["status"], exact, thr, allowed)
    if rep["holds"] != (rep["status"] == "holds"):
        errs.append(f"{where}: holds={rep['holds']} contradicts status {rep['status']!r}")
    if cond["holds"] and rep["status"] == "fails":
        errs.append(f"{where}: implication chain broken: condition holds, sum fails")

    refs, abs_sums = series_reference(d.p, d.b, d.c, d.z)
    for label, sv, r, a in zip(("u", "u'", "u''"), out["series"], refs, abs_sums):
        value = complex(sv["re"], sv["im"])
        allowed = sv["tail_bound"] + rounding(sv["terms_used"], q) * a
        err = abs(mpmath.mpc(value) - r)
        if not err <= allowed:
            errs.append(f"{where}: {label} = {value!r} is {mpmath.nstr(err, 5)} from 0F1, "
                        f"more than tail + rounding {float(allowed):.3g}")
    return errs


# ---------------------------------------------------------------------------
# scan-grid


def check_scan(cmd: wl.ScanCommand, out: dict, disk: DiskReference) -> list[str]:
    where = f"scan(b={cmd.b!r}, c={cmd.c!r}, {cmd.klass})"
    if out["rc"] != 0:
        return [f"{where}: exit code {out['rc']}: {out['stderr'].strip()}"]
    rows = list(csv.reader(io.StringIO(out["stdout"])))
    if not rows or rows[0] != ["p", "alpha", "beta", "theorem", "lemma", "disk_max"]:
        return [f"{where}: unexpected CSV header {rows[:1]!r}"]
    ps = np.linspace(*cmd.p_range, wl.SCAN_STEPS[0]).tolist()
    alphas = np.linspace(*wl.SCAN_ALPHA_RANGE, wl.SCAN_STEPS[1]).tolist()
    betas = np.linspace(*wl.SCAN_BETA_RANGE, wl.SCAN_STEPS[2]).tolist()
    grid = [(p, a, bt) for p in ps for a in alphas for bt in betas]
    if len(rows) - 1 != len(grid):
        return [f"{where}: {len(rows) - 1} rows, expected {len(grid)}"]
    star = cmd.klass == "star"
    errs = []
    for (p, a, bt), row in zip(grid, rows[1:]):
        at = f"{where} row p={p!r} alpha={a!r} beta={bt!r}"
        if [float(x) for x in row[:3]] != [p, a, bt]:
            errs.append(f"{at}: grid coordinates {row[:3]!r}")
            continue
        theorem, lemma, disk_max = row[3], row[4], float(row[5])
        if theorem not in ("holds", "fails"):
            errs.append(f"{at}: theorem column {theorem!r}")
            continue
        q = _q(p, cmd.b)
        ref, scale = _condition_ref(q, cmd.c, a, bt, star)
        value_sign = 1.0 if theorem == "holds" else -1.0
        if abs(ref) > CONDITION_RTOL * scale and (ref >= 0) != (value_sign > 0):
            errs.append(f"{at}: theorem {theorem} but the condition is {mpmath.nstr(ref, 8)}")
        thr = 2.0 * bt * (1.0 - a)
        exact, n = weighted_sum(q, abs(_mp(cmd.c)), a, bt, convex=not star)
        # the CSV carries no tail bound; 1e-12 is the sum layer's default
        errs += _status_errors(f"{at} lemma", lemma, exact, thr, 1e-12 + rounding(n, q) * exact)
        if theorem == "holds" and lemma == "fails":
            errs.append(f"{at}: implication chain broken: theorem holds, lemma fails")
        if lemma == "holds" and not disk_max < bt:
            errs.append(f"{at}: implication chain broken: lemma holds, disk_max {disk_max!r} >= beta")
        grid_max = disk.max_quotient(p, cmd.b, cmd.c, a, star)
        if disk_max < grid_max * (1.0 - DISK_RTOL):
            errs.append(f"{at}: disk_max {disk_max!r} below the 12-ring reference maximum {grid_max!r}")
    return errs


# ---------------------------------------------------------------------------
# threshold-audit


def _positive_mp(fig: int, x: float) -> bool:
    return g_value(fig, x)[0] > 0


def check_threshold(fig: int, out: dict) -> list[str]:
    where = f"threshold --figure {fig}"
    if out["rc"] != 0:
        return [f"{where}: exit code {out['rc']}: {out['stderr'].strip()}"]
    rec = json.loads(out["stdout"])
    res = rec["result"]
    errs = []
    if rec["command"] != "threshold" or rec["inputs"]["figure"] != fig:
        errs.append(f"{where}: record is for {rec['command']} {rec['inputs']!r}")
    for r in res["roots"]:
        a, b = r["bracket"]
        if not a <= r["x0"] <= b:
            errs.append(f"{where}: root {r['x0']!r} outside its bracket {r['bracket']!r}")
        ga, gb = g_value(fig, a)[0], g_value(fig, b)[0]
        if ga * gb > 0:
            errs.append(f"{where}: no sign change of g at the bracket ends {r['bracket']!r}")
    if fig == 2:
        if res["roots"] or res["threshold"] is not None or not res["no_bracket"]:
            errs.append(f"{where}: figure 2 must have no root, got {res['roots']!r}")
        if not res["positivity"]["positive"] or res["positivity"]["sign_changes"]:
            errs.append(f"{where}: positivity certificate {res['positivity']!r}")
        # g_2 > 0 right of its singularity and g_2 < 0 left of it, within the searched windows
        sing = wl.SINGULARITIES[2]
        for i in range(1, 201):
            right, left = sing + i * 0.5 - 0.499, sing - i * 0.5 + 0.499
            if not _positive_mp(2, right):
                errs.append(f"{where}: g_2({right!r}) <= 0")
            if g_value(2, left)[0] >= 0:
                errs.append(f"{where}: g_2({left!r}) >= 0")
        return errs
    x0 = res["threshold"]
    want = wl.PUBLISHED_THRESHOLDS[fig]
    if x0 is None or not abs(x0 - want) <= THRESHOLD_ATOL:
        return errs + [f"{where}: threshold {x0!r}, published {want}"]
    if not res["roots"] or res["roots"][-1]["x0"] != x0:
        errs.append(f"{where}: threshold is not the right-most root")
    for dx in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 45.0):
        if not _positive_mp(fig, x0 + dx):
            errs.append(f"{where}: g_{fig} <= 0 at {x0 + dx!r}, right of the threshold")
    return errs


def check_figure(argv: list[str], out: dict) -> list[str]:
    where = " ".join(argv[:3])
    if out["rc"] != 0:
        return [f"{where}: exit code {out['rc']}: {out['stderr'].strip()}"]
    rec = json.loads(out["stdout"])
    inputs = rec["inputs"]
    fig, low, high, step = inputs["figure"], inputs["low"], inputs["high"], inputs["step"]
    if rec["command"] != "figure" or fig != int(argv[2]):
        return [f"{where}: record is for {rec['command']} {inputs!r}"]
    n = int((high - low) / step + 1e-9)
    rows = rec["result"]["rows"]
    if len(rows) != n + 1:
        return [f"{where}: {len(rows)} rows, expected {n + 1}"]
    errs = []
    for i, row in enumerate(rows):
        x = low + i * step
        if row["x"] != x:
            errs.append(f"{where}: row {i} has x = {row['x']!r}, expected {x!r}")
            continue
        ref, scale = g_value(fig, x)
        if abs(row["g"] - ref) > FIGURE_RTOL * scale:
            errs.append(f"{where}: g_{fig}({x!r}) = {row['g']!r}, reference {mpmath.nstr(ref, 17)}")
    return errs


def _starlike_modified(p: float, alpha: float, beta: float, beta1: bool):
    """Printed and derived modified-kind starlike displays (c = -1, q = p + 1) in mpmath."""
    with mpmath.workdps(DPS):
        p_, a, b = _mp(p), _mp(alpha), _mp(beta)
        f = mpmath.exp(1 / (p_ + 2))
        if beta1:
            printed = (1 - a) * ((2 * p_ + 3) - (p_ + 2) * f) + f
            factor = (p_ + 1) / 2
        else:
            printed = 2 * b * (1 - a) * ((2 * p_ + 3) - (p_ + 2) * f) + (b + 1) * f
            factor = p_ + 1
        derived = starlike_value(p_ + 1, 1, alpha, beta)[0] * factor
        return printed, derived


def check_audit(report: dict) -> list[str]:
    errs = []
    pin = report["pinned_case"]
    with mpmath.workdps(DPS):
        e3 = mpmath.exp(mpmath.mpf(1) / 3)
        printed, derived = 10 - 4 * e3, 10 - 8 * e3
    for label, got, want in (("printed", pin["printed"], printed), ("derived", pin["derived"], derived)):
        if abs(got - want) > 1e-12:
            errs.append(f"audit: pinned {label} {got!r}, expected {mpmath.nstr(want, 17)}")
    if not pin["printed_holds"] or pin["derived_holds"]:
        errs.append(f"audit: pinned case verdicts {pin!r}")
    crit = report["criteria"]
    if len(crit) != 12:
        errs.append(f"audit: {len(crit)} criteria, expected 12")
    n_grid = len(report["grid"]["p_values"]) * len(report["grid"]["alphas"])
    for name, c in crit.items():
        points = n_grid * (1 if name.endswith("BETA1") else len(report["grid"]["betas"]))
        if c["points"] != points or c["agreements"] + c["disagreements"] != points:
            errs.append(f"audit: {name} counts {c['points']}/{c['agreements']}/{c['disagreements']}")
        for ex in c["disagreement_examples"]:
            if (ex["printed"] >= 0) == (ex["derived"] >= 0):
                errs.append(f"audit: {name} example {ex!r} does not disagree")
            if name.startswith("STARLIKE_MODIFIED"):
                ref_p, ref_d = _starlike_modified(ex["p"], ex["alpha"], ex["beta"], name.endswith("BETA1"))
                if abs(ex["printed"] - ref_p) > 1e-12 * (1 + abs(ref_p)) or \
                        abs(ex["derived"] - ref_d) > 1e-12 * (1 + abs(ref_d)):
                    errs.append(f"audit: {name} example {ex!r} differs from its displays")
    for name in ("STARLIKE_MODIFIED", "STARLIKE_MODIFIED_BETA1"):
        if name in crit and not crit[name]["disagreements"]:
            errs.append(f"audit: {name} shows no printed-vs-derived disagreement")
    return errs
