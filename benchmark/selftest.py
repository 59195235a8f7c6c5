"""Self-test of the output checks: true outputs pass, outputs made wrong on purpose fail.

    python3 benchmark/selftest.py

Takes real outputs of the program (one scan, one threshold search, one
figure table, the audit and a few certified draws), confirms that
checks.py accepts them, then alters one field at a time and confirms that
each altered output is rejected.  Exits 1 if any check misses.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(argv: list[str]) -> dict:
    rc, out, err = worker._run_cli(argv)
    return {"rc": rc, "stdout": out, "stderr": err}


def _edit_csv(out: dict, row: int, col: int, fn) -> dict:
    lines = out["stdout"].splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return {**out, "stdout": "\n".join(lines) + "\n"}


def _edit_json(out: dict, fn) -> dict:
    rec = json.loads(out["stdout"])
    fn(rec["result"])
    return {**out, "stdout": json.dumps(rec)}


def _first_row(out: dict, column: int, value: str) -> int:
    for i, line in enumerate(out["stdout"].splitlines()[1:], start=1):
        if line.split(",")[column] == value:
            return i
    raise LookupError(f"no row with column {column} = {value!r}")


def main() -> int:
    import besselgeom as bg

    cases = []  # (label, errors, expect_errors)

    # -- scan-grid --------------------------------------------------------
    disk = checks.DiskReference()
    cmd = wl.ScanCommand(1.0, 1.0, (-0.9, 20.0), "star")
    scan = _cli(cmd.argv())
    holds_row = _first_row(scan, 4, "holds")
    fails_row = _first_row(scan, 4, "fails")
    cases += [
        ("scan as computed", checks.check_scan(cmd, scan, disk), False),
        ("scan: disk_max 1e-6 below the reference",
         checks.check_scan(cmd, _edit_csv(scan, fails_row, 5, lambda v: repr(float(v) * (1 - 1e-6))), disk), True),
        ("scan: lemma holds flipped to fails",
         checks.check_scan(cmd, _edit_csv(scan, holds_row, 4, lambda v: "fails"), disk), True),
        ("scan: lemma fails flipped to holds",
         checks.check_scan(cmd, _edit_csv(scan, fails_row, 4, lambda v: "holds"), disk), True),
        ("scan: theorem flipped",
         checks.check_scan(cmd, _edit_csv(scan, holds_row, 3,
                                          lambda v: "fails" if v == "holds" else "holds"), disk), True),
        ("scan: one row dropped",
         checks.check_scan(cmd, {**scan, "stdout": "\n".join(scan["stdout"].splitlines()[:-1]) + "\n"}, disk), True),
    ]

    # -- point-certify ----------------------------------------------------
    draws = [
        wl.CertifyDraw(10.0, 1.0, -0.1, 0.0, 1.0, "star", 0.5 + 0.25j),   # all layers hold
        wl.CertifyDraw(0.0, 1.0, -300.0, 0.0, 1.0, "star", 0.3 - 0.6j),   # sum fails by far
        wl.CertifyDraw(2.0, 2.0, 4000.0, 0.2, 0.7, "convex", -0.9 + 0.1j),
    ]
    for d in draws:
        out = worker._certify_output(worker._certify(bg, d))
        tag = f"certify c={d.c!r}"
        flipped = "fails" if out["sum"]["status"] == "holds" else "holds"
        bad_status = copy.deepcopy(out)
        bad_status["sum"]["status"] = flipped
        bad_status["sum"]["holds"] = flipped == "holds"
        bad_sum = copy.deepcopy(out)
        bad_sum["sum"]["sum"] *= 1 + 1e-9
        bad_u = copy.deepcopy(out)
        bad_u["series"][0]["re"] += 1e-9 * (1 + abs(out["series"][0]["re"]))
        bad_upp = copy.deepcopy(out)
        bad_upp["series"][2]["im"] += 1e-9 * (1 + abs(out["series"][2]["im"]))
        bad_cond = copy.deepcopy(out)
        bad_cond["condition"]["holds"] = not out["condition"]["holds"]
        cases += [
            (f"{tag} as computed", checks.check_certify(d, out), False),
            (f"{tag}: sum status flipped", checks.check_certify(d, bad_status), True),
            (f"{tag}: sum moved by 1e-9 relative", checks.check_certify(d, bad_sum), True),
            (f"{tag}: u moved by 1e-9", checks.check_certify(d, bad_u), True),
            (f"{tag}: u'' moved by 1e-9", checks.check_certify(d, bad_upp), True),
            (f"{tag}: condition verdict flipped", checks.check_certify(d, bad_cond), True),
        ]
    chain = worker._certify_output(worker._certify(bg, draws[0]))
    chain["sum"].update(status="fails", holds=False)
    cases.append(("certify: condition holds while the sum fails", checks.check_certify(draws[0], chain), True))

    # -- threshold-audit --------------------------------------------------
    thr = _cli(["threshold", "--figure", "4"])

    def shift_threshold(res):
        res["threshold"] += 1e-3
        res["roots"][-1]["x0"] += 1e-3

    def shift_bracket(res):
        res["roots"][-1]["bracket"] = [x + 1e-3 for x in res["roots"][-1]["bracket"]]
        res["roots"][-1]["x0"] += 1e-3

    def fake_root(res):
        res["roots"] = [{"x0": 1.0, "bracket": [0.99, 1.01], "iterations": 1, "residual": 0.0}]
        res["threshold"], res["no_bracket"] = 1.0, False

    def move_threshold_field(res):
        res["threshold"] += 1e-3

    cases += [
        ("threshold as computed", checks.check_threshold(4, thr), False),
        ("threshold field alone moved by 1e-3",
         checks.check_threshold(4, _edit_json(thr, move_threshold_field)), True),
        ("threshold moved by 1e-3", checks.check_threshold(4, _edit_json(thr, shift_threshold)), True),
        ("root bracket moved by 1e-3", checks.check_threshold(4, _edit_json(thr, shift_bracket)), True),
        ("figure 2 as computed", checks.check_threshold(2, _cli(["threshold", "--figure", "2"])), False),
        ("figure 2 given a root", checks.check_threshold(2, _edit_json(_cli(["threshold", "--figure", "2"]), fake_root)), True),
    ]

    fig_argv = wl.figure_argv(0)
    fig = _cli(fig_argv)

    def nudge_g(res):
        res["rows"][5000]["g"] *= 1 + 1e-9

    cases += [
        ("figure table as computed", checks.check_figure(fig_argv, fig), False),
        ("figure table: one g moved by 1e-9 relative", checks.check_figure(fig_argv, _edit_json(fig, nudge_g)), True),
    ]

    audit = bg.consistency_audit()
    bad_pin = copy.deepcopy(audit)
    bad_pin["pinned_case"]["derived"] += 1e-9
    bad_example = copy.deepcopy(audit)
    bad_example["criteria"]["STARLIKE_MODIFIED"]["disagreement_examples"][0]["printed"] *= 1 + 1e-6
    bad_count = copy.deepcopy(audit)
    bad_count["criteria"]["CONVEX_FIRST_KIND"]["agreements"] -= 1
    cases += [
        ("audit as computed", checks.check_audit(audit), False),
        ("audit: pinned derived value moved by 1e-9", checks.check_audit(bad_pin), True),
        ("audit: disagreement example altered", checks.check_audit(bad_example), True),
        ("audit: agreement count off by one", checks.check_audit(bad_count), True),
    ]

    missed = 0
    for label, errs, expect in cases:
        ok = bool(errs) == expect
        missed += not ok
        verdict = "ok  " if ok else "MISS"
        detail = (errs[0] if errs else "accepted")[:150]
        print(f"{verdict} {label}: {detail}")
    print(f"{len(cases) - missed}/{len(cases)} cases as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
