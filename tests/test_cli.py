"""CLI: records, schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besselgeom import (
    BesselGeomError,
    DomainError,
    SumReport,
    SumStatus,
    bessel,
    cli,
    criteria,
    disk,
    thresholds,
)
from besselgeom.cli import (
    check_record,
    eval_record,
    load_output_schema,
    main,
    scan_record,
    threshold_record,
)
from besselgeom.conditions import consistency_audit
from conftest import scalar_scan_rows

SCHEMA = load_output_schema()


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    return code, record


# ---------------------------------------------------------------------------
# eval


def test_eval_example(capsys):
    code, rec = run_json(capsys, ["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "1"])
    assert code == 0
    assert rec["command"] == "eval"
    assert rec["result"]["u"]["value"]["re"] == pytest.approx(0.2238907791, abs=1e-9)
    assert rec["result"]["u"]["value"]["im"] == 0.0
    assert "w" not in rec["result"]


def test_eval_zero(capsys):
    code, rec = run_json(capsys, ["eval", "--p", "1", "--b", "1", "--c", "-1", "--z", "0"])
    assert code == 0
    assert rec["result"]["u"]["value"] == {"re": 0.0, "im": 0.0}


def test_eval_complex_and_w(capsys):
    code, rec = run_json(
        capsys, ["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "0.3,0.4"])
    assert code == 0
    assert rec["inputs"]["z"] == {"re": 0.3, "im": 0.4}
    code, rec = run_json(
        capsys, ["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "2", "--w"])
    assert code == 0
    assert rec["result"]["w"]["value"]["re"] == pytest.approx(0.2238907791, abs=1e-9)


def test_eval_malformed_z(capsys):
    assert main(["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "abc"]) == 2


def test_eval_w_rejects_complex_z(capsys):
    code = main(["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "1,1", "--w"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_domain_error_exit(capsys):
    assert main(["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "4.5"]) == 2


@pytest.mark.parametrize("p,z", [
    ("200", "0.5"),     # Gamma(q) overflows
    ("2000", "4"),      # (x/2)^(p-2) overflows
    ("-300.5", "0.5"),  # Gamma(q) underflows to -0.0
    ("-170.5", "0.5"),  # the quotient overflows to inf
    ("0", "5e-324"),    # x/2 underflows to 0, raised to the power -2
])
def test_eval_w_scale_out_of_range_exits_2(capsys, p, z):
    assert main(["eval", f"--p={p}", "--b", "1", "--c", "1", "--z", z, "--w"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"p = {float(p)!r}, x = {float(z)!r}" in captured.err


def _refuse_work(*args):
    raise AssertionError("work started before the inputs were checked")


def assert_refused_before_work(capsys, monkeypatch, argv):
    """argv exits 2 with a one-line error before the series or a sign scan runs."""
    monkeypatch.setattr(bessel, "_coefficients", _refuse_work)
    monkeypatch.setattr(thresholds, "_sign_changes", _refuse_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--z", "nan"], ["--z", "0.5,nan"], ["--z", "0.5", "--eps", "nan"],
])
def test_eval_nan_control_exits_2(capsys, monkeypatch, argv):
    eval_args = ["eval", "--p", "0", "--b", "1", "--c", "1"]
    assert_refused_before_work(capsys, monkeypatch, [*eval_args, *argv])


def test_eval_overflowing_value_exits_2(capsys):
    # every term is finite, but u'' = 3.27e308 is not a double
    assert main(["eval", "--p", "0", "--b", "1", "--c=-123500", "--z", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: u, u' or u'' overflows, so tail bound 1e-12 cannot be certified\n")


def test_eval_overflowing_product_exits_0(capsys):
    # a_k (-c z) overflows at term 12 although every term is finite: the
    # kernel reruns its recurrence; u is 4903526.05870817 (50-digit mpmath)
    assert main(["eval", "--p", "1e307", "--b", "1", "--c=-1e308", "--z", "1.5"]) == 0
    u = json.loads(capsys.readouterr().out)["result"]["u"]
    assert u["value"]["re"] == pytest.approx(4903526.0587081659589, rel=1e-13)
    assert u["tail_bound"] < 1e-12


@pytest.mark.parametrize("args,err", [
    # x = -c z has finite parts but a modulus past binary64
    (["--p", "0", "--b", "1", "--c=-1e308", "--z", "1.5,1.5"],
     "term 12 overflows, so tail bound 1e-12 cannot be certified"),
    # so has z itself
    (["--p", "0", "--b", "1", "--c", "1", "--z", "1.5e308,1.5e308"],
     "|z| = inf lies outside the working region |z| <= 4.0"),
    # q + 18 = 1.4e-9 lifts a_20 from finite parts to a modulus past binary64
    (["--p=-18.999999998630653", "--b", "1", "--c=-1.1495616070143237e+17",
      "--z", "1.9154825425710407,-1.888736672171825"],
     "term 20 overflows, so tail bound 1e-12 cannot be certified"),
])
def test_eval_modulus_overflow_exits_2(capsys, args, err):
    # abs() of such a complex raises OverflowError; the command must not die of it
    assert main(["eval", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["check", "--p=-1.7e308", "--b=-1.7e308", "--c", "1", "--alpha", "0", "--beta", "1",
     "--class", "star"],
    ["scan", "--b=-1.7e308", "--c=-0.5", "--p-range=-1e308,1", "--alpha-range", "0,0",
     "--beta-range", "1,1", "--class", "star", "--steps", "2"],
])
def test_overflowing_q_exits_2(capsys, monkeypatch, argv):
    # finite p and b whose q = p + (b+1)/2 is -inf
    assert_refused_before_work(capsys, monkeypatch, argv)


# ---------------------------------------------------------------------------
# check


def test_check_all_layers_hold(capsys):
    code, rec = run_json(capsys, [
        "check", "--p", "10", "--b", "1", "--c", "-0.1",
        "--alpha", "0", "--beta", "1", "--class", "star", "--mode", "all"])
    assert code == 0
    res = rec["result"]
    assert res["theorem"]["holds"]
    assert res["lemma"]["status"] == "holds"
    assert res["disk"]["max_quotient"] < 1.0
    assert res["consistent"]


def test_check_failing_point_is_consistent(capsys):
    code, rec = run_json(capsys, [
        "check", "--p", "1", "--b", "1", "--c", "-1",
        "--alpha", "0", "--beta", "1", "--class", "star", "--mode", "all"])
    assert code == 0
    res = rec["result"]
    assert not res["theorem"]["holds"]
    assert res["lemma"]["status"] == "fails"
    assert res["disk"]["max_quotient"] > 0.0
    assert res["consistent"]  # failing both layers breaks no implication


def test_check_record_rejects_unknown_class():
    # anything but star or convex used to run the convex layers under its own label
    with pytest.raises(DomainError, match="class"):
        check_record(1.0, 1.0, -1.0, 0.0, 1.0, "starlike")
    with pytest.raises(DomainError, match="class"):
        scan_record(1.0, -1.0, (0.0, 1.0), (0.0, 0.0), (1.0, 1.0), "starlike", (2, 1, 1))


def test_check_record_rejects_unknown_mode():
    # an unknown mode used to run no layer and report consistent: true
    with pytest.raises(DomainError, match="mode"):
        check_record(1.0, 1.0, -1.0, 0.0, 1.0, "star", mode="nope")


def test_check_disk_coefficient_cap_exits_2(capsys):
    # |c| = 1e9 exhausts the disk layer's 10,000-level cap: a diagnostic, not a silent 0.0
    code = main(["check", "--p", "1", "--b", "1", "--c=-1e9", "--alpha", "0",
                 "--beta", "1", "--class", "star", "--mode", "disk"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_check_disk_refuses_nonpositive_q(capsys):
    # q = -0.2: the real-axis theorem needs q > 0, as the criteria do
    code = main(["check", "--p=-1.2", "--b", "1", "--c", "1", "--alpha", "0",
                 "--beta", "1", "--class", "star", "--mode", "disk"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the disk layer requires q > 0, got q = -0.19999999999999996\n"


def test_check_convex_zero_inside_first_ring(capsys):
    # u' vanishes at z = 0.0518, inside the first ring of a 12-ring sampling
    # grid, which read violations 0 and max_quotient 0.5004 for this
    # non-convex function
    code, rec = run_json(capsys, [
        "check", "--p=-0.9", "--b", "1", "--c", "1", "--alpha", "0",
        "--beta", "1", "--class", "convex", "--mode", "all"])
    assert code == 0
    assert rec["result"]["disk"] == {"max_quotient": math.inf}
    assert rec["result"]["consistent"]  # the theorem and the lemma fail too


def test_check_beta_below_1_false_membership(capsys):
    # the 12-ring grid read max_quotient 0.9056390717340785 at z = 0.999 with
    # no violation for this non-member; the exact sup at z = 1 exceeds beta
    code, rec = run_json(capsys, [
        "check", "--p=-0.7760812953581148", "--b", "1", "--c", "0.1036127991657812",
        "--alpha", "0.19897086576962877", "--beta", "0.9078856454907038",
        "--class", "star", "--mode", "disk"])
    assert code == 0
    assert rec["result"]["disk"] == {"max_quotient": 0.908536345275895}
    assert rec["result"]["consistent"]


def test_consistent_tie_is_a_member():
    # the class is strict on the open disk, which reaches the sup only on
    # the circle: a lemma that HOLDS agrees with sup == beta, not with more
    beta = 0.908536345275895
    assert cli._consistent(None, SumStatus.HOLDS, beta, beta)
    assert not cli._consistent(None, SumStatus.HOLDS, math.nextafter(beta, math.inf), beta)


def test_check_starlike_overflow_gives_verdict(capsys):
    # exp(|c|/(q+1)) overflows binary64; the condition saturates to -inf
    code, rec = run_json(capsys, [
        "check", "--p", "0", "--b", "1", "--c=-2000", "--alpha", "0",
        "--beta", "1", "--class", "star"])
    assert code == 0
    thm = rec["result"]["theorem"]
    assert thm["value"] == -math.inf
    assert not thm["holds"]
    assert rec["result"]["consistent"]


def test_overflowing_sum_fails_in_check_and_scan(capsys):
    # m_k overflows at |c| = 2e5: the lemma fails with an infinite sum
    # instead of exiting 2 after 10,000 terms, and a scan prints its rows
    code, rec = run_json(capsys, [
        "check", "--p", "0.5", "--b", "1", "--c=-2e5", "--alpha", "0",
        "--beta", "1", "--class", "star", "--mode", "lemma"])
    assert code == 0
    assert rec["result"]["lemma"] == {
        "sum": math.inf, "tail_bound": 0.0, "threshold": 2.0,
        "holds": False, "margin": -math.inf, "status": "fails",
    }
    code = main(["scan", "--b", "1", "--c=-2e5", "--p-range", "0,3",
                 "--alpha-range", "0,0.5", "--beta-range", "0.5,1",
                 "--class", "convex", "--steps", "3,2,2"])
    assert code == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 12
    assert all(r[4] == "fails" for r in rows)


# Closed-form values at the edges of binary64, with the sign of the exact
# display (mpmath, E - 1 from expm1).
EDGE_CHECKS = [
    # exp(s/(q+1)) rounds to 1 while s/q ~ 0.9: exact -1.6029
    (["--p=-0.9999999999999999", "--b", "1", "--c", "1e-16", "--class", "star"], False),
    (["--p", "1e-320", "--b=-1", "--c=1e-320", "--class", "star"], False),  # -2
    # (q+1)/q overflows: exact 2
    (["--p", "1e-320", "--b=-1", "--c=0", "--class", "convex"], True),
    # s^2 and q (q+1) overflow: exact -8.53
    (["--p", "1e308", "--b", "1", "--c", "1e308", "--class", "convex", "--mode", "theorem"],
     False),
    # s/q overflows while E underflows: exact 2e300
    (["--p", "1e-300", "--b=-1", "--c", "1e300", "--class", "star", "--variant", "printed",
      "--mode", "theorem"], True),
    # (1 + beta) s/(q+1) + 2 (1 + 2 beta) is exactly 0 while s/q overflows: exact 3.8e321
    (["--p", "1e-320", "--b=-1", "--c", "3", "--class", "convex", "--variant", "printed",
      "--mode", "theorem"], True),
    # exp overflows and so does thr (2 + 1/q): exact -3.9e757
    (["--p", "1e-320", "--b=-1", "--c", "1000", "--class", "star", "--mode", "theorem"], False),
]


@pytest.mark.parametrize("argv,holds", EDGE_CHECKS)
def test_check_closed_form_edges(capsys, argv, holds):
    code, rec = run_json(capsys, ["check", *argv, "--alpha", "0", "--beta", "1"])
    assert code == 0
    thm = rec["result"]["theorem"]
    assert not math.isnan(thm["value"])
    assert thm["holds"] is holds
    assert rec["result"]["consistent"]


def test_check_alpha_out_of_range(capsys):
    code = main(["check", "--p", "1", "--b", "1", "--c", "-1",
                 "--alpha", "1", "--beta", "1", "--class", "star"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_check_single_mode(capsys):
    code, rec = run_json(capsys, [
        "check", "--p", "2", "--b", "1", "--c", "-1",
        "--alpha", "0", "--beta", "1", "--class", "convex", "--mode", "lemma"])
    assert code == 0
    assert "theorem" not in rec["result"]
    assert "disk" not in rec["result"]
    assert rec["result"]["lemma"]["status"] in ("holds", "fails", "indeterminate")


def test_check_variant_printed(capsys):
    code, rec = run_json(capsys, [
        "check", "--p", "10", "--b", "1", "--c", "-0.1", "--alpha", "0",
        "--beta", "1", "--class", "star", "--mode", "theorem",
        "--variant", "printed"])
    assert code == 0
    assert rec["result"]["theorem"]["variant"] == "printed"


def test_check_printed_variant_exempt_for_positive_c(capsys):
    # the README's example: for c > 0 the printed theorem holds while the
    # lemma fails, and only the derived theorem binds the chain
    argv = ["check", "--p", "1", "--b", "1", "--c", "1", "--alpha", "0",
            "--beta", "1", "--class", "star"]
    code, rec = run_json(capsys, argv + ["--variant", "printed"])
    assert code == 0
    res = rec["result"]
    assert res["theorem"]["holds"] and res["lemma"]["status"] == "fails"
    assert res["disk"]["max_quotient"] < 1.0
    assert res["consistent"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert not rec["result"]["theorem"]["holds"]


def test_check_inconsistency_exits_3(capsys, monkeypatch):
    # force the lemma layer to contradict a passing theorem
    fake = SumReport(sum=99.0, tail_bound=0.0, threshold=2.0, status=SumStatus.FAILS)
    monkeypatch.setattr(cli, "sum_reports", lambda params, classes, which: [fake] * len(classes))
    code = main(["check", "--p", "10", "--b", "1", "--c", "-0.1",
                 "--alpha", "0", "--beta", "1", "--class", "star"])
    assert code == 3
    captured = capsys.readouterr()
    assert "implication chain" in captured.err
    record = json.loads(captured.out)
    assert not record["result"]["consistent"]


# SHA-256 of the check JSON of each --mode, concatenated over
# CHECK_PARAMS x CHECK_CLASSES x both classes in that order.  The points cover
# q from 0.01 to 10.75, both signs of c, and the small-q point where forming
# q + k - 1 as (q + k) - 1 loses bits.  A deliberate change to this output
# re-pins these hashes, with a note in CHANGES.md saying why the bytes moved.
CHECK_PARAMS = [
    (-0.99, 1.0, -1.0),
    (-0.99, 1.0, 0.3),
    (-0.9718996164495369, 1.0, -0.08787975874807982),
    (-0.9718996164495369, 1.0, 0.08787975874807982),
    (-0.5, 0.5, -25.0),
    (0.0, 1.0, 1.0),
    (1.0, 1.0, -0.2),
    (2.5, 2.0, -3.0),
    (3.0, 1.0, 1.0),
    (8.0, 2.0, -1.0),
    (10.0, 0.5, 40.0),
]
CHECK_CLASSES = [(0.0, 1.0), (0.5, 0.5), (0.9, 0.05)]
PINNED_CHECKS = {
    "theorem": "b62cac80fbc8bf87a5c8cfe8f22950ce36a8000026488aa72ef35f09f992e726",
    "lemma": "e2c8d301e5b8f4d8a458a9a3653c0ac3ec72af4f7ff576859299d124c5691282",
    "disk": "e4b44fcc8b81e86b740bacfcfebaeebf2e970038226da598f3823dc0ebaef4ed",
    "all": "703eb8ff499f1d2a5d3470c05fac9be06db9b8510a1965736cf1dad09bd1b364",
}


@pytest.mark.parametrize("mode", sorted(PINNED_CHECKS))
def test_check_json_bytes_pinned(capsys, mode):
    digest = hashlib.sha256()
    for p, b, c in CHECK_PARAMS:
        for alpha, beta in CHECK_CLASSES:
            for klass in ("star", "convex"):
                assert main(["check", f"--p={p!r}", f"--b={b!r}", f"--c={c!r}",
                             f"--alpha={alpha!r}", f"--beta={beta!r}",
                             "--class", klass, "--mode", mode]) == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_CHECKS[mode]


# SHA-256 of single JSON records: eval at a real, a complex and a zero z and
# with --w, and a check whose theorem value saturates to -Infinity.  With the
# check, threshold, figure and scan pins this covers every subcommand.
PINNED_RECORDS = {
    "eval-real": (["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "1"],
                  "43f9a86b3a12e2a5c2da16cb305519d6abfeaaf530c904b25e41b62a59481221"),
    "eval-complex": (["eval", "--p", "0.5", "--b", "2", "--c", "-1", "--z", "0.25,0.1"],
                     "040b6dd76a300c8c223ad7678b748ab39c5d961cfcf6fe0d7d4e2e22c6b31bfa"),
    "eval-w": (["eval", "--p", "1.5", "--b", "1", "--c", "-1", "--z", "2", "--w"],
               "b30fd7a6645b644a6edf9321e299f3b7ab6111d93d08afc5d4eb44531ea93b99"),
    "eval-zero": (["eval", "--p", "1", "--b", "1", "--c", "-1", "--z", "0"],
                  "94d452fb94fc169941d2b889e32b203acad7aaa7d97d52944f02a67ab1f57cc0"),
    "check-saturated": (["check", "--p", "0", "--b", "1", "--c=-2000", "--alpha", "0",
                         "--beta", "1", "--class", "star", "--mode", "theorem"],
                        "7f201f3a2ddfe8fa30e71d5df85c2f2fa06eb3fab666fbaa462f49bcee22ecbb"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_json_record_bytes_pinned(capsys, name):
    argv, want = PINNED_RECORDS[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


# ---------------------------------------------------------------------------
# threshold


def test_threshold_fig1(capsys):
    code, rec = run_json(capsys, ["threshold", "--figure", "1"])
    assert code == 0
    res = rec["result"]
    assert not res["no_bracket"]
    assert res["threshold"] == pytest.approx(-1.5314, abs=1e-3)
    assert len(res["roots"]) == 2
    assert res["roots"][0]["x0"] < res["roots"][1]["x0"]


def test_threshold_fig2_no_bracket(capsys):
    code, rec = run_json(capsys, ["threshold", "--figure", "2"])
    assert code == 0
    res = rec["result"]
    assert res["no_bracket"]
    assert res["threshold"] is None
    assert res["roots"] == []
    assert res["positivity"]["sign_changes"] == 0
    assert res["positivity"]["positive"]
    assert res["positivity"]["low"] == pytest.approx(-1.999)
    assert res["positivity"]["high"] == 50.0


def test_threshold_fig3(capsys):
    code, rec = run_json(capsys, ["threshold", "--figure", "3"])
    assert code == 0
    assert rec["result"]["threshold"] == pytest.approx(-2.0314, abs=1e-3)


def test_threshold_bad_figure(capsys):
    assert main(["threshold", "--figure", "9"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_threshold_tol_must_be_positive_and_finite(capsys, monkeypatch, tol):
    assert_refused_before_work(capsys, monkeypatch, ["threshold", "--figure", "1", f"--tol={tol}"])


# ---------------------------------------------------------------------------
# figure


def test_figure_csv(capsys):
    code = main(["figure", "--figure", "4", "--low", "-1.9", "--high", "5",
                 "--step", "0.05", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,g"
    assert len(lines) == 140
    near = [ln for ln in lines[1:] if abs(float(ln.split(",")[0]) + 1.0) < 1e-9]
    assert len(near) == 1
    assert float(near[0].split(",")[1]) == pytest.approx(3.7183, abs=1e-3)
    # 17 significant digits round-trip: re-parsing and re-formatting is stable
    x, g = near[0].split(",")
    assert format(float(x), ".17g") == x
    assert format(float(g), ".17g") == g


def test_figure_json_validates(capsys):
    code, rec = run_json(capsys, [
        "figure", "--figure", "1", "--low", "-1", "--high", "1", "--step", "0.5"])
    assert code == 0
    assert len(rec["result"]["rows"]) == 5


def test_figure_skips_singular_sample(capsys):
    code, rec = run_json(capsys, [
        "figure", "--figure", "1", "--low", "-3", "--high", "-1", "--step", "0.5"])
    assert code == 0
    xs = [row["x"] for row in rec["result"]["rows"]]
    assert len(xs) == 4
    assert all(abs(x + 2.0) > 1e-12 for x in xs)


def test_figure_bad_ranges(capsys):
    assert main(["figure", "--figure", "1", "--low", "5", "--high", "1",
                 "--step", "0.1"]) == 2
    assert main(["figure", "--figure", "1", "--low", "1", "--high", "5",
                 "--step", "-0.1"]) == 2
    assert main(["figure", "--figure", "1", "--low", "1", "--high", "5",
                 "--step", "0"]) == 2


def test_figure_rejects_overflowing_sample(capsys):
    # low = 1e308 lies past MAX_ABS_X (1e150): the table is refused before any
    # sample is built, whatever the step
    assert main(["figure", "--figure", "1", "--low=1e308",
                 "--high=1.7976931348623157e308", f"--step={7.976931348623157e307 / (1 - 5e-10)!r}"]) == 2
    assert "x must be finite" in capsys.readouterr().err


def test_figure_refuses_samples_where_g_overflows(capsys):
    # g_4's polynomial parts overflow at 1e300, where A*E - B reads inf - inf:
    # the table is refused, not printed with NaN rows
    assert main(["figure", "--figure", "4", "--low", "1e300", "--high", "2e300",
                 "--step", "5e299"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x must be finite with |x| <= 1e+150, got low = 1e+300\n"


@pytest.mark.parametrize("bound", ["--low=-inf", "--low=nan", "--high=inf", "--step=1e-300"])
def test_figure_rejects_unbounded_grid(capsys, bound):
    # each exits 2 before any grid is allocated (1e-300 asks for 1e300 points)
    argv = {"--low": "--low=0", "--high": "--high=1", "--step": "--step=0.1"}
    argv[bound.split("=")[0]] = bound
    assert main(["figure", "--figure", "1", *argv.values()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# SHA-256 of the threshold JSON of every figure and of the figure table at the
# benchmark's seed-1 arguments.  A deliberate change to this output re-pins
# these hashes, with a note in CHANGES.md saying why the bytes moved.
PINNED_THRESHOLDS = {
    1: "503389c7390b842eb16026afc03c34ad2fc4b58b411bab6aeb14b6499c352777",
    2: "8b5392b9d51f34ed662c9613f7f9804f72907cd8b13d4971966f5db66a4830e3",
    3: "8aa1345837b7be6538f2955727513fbedea7306d37bde2a6f6bb3099cd31280e",
    4: "06bcb2f2ce703831d4101cf741453f6d232a216671225f026bd8932e23b3d076",
    5: "9c3c9dc4a485ceebafce74d18b9aea78fb8be9add4e787faa6552ad1778b1d05",
    6: "c42f3d36240e178fd908a2f1ca59ef132f848c4393ea84b5ac3bf599ba33d3d0",
}
PINNED_FIGURE_ARGS = ["figure", "--figure", "1", "--low=-1.988656357558876",
                      "--high=98.00134364244113", "--step=0.01"]
PINNED_FIGURES = {
    "json": "f8d5455fe25233e3bda0825bbf51fa38dab21465434270b8989bc1309c70df06",
    "csv": "4b7c886343b117148eb4c0e1a93cfd24c7aff41c8a546a98d670681ca6028cde",
}


@pytest.mark.parametrize("figure", sorted(PINNED_THRESHOLDS))
def test_threshold_json_bytes_pinned(capsys, figure):
    assert main(["threshold", "--figure", str(figure)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_THRESHOLDS[figure]


@pytest.mark.parametrize("fmt", sorted(PINNED_FIGURES))
def test_figure_bytes_pinned(capsys, fmt):
    assert main([*PINNED_FIGURE_ARGS, "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_FIGURES[fmt]


class _HashSink:
    """A text stream that hashes what is written to it and keeps none of it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", sorted(PINNED_FIGURES))
def test_figure_writes_in_bounded_memory(fmt):
    # the pinned table has 10,000 rows, some 800 KB of JSON; the writer holds
    # one chunk of rows and text at a time, not a row object per row or the
    # whole text (4.25 MB JSON and 3.97 MB CSV when it did)
    argv = [*PINNED_FIGURE_ARGS, "--format", fmt]
    with contextlib.redirect_stdout(_HashSink()):  # builds the parser outside the trace
        assert main(argv) == 0
    sink = _HashSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == PINNED_FIGURES[fmt]
    assert peak < 1.5e6, peak


# ---------------------------------------------------------------------------
# scan


SCAN_ARGS = ["scan", "--b", "1", "--c", "-1", "--p-range", "0,3",
             "--alpha-range", "0,0.5", "--beta-range", "0.5,1",
             "--class", "star", "--steps", "3,2,2"]


def test_scan_csv_shape(capsys):
    code = main(SCAN_ARGS)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,alpha,beta,theorem,lemma,disk_max"
    assert len(lines) == 1 + 3 * 2 * 2
    first = lines[1].split(",")
    assert first[3] in ("holds", "fails")
    assert first[4] in ("holds", "fails", "indeterminate")
    float(first[5])


def test_scan_lexicographic_order(capsys):
    main(SCAN_ARGS)
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
    keys = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    assert keys == sorted(keys)


def test_scan_parallel_identical(capsys):
    main(SCAN_ARGS)
    serial = capsys.readouterr().out
    main(SCAN_ARGS + ["--parallel", "4"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_scan_builds_disk_series_once_per_order(capsys, monkeypatch):
    # the rows of one p share the disk verdict's one continued fraction at
    # z = sign(c): 30 passes for 30 x 3 x 2 rows at negative c, the
    # beta = 0.5 rows included
    calls = []
    real = disk._real_axis

    def counting(q, s, which):
        calls.append(q)
        return real(q, s, which)

    monkeypatch.setattr(disk, "_real_axis", counting)
    code = main(["scan", "--b", "1", "--c=-0.1", "--p-range", "0,3",
                 "--alpha-range", "0,0.5", "--beta-range", "0.5,1",
                 "--class", "convex", "--steps", "30,3,2"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 180
    assert len(calls) == 30
    assert len(set(calls)) == 30


def test_beta1_scan_runs_one_real_axis_pass_per_order(capsys, monkeypatch):
    # every row, beta = 1 or not, is decided at z = sign(c): one continued
    # fraction per order p for 30 x 3 x 2 rows
    calls = []
    real = disk._real_axis

    def counting(q, s, which):
        calls.append(q)
        return real(q, s, which)

    monkeypatch.setattr(disk, "_real_axis", counting)
    for klass in ("star", "convex"):
        calls.clear()
        code = main(["scan", "--b", "1", "--c", "1", "--p-range=-0.9,20",
                     "--alpha-range", "0,0.5", "--beta-range", "0.5,1",
                     "--class", klass, "--steps", "30,3,2"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 180
        assert len(calls) == len(set(calls)) == 30


def test_scan_runs_one_sum_pass_per_order(capsys, monkeypatch):
    # the coefficient sums of the rows of one p share one kernel pass: 30
    # calls from the sum layer for 30 x 3 x 1 rows, in either class
    calls = []
    real = criteria._coefficients

    def counting(q, *args):
        calls.append(q)
        return real(q, *args)

    monkeypatch.setattr(criteria, "_coefficients", counting)
    for klass in ("star", "convex"):
        calls.clear()
        code = main(["scan", "--b", "1", "--c", "1", "--p-range=-0.9,20",
                     "--alpha-range", "0,0.5", "--beta-range", "1,1",
                     "--class", klass, "--steps", "30,3,1"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 90
        assert len(calls) == len(set(calls)) == 30


# SHA-256 of the whole scan CSV.  A deliberate change to scan output
# re-pins these hashes, with a note in CHANGES.md saying why the bytes moved;
# the test ids name the class, so a re-pin keeps the test names.
PINNED_SCANS = [
    (["--b", "1", "--c", "1", "--p-range=-0.9,20", "--class", "star"],
     "35de0935b2c7fe9f8cf453d21d1c1ac56831801d1cd42be62b429ab19d189c4a"),
    (["--b", "0.5", "--c=-25", "--p-range=-0.5,30", "--class", "convex"],
     "d97dbb60f3c2a34b9da2e9eb98178d0000239c8bbaf0e39d2282575f819fab46"),
]


@pytest.mark.parametrize("args,digest", PINNED_SCANS, ids=["star", "convex"])
def test_scan_csv_bytes_pinned(capsys, args, digest):
    code = main(["scan", *args, "--alpha-range", "0,0.5", "--beta-range", "1,1",
                 "--steps", "30,3,1"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_scan_degenerate_grid_matches_check(capsys):
    # both commands take the sup from disk.sup_estimates, and 17 digits round-trip
    for klass in ("star", "convex"):
        code = main(["scan", "--b", "1", "--c", "-0.1", "--p-range", "10,10",
                     "--alpha-range", "0,0", "--beta-range", "1,1",
                     "--class", klass, "--steps", "1"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        rec = check_record(10.0, 1.0, -0.1, 0.0, 1.0, klass)
        assert row[3] == ("holds" if rec["result"]["theorem"]["holds"] else "fails")
        assert row[4] == rec["result"]["lemma"]["status"]
        assert float(row[5]) == rec["result"]["disk"]["max_quotient"]


def test_scan_lemma_upset_in_p(capsys):
    # ranges starting with a negative number need the --flag=value form
    code = main(["scan", "--b", "1", "--c", "-1", "--p-range=-0.9,20",
                 "--alpha-range", "0,0", "--beta-range", "1,1",
                 "--class", "star", "--steps", "30,1,1"])
    assert code == 0
    col = [ln.split(",")[4] for ln in capsys.readouterr().out.splitlines()[1:]]
    first_hold = col.index("holds")
    assert all(v == "holds" for v in col[first_hold:])


def test_scan_inconsistency_exits_3(capsys, monkeypatch):
    # the forced contradiction of check, at the sum layer's per-order seam:
    # M1 = 99 gives the sum 198 against thr = 2 at alpha = 0, beta = 1, so
    # the lemma FAILS where the theorem holds; exit 3, CSV still printed
    monkeypatch.setattr(cli, "_moments", lambda params, which: (99.0, 0.0, 0.0))
    code = main(["scan", "--b", "1", "--c", "-0.1", "--p-range", "10,10",
                 "--alpha-range", "0,0", "--beta-range", "1,1",
                 "--class", "star", "--steps", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "error: implication chain violated on the grid\n"
    lines = captured.out.splitlines()
    assert lines[0] == "p,alpha,beta,theorem,lemma,disk_max"
    assert lines[1].split(",")[3:5] == ["holds", "fails"]


def test_scan_bad_flags(capsys):
    assert main(["scan", "--b", "1", "--c", "-1", "--p-range", "3,1",
                 "--alpha-range", "0,0", "--beta-range", "1,1",
                 "--class", "star", "--steps", "2"]) == 2
    assert main(["scan", "--b", "1", "--c", "-1", "--p-range", "1,3",
                 "--alpha-range", "0,0", "--beta-range", "1,1",
                 "--class", "star", "--steps", "0"]) == 2


@pytest.mark.parametrize("flag,text", [
    ("--p-range", "0,inf"), ("--p-range", "-inf,0"),
    ("--p-range", "-1.7e308,1.7e308"),  # HI - LO overflows
    ("--alpha-range", "0,inf"), ("--beta-range", "1,inf"),
    ("--p-range", "a,1"), ("--alpha-range", "0,x"),  # not numbers
])
def test_scan_range_must_be_finite(capsys, flag, text):
    # refused while parsing, naming the flag, not later as a nan order
    argv = {"--p-range": "0,1", "--alpha-range": "0,0", "--beta-range": "1,1", flag: text}
    assert main(["scan", "--b", "1", "--c", "-1", "--class", "star", "--steps", "1,1,1",
                 *(f"{k}={v}" for k, v in argv.items())]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected finite LO,HI" in err
    assert "nan" not in err


def test_scan_steps_must_be_integers(capsys):
    assert main([*SCAN_ARGS[:-1], "1,x,1"]) == 2
    assert "argument --steps: expected N or N1,N2,N3 (each >= 1), got '1,x,1'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("steps", ["1000001,1,1", "1000,1000,2"])
def test_scan_refuses_oversized_grid(capsys, monkeypatch, steps):
    # more than MAX_GRID_POINTS rows exits 2 before a grid or a layer is built
    monkeypatch.setattr(cli, "_linspace", _refuse_work)
    for name in ("starlike_condition", "convex_condition", "sum_reports",
                 "_general_qs", "_moments", "_lane_n"):
        monkeypatch.setattr(cli, name, _refuse_work)
    assert_refused_before_work(capsys, monkeypatch, [*SCAN_ARGS[:-1], steps])


def _bits(xs):
    return [struct.pack("d", x) for x in xs]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TINY = st.floats(min_value=-1e-306, max_value=1e-306)  # steps that underflow


@settings(max_examples=500, deadline=None)
@given(st.one_of(FINITE, TINY), st.one_of(FINITE, TINY), st.integers(1, 200))
@example(-0.0, -0.0, 1)
@example(-0.0, 0.0, 3)
@example(0.0, -0.0, 2)
@example(5e-324, 1e-323, 200)  # step == 0: the i / div * delta branch
@example(-1.7976931348623157e308, 1.7976931348623157e308, 5)  # hi - lo overflows
@example(-1e308, 1e308, 1)  # 0 * inf
def test_linspace_bit_equal_numpy(a, b, n):
    lo, hi = min(a, b), max(a, b)
    with np.errstate(all="ignore"):  # hi - lo may overflow, as it does in floats
        want = np.linspace(lo, hi, n).tolist()
    assert _bits(cli._linspace(lo, hi, n)) == _bits(want)


# b as the named kinds and the generalized benchmark grid have it, or drawn
SCAN_B = st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(-0.9, 5.0))


@settings(max_examples=300, deadline=None)
@given(
    b=SCAN_B,
    c=st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -25.0, 2000.0, -1.24e5])),
    q_lo=st.floats(-0.5, 25.0),
    p_span=st.floats(0.0, 30.0),
    alpha=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 1.0)),
    beta=st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 1.0)),
    klass=st.sampled_from(["star", "convex"]),
    steps=st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3)),
)
@example(b=1.0, c=-3e5, q_lo=1.0, p_span=3.0, alpha=(0.0, 0.5), beta=(1.0, 0.0),
         klass="star", steps=(2, 2, 1))  # every sum overflows: lemma fails, disk_max inf
@example(b=1.0, c=-3e5, q_lo=1.0, p_span=3.0, alpha=(0.0, 0.5), beta=(0.5, 1.0),
         klass="convex", steps=(2, 2, 2))
@example(b=1.0, c=-1.24e5, q_lo=1.0, p_span=3.0, alpha=(0.0, 0.5), beta=(0.5, 1.0),
         klass="convex", steps=(2, 2, 2))  # the Kahan pass overflows at p = 0
@example(b=1.0, c=1.0, q_lo=0.1, p_span=0.0, alpha=(0.0, 0.5), beta=(0.5, 1.0),
         klass="star", steps=(1, 2, 2))  # p = -0.9: u/z has a zero in the disk
@example(b=1.0, c=1.0, q_lo=0.1, p_span=0.0, alpha=(0.0, 0.5), beta=(0.5, 1.0),
         klass="convex", steps=(1, 2, 2))
def test_scan_rows_equal_per_class_oracle(b, c, q_lo, p_span, alpha, beta, klass, steps):
    # scan's per-order evaluation gives the rows, bit for bit, and the
    # consistent flag of the per-class layer calls, or the same error
    p_lo = q_lo - (b + 1.0) / 2.0
    a_lo, b_lo = alpha[0], beta[0]
    args = (b, c, (p_lo, p_lo + p_span), (a_lo, a_lo + alpha[1] * (0.999 - a_lo)),
            (b_lo, b_lo + beta[1] * (1.0 - b_lo)), klass, steps)
    try:
        rows, consistent = scalar_scan_rows(*args)
    except BesselGeomError as exc:
        with pytest.raises(type(exc)) as got:
            scan_record(*args)
        assert str(got.value) == str(exc)
        return
    result = scan_record(*args)["result"]
    assert repr(result["rows"]) == repr(rows)
    assert result["consistent"] is consistent


def test_scan_consistent_covers_every_row(monkeypatch):
    # a contradiction at the first of three orders (M1 = 99 there: the lemma
    # fails where the theorem holds) makes the whole grid inconsistent, in
    # scan and in the per-class oracle alike
    real = criteria._moments

    def fake(params, which):
        return (99.0, 0.0, 0.0) if params.p == 10.0 else real(params, which)

    monkeypatch.setattr(criteria, "_moments", fake)
    monkeypatch.setattr(cli, "_moments", fake)
    args = (1.0, -0.1, (10.0, 12.0), (0.0, 0.0), (1.0, 1.0), "star", (3, 1, 1))
    rows, consistent = scalar_scan_rows(*args)
    result = scan_record(*args)["result"]
    assert [r["lemma"] for r in rows] == ["fails", "holds", "holds"]
    assert repr(result["rows"]) == repr(rows)
    assert consistent is result["consistent"] is False


def test_scan_overflow_and_zero_rows():
    # the two edges the property above names: sums that overflow and a zero
    # of u/z in the disk both read lemma fails and disk_max inf
    for c, p in ((-3e5, 0.0), (1.0, -0.9)):
        for klass in ("star", "convex"):
            rec = scan_record(1.0, c, (p, p), (0.0, 0.5), (1.0, 1.0), klass, (1, 2, 1))
            for row in rec["result"]["rows"]:
                assert (row["lemma"], row["disk_max"]) == ("fails", math.inf)


@pytest.mark.parametrize("klass", ["star", "convex"])
@pytest.mark.parametrize("c,p_range,message", [
    ("-1", "-1.5,-1.2", "condition requires q > 0, got q = -0.5"),
    ("-1e9", "0,3", "continued fraction for |c| = 1000000000.0 needs more than 10000 levels"),
])
def test_scan_order_error_precedence(capsys, klass, c, p_range, message):
    # the first order that fails names the first layer that refuses it, the
    # closed form before the sum before the disk, and no row is printed
    code = main(["scan", "--b", "1", f"--c={c}", f"--p-range={p_range}",
                 "--alpha-range", "0,0.5", "--beta-range", "1,1",
                 "--class", klass, "--steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scan_record_validates_schema():
    rec = scan_record(1.0, -1.0, (0.0, 3.0), (0.0, 0.0), (1.0, 1.0), "star", (4, 1, 1))
    jsonschema.validate(rec, SCHEMA)
    assert rec["result"]["consistent"]


# ---------------------------------------------------------------------------
# harness-level behavior


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_json_output_deterministic(capsys):
    argv = ["eval", "--p", "0.5", "--b", "2", "--c", "-1", "--z", "0.25,0.1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def _run_module(module, *argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point():
    # python -m besselgeom (__main__.py) and python -m besselgeom.cli (its
    # __main__ block) exit with main's code
    proc = _run_module("besselgeom", "eval", "--p", "0", "--b", "1", "--c", "1", "--z", "1")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    proc = _run_module("besselgeom", "threshold", "--figure", "1")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_THRESHOLDS[1]
    for module in ("besselgeom", "besselgeom.cli"):
        proc = _run_module(module, "eval", "--p", "0", "--b", "1", "--c", "1", "--z", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_all_builders_validate():
    records = [
        eval_record(1.5, 1.0, -1.0, complex(2.0, 0.0), 1e-12, True),
        check_record(1.0, 1.0, -1.0, 0.2, 0.7, "convex", "lemma", "printed"),
        threshold_record(5, 1e-10),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["figure", "--figure", "6", "--low", "-2", "--high", "3", "--step", "0.25"]) == 0
    records.append(json.loads(out.getvalue()))
    for rec in records:
        jsonschema.validate(rec, SCHEMA)


# ---------------------------------------------------------------------------
# JSON records are json.dumps(sort_keys=True, indent=2); the figure table's
# rows come from one template, chunk by chunk, which must write the same bytes


def dumps(record):
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def figure_record(figure, low, high, step, rows):
    """The figure record of a window, its rows from (x, g) pairs."""
    spec = thresholds.FIGURES[figure]
    result = {"label": spec.label, "singularity": spec.singularity,
              "rows": [{"x": x, "g": g} for x, g in rows]}
    inputs = {"figure": figure, "low": low, "high": high, "step": step}
    return {"schema_version": cli.SCHEMA_VERSION, "command": "figure",
            "inputs": inputs, "result": result}


def figure_oracle(figure, low, high, step, fmt, table=None):
    """figure's output, row by row from figure_table (or the table given).

    JSON is dumps of the record with a {"g", "x"} dict per row; CSV is the
    line x,g and one line of format(v, ".17g") of x and g per row.
    """
    if table is None:
        table = thresholds.figure_table(figure, low, high, step)
    rows = table.tolist()
    if fmt == "csv":
        return "x,g\n" + "".join(f"{format(x, '.17g')},{format(g, '.17g')}\n" for x, g in rows)
    return dumps(figure_record(figure, low, high, step, rows))


def figure_output(figure, low, high, step, fmt="json"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["figure", "--figure", str(figure), f"--low={low!r}",
                     f"--high={high!r}", f"--step={step!r}", "--format", fmt])
    assert code == 0
    return out.getvalue()


@st.composite
def figure_windows(draw):
    """(figure, low, high, step, case) of a figure table window.

    case "singular" puts a sample within 1e-3 right of the singularity, where
    exp(1/(x - s)) overflows and g saturates; "skipped" has one sample, within
    SINGULAR_SKIP of the singularity (or on it), so the table is empty;
    "finite" keeps at least 0.01 away from the singularity.
    """
    figure = draw(st.sampled_from(sorted(thresholds.FIGURES)))
    s = thresholds.FIGURES[figure].singularity
    case = draw(st.sampled_from(["singular", "skipped", "finite"]))
    if case == "singular":
        x0 = s + draw(st.floats(1e-10, 1e-3))
        step = draw(st.floats(1e-3, 0.5))
        before, after = draw(st.integers(0, 20)), draw(st.integers(0, 20))
        low, high = x0 - before * step, x0 + max(after, 1 - before) * step
    elif case == "skipped":
        low = s + draw(st.just(0.0) | st.floats(-9e-13, 9e-13))
        high = low + draw(st.floats(1e-6, 1.0))
        step = (high - low) * draw(st.floats(1.5, 10.0))
    else:
        step = draw(st.floats(1e-3, 1.0))
        span = draw(st.integers(1, 40)) * step
        away = draw(st.floats(0.01, 50.0))
        low = s + away if draw(st.booleans()) else s - away - span
        high = low + span
    return figure, low, high, step, case


@settings(max_examples=150, deadline=None)
@given(figure_windows())
def test_figure_json_is_json_dumps(window):
    figure, low, high, step, case = window
    table = thresholds.figure_table(figure, low, high, step)
    assert figure_output(figure, low, high, step) == figure_oracle(figure, low, high, step, "json", table)
    gs = table[:, 1].tolist()
    if case == "singular":
        assert not all(map(math.isfinite, gs))
    elif case == "skipped":
        assert gs == []


def test_figure_json_nonfinite_rows():
    # no figure window gives g = nan; the template writes it as json does
    gs = (math.nan, math.inf, -math.inf, 5e-324)
    table = np.array([[-0.0, g] for g in gs])
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_figure(figure_record(1, 0.0, 1.0, 0.5, []), table, fmt)
        assert out.getvalue() == figure_oracle(1, 0.0, 1.0, 0.5, fmt, table)


CHUNK = cli._FIGURE_CHUNK


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_figure_chunk_boundaries(rows, fmt):
    # the samples 3 + i / 1024 are exact, so the window has exactly `rows` rows
    low, step = 3.0, 2.0 ** -10
    high = low + (rows - 1) * step
    assert len(thresholds.figure_table(4, low, high, step)) == rows
    assert figure_output(4, low, high, step, fmt) == figure_oracle(4, low, high, step, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_figure_saturated_rows_in_a_later_chunk(fmt):
    # the window starts left of g_1's singularity x = -2 and crosses it past
    # the first chunk; right of it exp(1/(x + 2)) overflows on the samples up
    # to about 1.4e-3 away, so those rows are inf in the second chunk only
    step = 2.0 ** -14
    low = -2.0 - (CHUNK + 76.5) * step
    high = low + 2 * CHUNK * step
    table = thresholds.figure_table(1, low, high, step)
    assert len(table) == 2 * CHUNK + 1
    finite = np.isfinite(table[:, 1])
    assert finite[:CHUNK].all() and not finite[CHUNK:].all()
    out = figure_output(1, low, high, step, fmt)
    assert out == figure_oracle(1, low, high, step, fmt, table)
    assert ("Infinity" if fmt == "json" else "inf") in out


def test_audit_report_bytes():
    # scripts/generate_audit_report.py writes json.dumps(consistency_audit()) + LF
    committed = pathlib.Path(__file__).resolve().parents[1] / "reports" / "corollary_audit.json"
    assert committed.read_text("utf-8") == dumps(consistency_audit())


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_parser_once(capsys, monkeypatch):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert main(SCAN_ARGS) == 0
        assert main(["threshold", "--figure", "2"]) == 0
        assert main(["check", "--mode", "bogus"]) == 2
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(builds) == 1


CHECK_ARGS = ["check", "--p", "2", "--b", "1", "--c", "-1", "--alpha", "0",
              "--beta", "1", "--class", "convex"]
INTERLEAVED = [
    SCAN_ARGS,
    [*CHECK_ARGS, "--mode", "disk"],
    CHECK_ARGS,
    ["figure", "--figure", "4", "--low", "-1.9", "--high", "5", "--step", "0.5"],
]


def test_reused_parser_matches_fresh(capsys):
    shared = []
    for argv in INTERLEAVED:
        assert main(argv) == 0
        shared.append(capsys.readouterr())
    for argv, want in zip(INTERLEAVED, shared):
        cli._parser.cache_clear()
        assert main(argv) == 0
        assert capsys.readouterr() == want
    assert json.loads(shared[2].out)["inputs"]["mode"] == "all"


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["check", "--mode", "bogus"], [*CHECK_ARGS, "--mode", "bogus"],
    ["scan", *SCAN_ARGS[1:-1], "0"], ["figure", "--figure", "7"],
])
def test_usage_errors_with_reused_parser(capsys, argv):
    assert main(SCAN_ARGS) == 0
    capsys.readouterr()
    assert main(argv) == 2
    shared = capsys.readouterr()
    cli._parser.cache_clear()
    assert main(argv) == 2
    assert capsys.readouterr() == shared
    assert shared.out == "" and shared.err.startswith("usage: besselgeom")
