"""CLI: records, schemas, exit codes, determinism."""

import hashlib
import json
import math
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselgeom import DomainError, SumReport, SumStatus, bessel, cli, criteria, disk, thresholds
from besselgeom.cli import (
    check_record,
    eval_record,
    figure_record,
    load_output_schema,
    main,
    scan_record,
    threshold_record,
    to_json,
)
from besselgeom.conditions import consistency_audit

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
    assert res["disk"]["violations"] == 0
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
    disk_rec = rec["result"]["disk"]
    assert disk_rec["max_quotient"] == math.inf
    assert disk_rec["violations"] == 1
    assert disk_rec["argmax"] == {"re": 1.0, "im": 0.0}
    assert rec["result"]["consistent"]  # the theorem and the lemma fail too


def test_check_beta_below_1_false_membership(capsys):
    # the 12-ring grid read max_quotient 0.9056390717340785 at z = 0.999 with
    # violations 0 for this non-member; the exact sup at z = 1 exceeds beta
    code, rec = run_json(capsys, [
        "check", "--p=-0.7760812953581148", "--b", "1", "--c", "0.1036127991657812",
        "--alpha", "0.19897086576962877", "--beta", "0.9078856454907038",
        "--class", "star", "--mode", "disk"])
    assert code == 0
    assert rec["result"]["disk"] == {
        "max_quotient": 0.908536345275895, "argmax": {"re": 1.0, "im": 0.0},
        "violations": 1, "degenerate_points": 0,
    }
    assert rec["result"]["consistent"]


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
    assert res["disk"]["violations"] == 0
    assert res["consistent"]
    code, rec = run_json(capsys, argv)
    assert code == 0
    assert not rec["result"]["theorem"]["holds"]


def test_check_inconsistency_exits_3(capsys, monkeypatch):
    # force the lemma layer to contradict a passing theorem
    fake = SumReport(sum=99.0, tail_bound=0.0, threshold=2.0, holds=False,
                     margin=-97.0, status=SumStatus.FAILS)
    monkeypatch.setattr(cli, "sum_reports", lambda params, classes, **k: [fake] * len(classes))
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
    "theorem": "4cd13b791d0183b0ded540c0de1263cf14c7c60c10b042704930f9c37cd61f56",
    "lemma": "8304edee39455a1ee734d96734da732df992e4d49a27f51c3059919b5e28f9bb",
    "disk": "35c88c9b0869fbb9f935151221d6a0bd6706e465c977999245f84c31a75e7a56",
    "all": "66bf8d37ce42b8456de8324bea0071fe5f6fe8c636926a8b95795f7342f340df",
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
                  "7f6f44ea66ddb1f78569037da5ee38924feb8de0f3bf2e7f8d36cfecd7fb59e2"),
    "eval-complex": (["eval", "--p", "0.5", "--b", "2", "--c", "-1", "--z", "0.25,0.1"],
                     "8f9214c513c71c969097c690826a46685e03bf9ab6c494cbb1aaeb4dae13ae07"),
    "eval-w": (["eval", "--p", "1.5", "--b", "1", "--c", "-1", "--z", "2", "--w"],
               "e7892a781a8237f6545da8bd8df9cff613873f4921ae7559269a85da125c6d5a"),
    "eval-zero": (["eval", "--p", "1", "--b", "1", "--c", "-1", "--z", "0"],
                  "88c5f8b830a654c3d052a9df80d27550a09bab58a337d8aa26fae34b139a8a01"),
    "check-saturated": (["check", "--p", "0", "--b", "1", "--c=-2000", "--alpha", "0",
                         "--beta", "1", "--class", "star", "--mode", "theorem"],
                        "5e4d0d8ebf356fe42662b1bd7189bc48eb4562beb21baddebf616a3832172bc8"),
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
    # low + n * step rounds past the largest double; the sample is not finite
    assert main(["figure", "--figure", "1", "--low=1e308",
                 "--high=1.7976931348623157e308", f"--step={7.976931348623157e307 / (1 - 5e-10)!r}"]) == 2
    assert "x must be finite" in capsys.readouterr().err


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
    1: "a93fd3e7e948ab376d606cf3391b953a38af7af5efe7e3e1ecfe7519a6f06a04",
    2: "c8ce219a89232badc1c823cd4a44a49d5bf5b47ae2607ff599c5a805c4587699",
    3: "59b3d48fa4923c46295c104d6e77faa2e57ab565091cc93d8677582af9e4e56c",
    4: "9544b7000d4b357abc3fc853f8ca5b265f2d89431d8e6cde67a18cf35cdad13d",
    5: "5ef1427afd234d3848b4ae096b601068a1e5930d3d678f77021f62ab53873585",
    6: "9af19eba9d8ad6e9edfd6b72c7836d71cf6dfb27d187d7e02b21ed4f4bc5d80b",
}
PINNED_FIGURE_ARGS = ["figure", "--figure", "1", "--low=-1.988656357558876",
                      "--high=98.00134364244113", "--step=0.01"]
PINNED_FIGURES = {
    "json": "d6e3dfc9e5ddfeb8424444029646811bc854bf4307c7b45aa6dfc025b5016771",
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
    # z = sign(c): 30 passes for 30 x 3 x 2 rows at negative c, whose
    # beta = 0.5 rows no longer reach a grid
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

    def counting(q, x, eps, rho, weight):
        calls.append(q)
        return real(q, x, eps, rho, weight)

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
    code = main(["scan", "--b", "1", "--c", "-0.1", "--p-range", "10,10",
                 "--alpha-range", "0,0", "--beta-range", "1,1",
                 "--class", "star", "--steps", "1"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    rec = check_record(10.0, 1.0, -0.1, 0.0, 1.0, "star")
    assert row[3] == ("holds" if rec["result"]["theorem"]["holds"] else "fails")
    assert row[4] == rec["result"]["lemma"]["status"]
    assert float(row[5]) == pytest.approx(rec["result"]["disk"]["max_quotient"], rel=1e-15)


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
    # the same forced contradiction as for check: exit 3, CSV still printed
    fake = SumReport(sum=99.0, tail_bound=0.0, threshold=2.0, holds=False,
                     margin=-97.0, status=SumStatus.FAILS)
    monkeypatch.setattr(cli, "sum_reports", lambda params, classes, **k: [fake] * len(classes))
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "besselgeom", "eval", "--p", "0", "--b", "1",
         "--c", "1", "--z", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)


def test_all_builders_validate():
    records = [
        eval_record(1.5, 1.0, -1.0, complex(2.0, 0.0), 1e-12, True),
        check_record(1.0, 1.0, -1.0, 0.2, 0.7, "convex", "lemma", "printed"),
        threshold_record(5, 1e-10),
        figure_record(6, -2.0, 3.0, 0.25),
    ]
    for rec in records:
        jsonschema.validate(rec, SCHEMA)


# ---------------------------------------------------------------------------
# JSON writer: json.dumps(sort_keys=True, indent=2) is the oracle


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "a\"b\\c", "\x00\x1f\x7f\n\t", "caf\xe9 \u2203 \U0001d400", "%r %%"])
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e16, 1e-5, 1e22, 123456789.0,
     math.inf, -math.inf, math.nan])
LEAVES = st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200) | FLOATS | TEXT


@st.composite
def float_tables(draw):
    """A list of flat float-row dicts, perhaps spoiled: (rows, spoiled)."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [{k: draw(finite) for k in keys} for _ in range(draw(st.integers(2, 5)))]
    how = draw(st.sampled_from(["none", "int", "inf", "nan", "missing", "extra", "list"]))
    row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    if how == "int":
        row[key] = 3
    elif how in ("inf", "nan"):
        row[key] = float(how)
    elif how == "missing":
        del row[key]
    elif how == "extra":
        row["+".join(keys) + "+"] = 1.5  # longer than every key, so a new one
    elif how == "list":
        row[key] = [1.0]
    return rows, how != "none"


TABLES = float_tables().map(lambda drawn: drawn[0])
RECORDS = st.recursive(
    LEAVES | TABLES,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(RECORDS)
def test_to_json_equals_json_dumps(obj):
    assert to_json(obj) == oracle(obj)


@settings(max_examples=200, deadline=None)
@given(float_tables(), st.integers(0, 3))
def test_to_json_float_rows(drawn, depth):
    # the template path takes exactly the unspoiled tables, at any depth
    rows, spoiled = drawn
    assert (cli._float_rows(rows, "\n" + "  " * (depth + 1)) is None) == spoiled
    obj = rows
    for _ in range(depth):
        obj = {"rows": obj}
    assert to_json(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    object(), {1, 2}, b"bytes", 1j, [1.0, 1j], {"rows": [{"x": 1.0}, {"x": 1j}]},
    {"x": {(1, 2): 3}}, {1: 2}, [{1: 1.0}, {1: 2.0}],
])
def test_to_json_rejects_unsupported(obj):
    # json rejects all but the int key; to_json takes str keys only
    with pytest.raises(TypeError):
        to_json(obj)


def test_audit_report_bytes():
    # scripts/generate_audit_report.py writes to_json(consistency_audit()) + LF
    committed = pathlib.Path(__file__).resolve().parents[1] / "reports" / "corollary_audit.json"
    assert committed.read_text("utf-8") == to_json(consistency_audit()) + "\n"


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
