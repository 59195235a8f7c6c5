"""CLI: records, schemas, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys

import jsonschema
import pytest

from besselgeom import SumReport, SumStatus, cli, disk
from besselgeom.cli import (
    check_record,
    eval_record,
    figure_record,
    load_output_schema,
    main,
    scan_record,
    threshold_record,
)

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


def test_check_disk_coefficient_cap_exits_2(capsys):
    # |c| = 1e6 exhausts the disk layer's term cap: a diagnostic, not a silent 0.0
    code = main(["check", "--p", "1", "--b", "1", "--c=-1e6", "--alpha", "0",
                 "--beta", "1", "--class", "star", "--mode", "disk"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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


def test_check_inconsistency_exits_3(capsys, monkeypatch):
    # force the lemma layer to contradict a passing theorem
    fake = SumReport(sum=99.0, tail_bound=0.0, threshold=2.0, holds=False,
                     margin=-97.0, status=SumStatus.FAILS)
    monkeypatch.setattr(cli, "starlike_sum", lambda *a, **k: fake)
    code = main(["check", "--p", "10", "--b", "1", "--c", "-0.1",
                 "--alpha", "0", "--beta", "1", "--class", "star"])
    assert code == 3
    captured = capsys.readouterr()
    assert "implication chain" in captured.err
    record = json.loads(captured.out)
    assert not record["result"]["consistent"]


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


# SHA-256 of the threshold JSON of every figure and of the figure table at the
# benchmark's seed-1 arguments.  A deliberate change to this output re-pins
# these hashes, with a note in CHANGES.md saying why the bytes moved.
PINNED_THRESHOLDS = {
    1: "6f08678ae9eda2d80b80e6dcaaf73f429fe785a5ef4afa262e1b05d56ce0c7a6",
    2: "b57a3302a9f1195221485e2f7436f414013de5069847b17657596564b34ecfea",
    3: "0247602d8a32a7a8c77489415d05ffc50680eb44252ff4b9385d76bb7522e467",
    4: "1ffe6aac6023509f0068c3cb2425f620fa4bd0d54d6b37787b8f8c4c0e5977b0",
    5: "a07ade262a45d7cf60e7fff4f2cf4ee2ebf746dbc725c4a028fbc012b60472c2",
    6: "62f8f7d14fdeda046eefb9626046422d91f32dfd709c148d16c4dd919672f6c7",
}
PINNED_FIGURE_ARGS = ["figure", "--figure", "1", "--low=-1.988656357558876",
                      "--high=98.00134364244113", "--step=0.01"]
PINNED_FIGURES = {
    "json": "55e793912d7b1c8296a665281fc785b6d01a605e270c540c509e70b65b4c4b79",
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
    # the rows of one p share the disk series: 30 builds for 30 x 3 x 2 rows
    builds = []
    real = disk._coefficient_array

    def counting(params, rmax):
        builds.append(params.p)
        return real(params, rmax)

    monkeypatch.setattr(disk, "_coefficient_array", counting)
    code = main(["scan", "--b", "1", "--c", "-1", "--p-range", "0,3",
                 "--alpha-range", "0,0.5", "--beta-range", "0.5,1",
                 "--class", "convex", "--steps", "30,3,2"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 180
    assert len(builds) == 30
    assert len(set(builds)) == 30


# SHA-256 of the whole scan CSV.  A deliberate change to scan output
# re-pins these hashes, with a note in CHANGES.md saying why the bytes moved.
PINNED_SCANS = [
    (["--b", "1", "--c", "1", "--p-range=-0.9,20", "--class", "star"],
     "e193c953783d85944f434bfa3deaef8cecf75d3586484f2f422a4e1472bb1ce1"),
    (["--b", "0.5", "--c=-25", "--p-range=-0.5,30", "--class", "convex"],
     "2ce97a784f79e083c3d62a5224f59b5301969ec312e509b019a5cba33b9e0b41"),
]


@pytest.mark.parametrize("args,digest", PINNED_SCANS)
def test_scan_csv_bytes_pinned(capsys, args, digest):
    code = main(["scan", *args, "--alpha-range", "0,0.5", "--beta-range", "1,1",
                 "--steps", "30,3,1"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_scan_env_override(capsys, monkeypatch):
    main(SCAN_ARGS)
    serial = capsys.readouterr().out
    monkeypatch.setenv("BESSEL_GEOM_THREADS", "0")  # auto
    main(SCAN_ARGS)
    assert capsys.readouterr().out == serial
    monkeypatch.setenv("BESSEL_GEOM_THREADS", "abc")
    assert main(SCAN_ARGS) == 2


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
