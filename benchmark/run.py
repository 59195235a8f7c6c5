"""Benchmark of besselgeom: one run of one workload, outputs checked.

    python3 benchmark/run.py --workload scan-grid --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its src/ directory, never from an installed copy.  A run

1. times set-up in SETUP_RUNS fresh interpreters (import besselgeom and
   besselgeom.cli, then one warm-up operation) after one untimed start that
   fills the bytecode cache;
2. runs the workload in one more fresh interpreter (worker.py): whole rounds
   in a closed loop with one caller, no threads, scan --parallel 1 and
   BESSEL_GEOM_THREADS unset, until --seconds have passed;
3. checks every distinct output against references computed apart from the
   program (checks.py) and every repeat against the first output;
4. prints workload-specific figures, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
   BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

The worker's report (and, traced, its spans) is kept under benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 4
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BESSEL_GEOM_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc


def measure_setup(workload: str) -> list[dict]:
    _worker(["--setup-only", "--workload", workload])  # fills __pycache__, untimed
    return [json.loads(_worker(["--setup-only", "--workload", workload]).stdout)
            for _ in range(SETUP_RUNS)]


# ---------------------------------------------------------------------------
# checking


def check_outputs(workload: str, seed: int, outputs: dict) -> tuple[list[str], list[str]]:
    """(errors in outputs of operations that did not fail, descriptions of failed operations)."""
    import checks

    errors, failures = [], []
    disk = checks.DiskReference() if workload == "scan-grid" else None
    for key, (kind, inp) in enumerate(wl.round_inputs(workload, seed)):
        rec = outputs[str(key)]
        out = rec["output"]
        if not rec["ok"]:
            failures.append(f"{kind} {inp!r}: {out}")
        elif kind == "scan":
            errors += checks.check_scan(inp, out, disk)
        elif kind == "certify":
            errors += checks.check_certify(inp, out)
        elif kind == "threshold":
            errors += checks.check_threshold(inp, out)
        elif kind == "figure":
            errors += checks.check_figure(inp, out)
        else:
            errors += checks.check_audit(out)
    return errors, failures


# ---------------------------------------------------------------------------
# metrics


def _op_times(report: dict) -> list[tuple[str, int, bool]]:
    """(kind, ns, ok) of every operation of the run, in order."""
    kinds = report["kinds"]
    return [(kinds[i % len(kinds)], ns, bool(ok))
            for i, (ns, ok) in enumerate(zip(report["times_ns"], report["ok"]))]


def _round_totals(times, ops_per_round: int, kinds=None) -> list[float]:
    """Sum of the op times of each round, in ms, restricted to the given kinds."""
    totals = []
    for r in range(len(times) // ops_per_round):
        chunk = times[r * ops_per_round:(r + 1) * ops_per_round]
        totals.append(sum(ns for kind, ns, _ in chunk if kinds is None or kind in kinds) / 1e6)
    return totals


def end_to_end(report: dict, setup: list[dict]) -> tuple[dict, dict]:
    """(end-to-end metrics common to all workloads, workload-specific figures)."""
    times = _op_times(report)
    n = len(report["kinds"])
    ok_ns = [ns for _, ns, ok in times if ok]
    all_ns = sum(ns for _, ns, _ in times)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
        "ops_per_s": (len(ok_ns) / (all_ns / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(ok_ns) / 1e6, "ms"),
    }
    workload = report["workload"]
    if workload == "scan-grid":
        points = len(ok_ns) * wl.SCAN_STEPS[0] * wl.SCAN_STEPS[1] * wl.SCAN_STEPS[2]
        extra = {
            "scan_points_per_s": (points / (all_ns / 1e9), "1/s"),
            "scan_p50_ms": (statistics.median(ok_ns) / 1e6, "ms"),
        }
    elif workload == "point-certify":
        extra = {
            "certify_points_per_s": (len(ok_ns) / (all_ns / 1e9), "1/s"),
            "certify_p50_us": (statistics.median(ok_ns) / 1e3, "us"),
        }
    else:
        def median_of(kind):
            return statistics.median(ns for k, ns, _ in times if k == kind) / 1e6

        extra = {
            "threshold_sweep_ms": (statistics.median(_round_totals(times, n, {"threshold"})), "ms"),
            "figure_p50_ms": (median_of("figure"), "ms"),
            "audit_p50_ms": (median_of("audit"), "ms"),
        }
    return metrics, extra


def per_layer(report: dict, setup: list[dict]) -> dict:
    metrics = {k: tuple(v) for k, v in report["layers"].items()}
    metrics["setup.import_ms"] = (statistics.median(s["import_s"] for s in setup) * 1e3, "ms")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "besselgeom" / "__init__.py").is_file():
        print(f"error: no besselgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = OUT / f"{stem}.json"

    setup = measure_setup(args.workload)
    _worker(["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(report_path)])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    setup.append(report["setup"])

    errors, failures = check_outputs(args.workload, args.seed, report["outputs"])
    if report["repeat_mismatches"]:
        errors.append(f"{report['repeat_mismatches']} repeated operations gave a different output")
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in failures:
        print(f"failed operation (every round): {line}", file=sys.stderr)

    attempted = len(report["ok"])
    failed = report["ok"].count(0)
    if args.trace:
        metrics = per_layer(report, setup)
    else:
        metrics, extra = end_to_end(report, setup)
        for name, (value, unit) in {**metrics, **extra}.items():
            print(f"{args.workload} {name} {value:.6g} {unit}")
        print(f"{args.workload} rounds {report['rounds']} attempted {attempted} failed {failed}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
