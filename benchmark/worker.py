"""One measured run of one workload, in a fresh interpreter.

    python3 benchmark/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE
    python3 benchmark/worker.py --setup-only --workload W

The clock starts before besselgeom is imported: set-up is the import of
besselgeom and besselgeom.cli plus one untimed warm-up operation of the
workload.  Then the worker repeats whole rounds of the workload in a closed
loop (one caller, no threads) until the run length has passed, and writes
every distinct output, every operation time, its peak RSS and, in a traced
run, the per-layer figures to FILE as JSON.  It checks nothing itself: run.py
compares the outputs against independent references afterwards.

Only sys, os and time are imported before the clock starts, so that the
imports the package makes itself (numpy, argparse, json) count as set-up.
"""

import os
import sys
import time

T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _args(argv):
    """Flags by hand: argparse is one of the package's own imports and must count as set-up."""
    out = {"--trace": "0", "--seconds": "10", "--seed": "0"}
    i = 0
    while i < len(argv):
        if argv[i] == "--setup-only":
            out["--setup-only"] = "1"
            i += 1
        else:
            out[argv[i]] = argv[i + 1]
            i += 2
    return out


def _import_package():
    sys.path.insert(0, SRC)
    import besselgeom
    import besselgeom.cli

    if not os.path.abspath(besselgeom.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"besselgeom was imported from {besselgeom.__file__}, not {SRC}")
    return besselgeom


def _run_cli(argv):
    """cli.main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    import contextlib
    import io

    from besselgeom import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _certify(bg, d):
    """The README quickstart calls for one draw: condition, sum, (u, u', u'')."""
    params = bg.BesselParams(d.p, d.b, d.c)
    cls = bg.ClassSpec(d.alpha, d.beta)
    if d.klass == "star":
        cond = bg.starlike_condition(params, cls)
        rep = bg.starlike_sum(params, cls)
    else:
        cond = bg.convex_condition(params, cls)
        rep = bg.convex_sum(params, cls)
    series = bg.eval_u_derivatives(params, d.z)
    return cond, rep, series


def _certify_output(result):
    cond, rep, series = result
    return {
        "condition": {"value": cond.value, "holds": cond.holds, "criterion": cond.criterion.value},
        "sum": {"sum": rep.sum, "tail_bound": rep.tail_bound, "threshold": rep.threshold,
                "margin": rep.margin, "holds": rep.holds, "status": rep.status.value},
        "series": [{"re": complex(s.value).real, "im": complex(s.value).imag,
                    "terms_used": s.terms_used, "tail_bound": s.tail_bound} for s in series],
    }


def build_round(name, seed, bg):
    """(kind, thunk) for each operation of one round; a thunk returns (ok, output)."""
    import workloads as wl

    return [(kind, _thunk(kind, inp, bg)) for kind, inp in wl.round_inputs(name, seed)]


def _thunk(kind, inp, bg):
    if kind == "certify":
        def certify():
            try:
                result = _certify(bg, inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                return False, {"error": type(exc).__name__, "message": str(exc)}
            return True, result
        return certify
    if kind == "audit":
        return lambda: (True, bg.conditions.consistency_audit())
    if kind == "scan":
        argv = inp.argv()
    elif kind == "threshold":
        argv = ["threshold", "--figure", str(inp)]
    else:
        argv = inp

    def command():
        rc, out, err = _run_cli(argv)
        return rc == 0, {"rc": rc, "stdout": out, "stderr": err}
    return command


class Timings:
    """Duration and success of every operation, in round order."""

    def __init__(self):
        from array import array

        self.ns = array("q")
        self.ok = array("b")


def warm_up(name, bg):
    import workloads as wl

    if name == "scan-grid":
        _run_cli(wl.SCAN_WARMUP.argv())
    elif name == "point-certify":
        _certify(bg, wl.CERTIFY_WARMUP)
    else:
        _run_cli(wl.THRESHOLD_WARMUP)


def run_rounds(ops, seconds, outputs, times, fixed_rounds=None):
    """Repeat whole rounds; keep the first output of each op, count repeats that differ.

    times is a Timings; it grows by nine bytes per operation, so a faster
    program that completes more operations barely moves the peak RSS.
    """
    clock = time.perf_counter_ns
    mismatches = 0
    rounds = 0
    start = clock()
    deadline = start + int(seconds * 1e9)
    while True:
        for key, (kind, op) in enumerate(ops):
            t0 = clock()
            ok, out = op()
            t1 = clock()
            if kind == "certify" and ok:
                out = _certify_output(out)
            times.ns.append(t1 - t0)
            times.ok.append(ok)
            if key not in outputs:
                outputs[key] = {"kind": kind, "ok": ok, "output": out}
            elif outputs[key]["output"] != out or outputs[key]["ok"] != ok:
                mismatches += 1
        rounds += 1
        if fixed_rounds is not None:
            if rounds >= fixed_rounds:
                break
        elif clock() >= deadline:
            break
    return rounds, clock() - start, mismatches


def main(argv):
    args = _args(argv)
    name = args["--workload"]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    bg = _import_package()
    t_import = time.perf_counter()
    warm_up(name, bg)
    t_setup = time.perf_counter()
    import json

    setup = {"import_s": t_import - T0, "setup_s": t_setup - T0}
    if "--setup-only" in args:
        print(json.dumps(setup))
        return 0

    import resource

    seed, seconds, trace = int(args["--seed"]), float(args["--seconds"]), args["--trace"] == "1"
    ops = build_round(name, seed, bg)
    outputs, times = {}, Timings()
    report = {"setup": setup}
    if not trace:
        rounds, _, mismatches = run_rounds(ops, seconds, outputs, times)
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        import spans as tracing

        rounds, untraced_ns, mismatches = run_rounds(ops, seconds / 2.0, outputs, times)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        _, traced_ns, more = run_rounds(ops, 0, outputs, times, fixed_rounds=rounds)
        mismatches += more
        layers = tracing.layer_metrics(tracer, rounds)
        layers["trace.overhead_ms"] = ((traced_ns - untraced_ns) / 1e6 / rounds, "ms")
        report["layers"] = layers
        rounds *= 2
        spans_path = args["--out"].replace(".json", ".spans.json.gz")
        tracer.dump(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    report.update({
        "workload": name, "seed": seed, "rounds": rounds,
        "kinds": [kind for kind, _ in ops],
        "repeat_mismatches": mismatches,
        "times_ns": times.ns.tolist(),
        "ok": times.ok.tolist(),
        "outputs": {str(k): v for k, v in outputs.items()},
    })
    with open(args["--out"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
