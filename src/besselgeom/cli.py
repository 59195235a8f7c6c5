"""Command-line front end: evaluate, check, threshold, figure, scan.

Every command assembles an OutputRecord

    {"schema_version", "command", "inputs", "result"}

and writes json.dumps(record, sort_keys=True, indent=2) and a LF.  The
figure table, the one record large enough for json's pure-Python indenting
encoder to cost time, is written with the same bytes by _write_figure:
straight from the x and g columns of figure_table's array, _FIGURE_CHUNK
rows at a time, each chunk one % of a repeated row template (JSON rows
spliced into the json.dumps text of the rest of the record, or CSV lines),
so neither a per-row object nor the text of the whole table is ever built.
eval, check and threshold always emit JSON; figure emits JSON or CSV on
request; scan always emits CSV with the fixed column set
p,alpha,beta,theorem,lemma,disk_max.  CSV cells use 17 significant digits,
which round-trips binary64 exactly.  The record layout is pinned by
output_schema.json shipped inside the package.

Exit codes: 0 success, 2 usage or domain error (one-line diagnostic on
stderr), 3 internal inconsistency (a sufficient condition passed while a
layer it implies failed; this should never happen and is continuously
property-tested).

Non-finite values can reach the output only through saturation of auxiliary
quantities; they serialize as JavaScript-style Infinity literals, which the
stdlib json module reads back.

scan runs the class-independent part of all three layers once per order p
(the closed form's (q, s), the sum's moments, the disk's n), then decides
each row of that p from them with the functions the conditions, sum_reports
and sup_estimates call.  main builds the argparse parser once per process,
on its first call (not at import), and reuses it: parsing never changes it.

This module never imports numpy: thresholds loads it for the sign scans of
threshold and the table of figure (and conditions for the corollary audit),
and the figure writer uses only the table's array methods.
Importing numpy costs about twice the rest of the package, and eval, check
and scan evaluate single points in pure Python.  scan takes its axes from
_linspace, which returns np.linspace's floats bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bessel import BesselParams, SeriesValue, eval_u_derivatives, eval_w
from .conditions import _GENERAL_VALUE, ConditionVerdict, Variant, _general_qs
from .conditions import convex_condition, starlike_condition
from .criteria import ClassSpec, QuotientKind, SumReport, SumStatus, _class_sum, _moments
from .criteria import sum_reports
from .disk import _lane_n, _sup, sup_estimate
from .errors import BesselGeomError, DomainError
from .thresholds import (
    DEFAULT_TOL,
    FIGURES,
    MAX_GRID_POINTS,
    RootResult,
    _spec,
    figure_eval,
    figure_table,
    find_all_thresholds,
    positivity_scan,
)

SCHEMA_VERSION = "1.2"

# The layers `check --mode` runs: one of them, or all three.
CHECK_MODES = ("lemma", "theorem", "disk", "all")

# Positivity-scan window reported by the threshold command: from just right
# of the essential singularity out to 50, at resolution 0.005.
POSITIVITY_MARGIN = 1e-3
POSITIVITY_HIGH = 50.0
POSITIVITY_STEP = 0.005


# ---------------------------------------------------------------------------
# serialization helpers


def _cnum(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _series(sv: SeriesValue) -> dict:
    return {
        "value": _cnum(sv.value),
        "terms_used": sv.terms_used,
        "tail_bound": sv.tail_bound,
    }


def _sum_report(rep: SumReport) -> dict:
    return {
        "sum": rep.sum,
        "tail_bound": rep.tail_bound,
        "threshold": rep.threshold,
        "holds": rep.holds,
        "margin": rep.margin,
        "status": rep.status.value,
    }


def _condition(v: ConditionVerdict, variant: Variant, inputs: dict) -> dict:
    return {
        "criterion": v.criterion.value,
        "variant": variant.value,
        "value": v.value,
        "holds": v.holds,
        "inputs": inputs,
    }


def _root(r: RootResult) -> dict:
    return {
        "x0": r.x0,
        "bracket": list(r.bracket),
        "iterations": r.iterations,
        "residual": r.residual,
    }


def _record(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def _emit_json(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


# One {"g", "x"} row of a figure table at its depth in the record, as
# json.dumps(indent=2) lays it out, and the text between two rows.
_FIGURE_ROW = '{\n        "g": %r,\n        "x": %r\n      }'
_FIGURE_SEP = ",\n      "

# Rows of a figure table formatted and written at a time: about 70 KB of JSON
# text, small beside a whole table's, and large enough that the per-chunk
# slicing, tolist and write cost little beside the row formatting.
_FIGURE_CHUNK = 1024


def _write_figure(record: dict, table, fmt: str) -> None:
    """Write a figure record, its rows the (n, 2) array of columns [x, g], to stdout.

    CSV is the line x,g and one line "%.17g,%.17g" % (x, g) per row.  JSON
    is json.dumps(record, sort_keys=True, indent=2) and a LF, as if "rows"
    held a {"g", "x"} dict per row: the record is dumped with "rows": [],
    which occurs once in that text (a quote inside a string is escaped), and
    the rows are written in there from _FIGURE_ROW.  Either format writes
    _FIGURE_CHUNK rows at a time, one % of a repeated row template over the
    chunk's columns, so no row object and no text of the whole table is
    built.  A finite float repr contains neither inf nor nan, so mapping
    those to Infinity and NaN, done only when a g is not finite, writes the
    non-finite values as json does.
    """
    write = sys.stdout.write
    n = len(table)
    if fmt == "csv":
        row, sep, cols = "%.17g,%.17g", "\n", table
        head, tail, empty = "x,g\n", "\n", "x,g\n"
    else:
        row, sep, cols = _FIGURE_ROW, _FIGURE_SEP, table[:, ::-1]
        text = json.dumps(record, sort_keys=True, indent=2)
        before, after = text.split('"rows": []')
        head, tail, empty = before + '"rows": [\n      ', "\n    ]" + after + "\n", text + "\n"
    if not n:
        write(empty)
        return
    gs = table[:, 1]
    nonfinite = fmt != "csv" and not (math.isfinite(gs.min()) and math.isfinite(gs.max()))
    write(head)
    for i in range(0, n, _FIGURE_CHUNK):
        chunk = cols[i:i + _FIGURE_CHUNK]
        text = sep.join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
        if nonfinite:
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        if i:
            write(sep)
        write(text)
    write(tail)


# One scan CSV row: p, alpha and beta preformatted, then theorem, lemma and disk_max.
_SCAN_ROW = "%s,%s,%s,%s,%s,%.17g"


def load_output_schema() -> dict:
    """The published schema every OutputRecord must validate against."""
    from importlib import resources

    text = resources.files("besselgeom").joinpath("output_schema.json").read_text("utf-8")
    return json.loads(text)


# ---------------------------------------------------------------------------
# flag parsing


def _complex_flag(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


def _range_flag(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) == 2:
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            lo = hi = None
        # nan fails lo <= hi; an infinite end or an overflowing span fails isfinite
        if lo is not None and lo <= hi and math.isfinite(hi - lo):
            return lo, hi
    raise argparse.ArgumentTypeError(f"expected finite LO,HI with LO <= HI, got {text!r}")


def _steps_flag(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    try:
        ns = [int(p) for p in parts]
    except ValueError:
        ns = []
    if len(ns) == 1:
        ns = ns * 3
    if len(ns) == 3 and all(n >= 1 for n in ns):
        return ns[0], ns[1], ns[2]
    raise argparse.ArgumentTypeError(f"expected N or N1,N2,N3 (each >= 1), got {text!r}")


# ---------------------------------------------------------------------------
# record builders (pure: no printing, no exiting; tests call these directly)


def _layers(klass: str) -> tuple:
    """(condition, QuotientKind) of a --class value; the condition is read from the globals."""
    if klass == "star":
        return starlike_condition, QuotientKind.STARLIKE
    if klass == "convex":
        return convex_condition, QuotientKind.CONVEX
    raise DomainError(f"class must be star or convex, got {klass!r}")


def _consistent(
    holds: bool | None, status: SumStatus | None, sup: float | None, beta: float
) -> bool:
    """The chain theorem => lemma => sup <= beta; a layer that did not run is None."""
    if status is None:  # both links pass through the lemma
        return True
    if holds and status is SumStatus.FAILS:
        return False
    return sup is None or sup <= beta or status is not SumStatus.HOLDS


def eval_record(p: float, b: float, c: float, z: complex, eps: float, want_w: bool) -> dict:
    params = BesselParams(p, b, c)
    u, up, us = eval_u_derivatives(params, z, eps=eps)
    result = {"u": _series(u), "u_prime": _series(up), "u_second": _series(us)}
    if want_w:
        if z.imag != 0.0:
            raise DomainError("--w needs a real positive z, got a nonzero imaginary part")
        result["w"] = _series(eval_w(params, z.real, eps=eps))
    inputs = {"p": p, "b": b, "c": c, "z": _cnum(z), "eps": eps, "w": want_w}
    return _record("eval", inputs, result)


def check_record(
    p: float,
    b: float,
    c: float,
    alpha: float,
    beta: float,
    klass: str,
    mode: str = "all",
    variant: str = Variant.DERIVED.value,
) -> dict:
    if mode not in CHECK_MODES:
        raise DomainError(f"mode must be one of {', '.join(CHECK_MODES)}, got {mode!r}")
    params = BesselParams(p, b, c)
    cls = ClassSpec(alpha, beta)
    var = Variant(variant)
    cond, which = _layers(klass)
    point = {"p": p, "b": b, "c": c, "alpha": alpha, "beta": beta}
    holds = status = sup = None
    result: dict = {}
    if mode in ("theorem", "all"):
        thm = cond(params, cls, var)
        result["theorem"] = _condition(thm, var, point)
        # The printed variant binds the theorem only for c <= 0, where it
        # coincides with the derived one.
        holds = thm.holds and (var is Variant.DERIVED or c <= 0.0)
    if mode in ("lemma", "all"):
        rep = sum_reports(params, [cls], which)[0]
        result["lemma"] = _sum_report(rep)
        status = rep.status
    if mode in ("disk", "all"):
        sup = sup_estimate(params, cls, which)
        result["disk"] = {"max_quotient": sup}
    result["consistent"] = _consistent(holds, status, sup, beta)
    inputs = {**point, "class": klass, "mode": mode, "variant": variant}
    return _record("check", inputs, result)


def threshold_record(figure: int, tol: float) -> dict:
    spec = _spec(figure)
    roots = find_all_thresholds(figure, tol)
    low = spec.singularity + POSITIVITY_MARGIN
    brackets = positivity_scan(figure, low, POSITIVITY_HIGH, POSITIVITY_STEP)
    positivity = {
        "low": low,
        "high": POSITIVITY_HIGH,
        "step": POSITIVITY_STEP,
        "sign_changes": len(brackets),
        "positive": not brackets and figure_eval(figure, low) > 0.0,
    }
    result = {
        "label": spec.label,
        "singularity": spec.singularity,
        "roots": [_root(r) for r in roots],
        "threshold": roots[-1].x0 if roots else None,
        "no_bracket": not roots,
        "positivity": positivity,
    }
    return _record("threshold", {"figure": figure, "tol": tol}, result)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n).tolist() for n >= 1, bit for bit, without numpy.

    The IEEE operations are numpy's, in numpy's order: i * step + lo with
    step = (hi - lo) / (n - 1), or i / (n - 1) * (hi - lo) + lo when step
    underflows to 0; the last entry is hi itself.
    """
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]
    div = n - 1
    step = delta / div
    if step == 0.0:
        xs = [float(i) / div * delta + lo for i in range(div)]
    else:
        xs = [float(i) * step + lo for i in range(div)]
    xs.append(hi)
    return xs


def scan_record(
    b: float,
    c: float,
    p_range: tuple[float, float],
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    klass: str,
    steps: tuple[int, int, int],
) -> dict:
    which = _layers(klass)[1]
    if steps[0] * steps[1] * steps[2] > MAX_GRID_POINTS:
        raise DomainError(
            f"scan grid of {steps[0]} x {steps[1]} x {steps[2]} rows has more than "
            f"{MAX_GRID_POINTS} rows"
        )

    ps = _linspace(p_range[0], p_range[1], steps[0])
    alphas = _linspace(alpha_range[0], alpha_range[1], steps[1])
    betas = _linspace(beta_range[0], beta_range[1], steps[2])
    classes = [(a, bt, ClassSpec(a, bt).threshold) for a in alphas for bt in betas]
    value_of = _GENERAL_VALUE[which]

    rows = []
    consistent = True
    for p in ps:
        # each layer's class-independent part, once per order and in check's
        # order: the closed form's (q, s), the sum's moments and the disk's n
        params = BesselParams(p, b, c)
        q, s = _general_qs(params, Variant.DERIVED)
        m1, m0, bound = _moments(params, which)
        n = _lane_n(params, which)
        for alpha, beta, thr in classes:
            holds = value_of(q, s, alpha, beta) >= 0.0  # ConditionVerdict.holds
            status = _class_sum(m1, m0, bound, beta, thr)[3]
            sup = _sup(n, alpha)
            consistent &= _consistent(holds, status, sup, beta)
            rows.append({
                "p": p, "alpha": alpha, "beta": beta,
                "theorem": "holds" if holds else "fails",
                "lemma": status.value,
                "disk_max": sup,
            })

    result = {"rows": rows, "consistent": consistent}
    inputs = {
        "b": b, "c": c,
        "p_range": list(p_range),
        "alpha_range": list(alpha_range),
        "beta_range": list(beta_range),
        "class": klass,
        "steps": list(steps),
    }
    return _record("scan", inputs, result)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_eval(args: argparse.Namespace) -> int:
    _emit_json(eval_record(args.p, args.b, args.c, args.z, args.eps, args.w))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    record = check_record(
        args.p, args.b, args.c, args.alpha, args.beta,
        args.klass, args.mode, args.variant,
    )
    _emit_json(record)
    if not record["result"]["consistent"]:
        print("error: implication chain violated", file=sys.stderr)
        return 3
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    _emit_json(threshold_record(args.figure, args.tol))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = _spec(args.figure)
    table = figure_table(args.figure, args.low, args.high, args.step)
    result = {"label": spec.label, "singularity": spec.singularity, "rows": []}
    inputs = {"figure": args.figure, "low": args.low, "high": args.high, "step": args.step}
    _write_figure(_record("figure", inputs, result), table, args.format)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    record = scan_record(
        args.b, args.c, args.p_range, args.alpha_range, args.beta_range,
        args.klass, args.steps,
    )
    # p formatted once per order, alpha and beta once per class; %.17g is format(x, ".17g")
    rows = record["result"]["rows"]
    per = args.steps[1] * args.steps[2]
    cols = [("%.17g" % r["alpha"], "%.17g" % r["beta"]) for r in rows[:per]]
    out = ["p,alpha,beta,theorem,lemma,disk_max"]
    for i in range(0, len(rows), per):
        p = "%.17g" % rows[i]["p"]
        out += [_SCAN_ROW % (p, a, bt, r["theorem"], r["lemma"], r["disk_max"])
                for r, (a, bt) in zip(rows[i:i + per], cols)]
    sys.stdout.write("\n".join(out) + "\n")
    if not record["result"]["consistent"]:
        print("error: implication chain violated on the grid", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="besselgeom",
        description="Geometric classification of normalized Bessel-type power series.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate u, u', u'' (and optionally w)")
    pe.add_argument("--p", type=float, required=True)
    pe.add_argument("--b", type=float, required=True)
    pe.add_argument("--c", type=float, required=True)
    pe.add_argument("--z", type=_complex_flag, required=True, metavar="RE[,IM]")
    pe.add_argument("--eps", type=float, default=1e-12)
    pe.add_argument("--w", action="store_true",
                    help="also evaluate the unnormalized function at x = Re z > 0")
    pe.set_defaults(handler=_cmd_eval)

    pc = sub.add_parser("check", help="run condition, coefficient and disk layers")
    pc.add_argument("--p", type=float, required=True)
    pc.add_argument("--b", type=float, required=True)
    pc.add_argument("--c", type=float, required=True)
    pc.add_argument("--alpha", type=float, required=True)
    pc.add_argument("--beta", type=float, required=True)
    pc.add_argument("--class", dest="klass", choices=("star", "convex"), required=True)
    pc.add_argument("--mode", choices=CHECK_MODES, default="all")
    pc.add_argument("--variant", choices=("printed", "derived"), default="derived")
    pc.set_defaults(handler=_cmd_check)

    pt = sub.add_parser("threshold", help="locate the positivity threshold of a figure function")
    pt.add_argument("--figure", type=int, choices=sorted(FIGURES), required=True)
    pt.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pt.set_defaults(handler=_cmd_threshold)

    pf = sub.add_parser("figure", help="tabulate a figure function for plotting")
    pf.add_argument("--figure", type=int, choices=sorted(FIGURES), required=True)
    pf.add_argument("--low", type=float, required=True)
    pf.add_argument("--high", type=float, required=True)
    pf.add_argument("--step", type=float, required=True)
    pf.add_argument("--format", choices=("csv", "json"), default="json")
    pf.set_defaults(handler=_cmd_figure)

    ps = sub.add_parser("scan", help="classify a parameter grid, CSV to stdout")
    ps.add_argument("--b", type=float, required=True)
    ps.add_argument("--c", type=float, required=True)
    ps.add_argument("--p-range", type=_range_flag, required=True, metavar="LO,HI")
    ps.add_argument("--alpha-range", type=_range_flag, required=True, metavar="LO,HI")
    ps.add_argument("--beta-range", type=_range_flag, required=True, metavar="LO,HI")
    ps.add_argument("--class", dest="klass", choices=("star", "convex"), required=True)
    ps.add_argument("--steps", type=_steps_flag, required=True, metavar="N[,N2,N3]")
    ps.add_argument("--parallel", type=int, default=1,
                    help="accepted for compatibility and ignored: scans run serially")
    ps.set_defaults(handler=_cmd_scan)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BesselGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
