"""In-memory span recorder for the traced run.

install() replaces every public function of the six layer modules (cli,
bessel, criteria, conditions, disk, thresholds) by a recording wrapper at
every module attribute that names it, so callers that looked the function
up by name (cli.sup_estimate, conditions.special_case_condition, the
package namespace) reach the wrapper.  Nothing in the package changes.

Every call is counted.  A call gets a span only when it crosses into its
layer, that is when no span of the same layer is open: the audit's 18,000
special_case_condition calls inside consistency_audit are counted, not
spanned.  The threshold functions g_1..g_6 are counted only; they run some
twenty thousand times per threshold search.

A span is (name, start_ns, end_ns, parent span, failed); spans live in
arrays until the run ends, and layer_metrics() reduces them to the
per-round figures the benchmark reports.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import time
from array import array
from dataclasses import replace


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.calls = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.failed = array("b")
        self._stack: list[int] = []        # open span ids
        self._layers: list[int] = []       # layer id of each open span
        self.counts: dict[str, int] = {}
        self._counters: list[tuple[str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        layer_id = self._layer_ids.setdefault(name.split(".", 1)[0], len(self._layer_ids))
        calls, stack, layers, clock = self.calls, self._stack, self._layers, time.perf_counter_ns

        def traced(*args, **kwargs):
            calls[name_id] += 1
            if layers and layers[-1] == layer_id:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.failed.append(0)
            self.start.append(0)
            self.end.append(0)
            stack.append(sid)
            layers.append(layer_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[sid] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                layers.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        """fn with a bare call counter, read back by counter_total(key)."""
        n = 0

        def counting(*args):
            nonlocal n
            n += 1
            return fn(*args)

        self._counters.append((key, lambda: n))
        return counting

    # -- reduction ---------------------------------------------------------

    def counter_total(self, key: str) -> int:
        return sum(read() for k, read in self._counters if k == key)

    def call_count(self, *names: str) -> int:
        return sum(self.calls[i] for i, n in enumerate(self.names) if n in names)

    def spans_named(self, *names: str) -> list[int]:
        ids = {i for i, n in enumerate(self.names) if n in names}
        return [i for i, nid in enumerate(self.name) if nid in ids]

    def busy_ns(self, idx: list[int]) -> int:
        return sum(self.end[i] - self.start[i] for i in idx)

    def self_ns(self, layer: str) -> int:
        """Time in the layer's spans that none of their direct children covers."""
        prefix = layer + "."
        mine = {i for i, nid in enumerate(self.name) if self.names[nid].startswith(prefix)}
        total = sum(self.end[i] - self.start[i] for i in mine)
        for i, par in enumerate(self.parent):
            if par in mine:
                total -= self.end[i] - self.start[i]
        return total

    def dump(self, path) -> None:
        """Write every span, columnwise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "failed": self.failed.tolist(),
            "calls": dict(zip(self.names, self.calls.tolist())),
            "counts": {**self.counts, **{k: self.counter_total(k) for k, _ in self._counters}},
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- installation ------------------------------------------------------------


def _on_sup(tr: Tracer, args, kwargs, res) -> None:
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    if grid is None:
        from besselgeom.disk import DEFAULT_GRID as grid
    tr.count("disk.points_sampled", len(grid.radii) * grid.angles_per_ring)
    tr.count("disk.degenerate_points", res.degenerate_points)


def _on_series(tr: Tracer, args, kwargs, res) -> None:
    first = res[0] if isinstance(res, tuple) else res
    tr.count("bessel.terms_used", first.terms_used)


def _on_sum(tr: Tracer, args, kwargs, res) -> None:
    if res.status.value == "indeterminate":
        tr.count("criteria.indeterminate")


def _on_find(tr: Tracer, args, kwargs, res) -> None:
    roots = res if isinstance(res, list) else [res]
    tr.count("thresholds.bisect_iterations", sum(r.iterations for r in roots))


_HOOKS = {
    "disk.sup_estimate": _on_sup,
    "bessel.eval_u": _on_series,
    "bessel.eval_u_derivatives": _on_series,
    "bessel.eval_w": _on_series,
    "criteria.starlike_sum": _on_sum,
    "criteria.convex_sum": _on_sum,
    "thresholds.find_all_thresholds": _on_find,
}


def install(tracer: Tracer) -> None:
    import besselgeom
    from besselgeom import bessel, cli, conditions, criteria, disk, thresholds

    modules = {"cli": cli, "bessel": bessel, "criteria": criteria,
               "conditions": conditions, "disk": disk, "thresholds": thresholds}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[fn] = tracer.wrap(name, fn, _HOOKS.get(name))
    for mod in (besselgeom, *modules.values()):
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
    # FigureSpec is frozen; swap each entry for a copy whose g is counted.
    for fig_id, spec in list(thresholds.FIGURES.items()):
        thresholds.FIGURES[fig_id] = replace(
            spec, func=tracer.counted("thresholds.func_evals", spec.func))


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round counts and busy times of each layer (name -> (value, unit))."""

    def per_round(x: float) -> float:
        return x / rounds

    def ms(ns: int) -> float:
        return per_round(ns / 1e6)

    def layer_spans(layer: str, *funcs: str) -> list[int]:
        return tr.spans_named(*(f"{layer}.{f}" for f in funcs))

    sup = layer_spans("disk", "sup_estimate")
    evals = layer_spans("bessel", "eval_u", "eval_u_derivatives", "eval_w")
    sums = layer_spans("criteria", "starlike_sum", "convex_sum")
    conds = layer_spans("conditions", "starlike_condition", "convex_condition")
    audit = layer_spans("conditions", "consistency_audit")
    find = layer_spans("thresholds", "find_all_thresholds", "find_threshold")
    positivity = layer_spans("thresholds", "positivity_scan")
    sup_us = [(tr.end[i] - tr.start[i]) / 1e3 for i in sup]
    c = tr.counts.get
    return {
        "disk.sup_calls": (per_round(len(sup)), "count"),
        "disk.sup_ms": (ms(tr.busy_ns(sup)), "ms"),
        "disk.sup_p50_us": (statistics.median(sup_us) if sup_us else 0.0, "us"),
        "disk.points_sampled": (per_round(c("disk.points_sampled", 0)), "count"),
        "disk.degenerate_points": (per_round(c("disk.degenerate_points", 0)), "count"),
        "bessel.eval_calls": (per_round(len(evals)), "count"),
        "bessel.eval_ms": (ms(tr.busy_ns(evals)), "ms"),
        "bessel.terms_used": (per_round(c("bessel.terms_used", 0)), "count"),
        "criteria.sum_calls": (per_round(len(sums)), "count"),
        "criteria.sum_ms": (ms(tr.busy_ns(sums)), "ms"),
        "criteria.indeterminate": (per_round(c("criteria.indeterminate", 0)), "count"),
        "conditions.condition_calls": (per_round(len(conds)), "count"),
        "conditions.condition_ms": (ms(tr.busy_ns(conds)), "ms"),
        "conditions.condition_errors": (per_round(sum(tr.failed[i] for i in conds)), "count"),
        "conditions.audit_ms": (ms(tr.busy_ns(audit)), "ms"),
        "conditions.special_case_calls": (per_round(tr.call_count("conditions.special_case_condition")), "count"),
        "thresholds.find_ms": (ms(tr.busy_ns(find)), "ms"),
        "thresholds.positivity_ms": (ms(tr.busy_ns(positivity)), "ms"),
        "thresholds.func_evals": (per_round(tr.counter_total("thresholds.func_evals")), "count"),
        "thresholds.bisect_iterations": (per_round(c("thresholds.bisect_iterations", 0)), "count"),
        "thresholds.figure_eval_calls": (per_round(tr.call_count("thresholds.figure_eval")), "count"),
        "cli.self_ms": (ms(tr.self_ns("cli")), "ms"),
    }
