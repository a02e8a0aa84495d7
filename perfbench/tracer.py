"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces every binding of each measured conelab function
(module attributes, names imported into other conelab modules, and methods on
their classes) with a wrapper that records one span per call:
(id, parent id, thread, layer name, start, end, extra counts).  Spans stay in
memory and are written once, at the end of the process, by `Tracer.dump`.

Each thread keeps its own parent stack.  A span that opens on a worker thread
with an empty stack takes the innermost open span of the main thread as its
parent, which links the jobs of `cli._fan_out` to the pool that ran them.

`summarize` turns the spans of one process into per-layer metrics.  Self time
is a span's duration minus the part of it that its child spans cover.  Where
several threads are inside spans at the same moment, that moment is shared
equally among them, so the self times of a process add up to at most its
wall time even when the thread pool oversubscribes the cores.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

# ---------------------------------------------------------------------------
# what is measured
# ---------------------------------------------------------------------------

WEIGHT_METHODS = ("F", "dF", "d2F", "G", "dG", "H")

VERIFIER_CHECKS = (
    "identity_residual",
    "identity_convergence",
    "pointwise_inequality",
    "carleman_split_check",
    "split_cancellation",
    "carleman_nl_check",
    "boundary_limit_experiment",
    "uniqueness_pipeline",
)

QUADRATURE_RULES = ("bulk_integral", "hyperboloid_integral", "cone_integral",
                    "inverted_hyperboloid_integral", "boundary_sum")


def _size0(args, kwargs, out):
    return {"cells": int(np.size(args[0]))}


def _points_first(args, kwargs, out):
    return {"points": int(np.size(out[0]))}


def _points_out(args, kwargs, out):
    return {"points": int(np.size(out))}


def _resolved_mode(args, kwargs, out):
    return {"fd": int(out.mode == "fd")}


def _gl_m(args, kwargs, out):
    return {"m": int(args[2] if len(args) > 2 else kwargs["m"])}


def _solve_updates(args, kwargs, out):
    return {"cell_updates": 2 * len(out.r) * int(out.meta["nsteps"])}


def _spline_points(args, kwargs, out):
    return {"points": int(args[0].slices.size), "obj": id(args[0])}


def _grid_points(args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"points": grid.n_s * grid.n_y}


def _file_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _quadrature_points(fn, per_node):
    """Points a quadrature rule evaluates, from its bound `nodes` argument."""
    sig = inspect.signature(fn)

    def info(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"points": per_node(int(bound.arguments["nodes"]))}

    return info


def targets():
    """(layer name, owner, attribute, extra-counts function) for every wrap.

    The owner is a module or a class; the layer name is the metric prefix.
    """
    from conelab import cli, currents, fields, quadrature, solver, stencils, verifier, weights

    out = [
        ("stencils.d1", stencils, "d1", _size0),
        ("stencils.d2", stencils, "d2", _size0),
        ("fields.AnalyticField.derivs1", fields.AnalyticField, "derivs1", _points_first),
        ("fields.AnalyticField.derivs2", fields.AnalyticField, "derivs2", _points_first),
        ("fields.from_expr", fields, "from_expr", None),
        ("fields.ScalarField.fd_derivs1", fields.ScalarField, "fd_derivs1", None),
        ("fields.ScalarField.fd_derivs2", fields.ScalarField, "fd_derivs2", None),
        ("fields.SplineEval.value", fields.SplineEval, "value", _points_out),
        ("fields.SplineEval.derivs1", fields.SplineEval, "derivs1", _points_first),
        ("fields.SplineEval.derivs2", fields.SplineEval, "derivs2", _points_first),
        ("fields.field_to_csv", fields, "field_to_csv", _file_bytes),
        ("currents.CurrentAssembler.components", currents.CurrentAssembler,
         "components", _points_first),
        ("currents.CurrentAssembler.divergence", currents.CurrentAssembler,
         "divergence", _points_out),
        ("currents.current_general", currents, "current_general", None),
        ("currents.bulk_b", currents, "bulk_b", None),
        ("currents.current_to_csv", currents, "current_to_csv", _file_bytes),
        ("weights", weights, "gamma_v", None),
        ("quadrature.gl_nodes", quadrature, "gl_nodes", _gl_m),
        ("solver.solve", solver, "solve", _solve_updates),
        ("solver.EvolutionResult.spline", solver.EvolutionResult, "spline", _spline_points),
        ("solver.EvolutionResult.field_on", solver.EvolutionResult, "field_on", _grid_points),
        ("cli._fan_out", cli, "_fan_out", None),
        ("cli.build_report", cli, "build_report", None),
        ("cli.emit", cli, "emit", None),
    ]
    for cls in vars(weights).values():
        if (isinstance(cls, type) and issubclass(cls, weights.Reparametrization)
                and cls.__module__ == weights.__name__):
            out += [("weights", cls, m, None) for m in WEIGHT_METHODS if m in vars(cls)]
    per_node = {"bulk_integral": lambda m: m * m, "boundary_sum": lambda m: 4 * m}
    for name in QUADRATURE_RULES:
        fn = getattr(quadrature, name)
        out.append((f"quadrature.{name}", quadrature, name,
                    _quadrature_points(fn, per_node.get(name, lambda m: m))))
    for name in VERIFIER_CHECKS:
        info = _resolved_mode if name in ("identity_residual", "pointwise_inequality") else None
        out.append((f"verifier.{name}", verifier, name, info))
    return out


def _layer_stats():
    """(layer, stats) pairs, in the order the per-layer metrics are printed."""
    rows = [
        ("stencils.d1", ("calls", "self_s", "cells")),
        ("stencils.d2", ("calls", "self_s", "cells")),
        ("fields.AnalyticField.derivs1", ("calls", "self_s", "points")),
        ("fields.AnalyticField.derivs2", ("calls", "self_s", "points")),
        ("fields.from_expr", ("calls", "self_s")),
        ("fields.ScalarField.fd_derivs1", ("calls", "self_s")),
        ("fields.ScalarField.fd_derivs2", ("calls", "self_s")),
        ("fields.SplineEval.value", ("calls", "self_s", "points")),
        ("fields.SplineEval.derivs1", ("calls", "self_s", "points")),
        ("fields.SplineEval.derivs2", ("calls", "self_s", "points")),
        ("fields.field_to_csv", ("self_s", "bytes")),
        ("currents.CurrentAssembler.components", ("calls", "self_s", "points")),
        ("currents.CurrentAssembler.divergence", ("calls", "self_s", "points")),
        ("currents.current_general", ("calls", "self_s")),
        ("currents.bulk_b", ("calls", "self_s")),
        ("currents.current_to_csv", ("self_s", "bytes")),
        ("weights", ("calls", "self_s")),
        ("quadrature.gl_nodes", ("calls", "self_s")),
    ]
    rows += [(f"quadrature.{n}", ("calls", "self_s", "points")) for n in QUADRATURE_RULES]
    rows += [
        ("solver.solve", ("calls", "self_s", "cell_updates")),
        ("solver.EvolutionResult.spline", ("calls", "self_s", "points")),
        ("solver.EvolutionResult.field_on", ("calls", "self_s", "points")),
    ]
    rows += [(f"verifier.{n}", ("calls", "incl_s", "self_s")) for n in VERIFIER_CHECKS]
    rows += [(f"cli.{n}", ("incl_s", "self_s")) for n in ("_fan_out", "build_report", "emit")]
    return rows


# Ratios and counts of wasted work, each printed next to its base
# (the `calls` metric of the same layer).
WASTE_METRICS = (
    ("quadrature.gl_nodes.distinct_ratio", "ratio", "higher"),
    ("currents.current_general.discarded", "count", "lower"),
    ("verifier.identity_residual.repeat", "count", "lower"),
    ("solver.EvolutionResult.spline.rebuilds", "count", "lower"),
)

# Metrics of the run as a whole, measured by run.py rather than by spans.
RUN_METRICS = (
    ("import.conelab.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("cli.stability_hash.changed", "count", "lower"),
)


def per_layer_metrics():
    """[(name, unit, better)] for every per-layer metric, in print order."""
    out = []
    for layer, stats in _layer_stats():
        for stat in stats:
            unit = "s" if stat.endswith("_s") else ("bytes" if stat == "bytes" else "count")
            out.append((f"{layer}.{stat}", unit, "lower"))
    return out + list(WASTE_METRICS) + list(RUN_METRICS)


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

class _Stack(threading.local):
    def __init__(self):
        self.stack = []


class Tracer:
    """Records spans around calls into conelab; one instance per process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = _Stack()
        self._main_ident = threading.main_thread().ident
        self._main_stack = None

    def wrap(self, name, fn, info=None):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        main_ident = self._main_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            tid = threading.get_ident()
            parent = None
            if stack:
                parent = stack[-1]
            elif tid != main_ident:
                try:
                    parent = self._main_stack[-1]
                except (IndexError, TypeError):
                    pass
            rec = [next(ids), parent, tid, name, 0.0, 0.0, None]
            stack.append(rec[0])
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
                spans.append(rec)
            if info is not None:
                rec[6] = info(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every binding of every target; call from the main thread."""
        self._main_stack = self._local.stack
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "conelab" or k.startswith("conelab."))]
        for name, owner, attr, info in targets():
            orig = vars(owner)[attr]
            wrapped = self.wrap(name, orig, info)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def dump(self, path, wall_start):
        """Write the spans, with times relative to `wall_start`, as JSON."""
        rows = [[sid, parent, tid, name, t0 - wall_start, t1 - wall_start, extra]
                for sid, parent, tid, name, t0, t1, extra in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# summarizing
# ---------------------------------------------------------------------------

def _subtract(lo, hi, intervals):
    """Parts of [lo, hi] not covered by the union of `intervals`."""
    out = []
    cur = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= cur:
            continue
        if a > cur:
            out.append((cur, a))
        cur = b
        if cur >= hi:
            break
    if cur < hi:
        out.append((cur, hi))
    return out


def self_times(spans):
    """Fair-share self time of each span, keyed by span id.

    `spans` rows are (id, parent, thread, name, start, end, extra).
    """
    kids = {}
    for row in spans:
        if row[1] is not None:
            kids.setdefault(row[1], []).append((row[4], row[5]))
    events = []
    for row in spans:
        for a, b in _subtract(row[4], row[5], kids.get(row[0], ())):
            events.append((a, 1, row[0]))
            events.append((b, 0, row[0]))
    events.sort()
    fair = {row[0]: 0.0 for row in spans}
    active = set()
    prev = None
    for t, opening, sid in events:
        if active:
            share = (t - prev) / len(active)
            for s in active:
                fair[s] += share
        prev = t
        if opening:
            active.add(sid)
        else:
            active.discard(sid)
    return fair


def summarize(spans):
    """Per-layer totals for the spans of one process.

    Returns {layer: {"calls", "self_s", "incl_s", <extra counts>}} plus the
    waste counts under the key "_waste".
    """
    fair = self_times(spans)
    by_id = {row[0]: row for row in spans}
    incl = dict(fair)
    for sid in sorted(by_id, reverse=True):  # a child's id exceeds its parent's
        parent = by_id[sid][1]
        if parent in incl:
            incl[parent] += incl[sid]

    def ancestors(row):
        while row[1] in by_id:
            row = by_id[row[1]]
            yield row

    layers = {}
    waste = {"gl_m": set(), "discarded": 0, "repeat": 0, "spline_objs": set()}
    for row in spans:
        sid, _, _, name, _, _, extra = row
        acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        acc["calls"] += 1
        acc["self_s"] += fair[sid]
        if not any(a[3] == name for a in ancestors(row)):
            acc["incl_s"] += incl[sid]
        for key, val in (extra or {}).items():
            if key in ("m", "obj", "fd"):
                continue
            acc[key] = acc.get(key, 0) + val
        if name == "quadrature.gl_nodes":
            waste["gl_m"].add(extra["m"])
        elif name == "solver.EvolutionResult.spline":
            waste["spline_objs"].add(extra["obj"])
        elif name == "currents.current_general":
            for a in ancestors(row):
                if a[3] in ("verifier.identity_residual", "verifier.pointwise_inequality"):
                    waste["discarded"] += a[6]["fd"]
                    break
        elif name == "verifier.identity_residual":
            parent = by_id.get(row[1])
            if parent is not None and parent[3] == "verifier.pointwise_inequality":
                waste["repeat"] += 1
    layers["_waste"] = {
        "gl_distinct": len(waste["gl_m"]),
        "discarded": waste["discarded"],
        "repeat": waste["repeat"],
        "spline_builds": len(waste["spline_objs"]),
    }
    return layers


def merge(summaries):
    """Add up the per-process summaries of one workload iteration."""
    total = {}
    for summ in summaries:
        for layer, stats in summ.items():
            acc = total.setdefault(layer, {})
            for key, val in stats.items():
                acc[key] = acc.get(key, 0) + val
    return total


def layer_values(total):
    """Every span-derived per-layer metric value from a merged summary."""
    out = {}
    for layer, stats in _layer_stats():
        got = total.get(layer, {})
        for stat in stats:
            out[f"{layer}.{stat}"] = got.get(stat, 0.0 if stat.endswith("_s") else 0)
    waste = total.get("_waste", {})
    gl_calls = total.get("quadrature.gl_nodes", {}).get("calls", 0)
    spline_calls = total.get("solver.EvolutionResult.spline", {}).get("calls", 0)
    out["quadrature.gl_nodes.distinct_ratio"] = (
        waste.get("gl_distinct", 0) / gl_calls if gl_calls else 0.0)
    out["currents.current_general.discarded"] = waste.get("discarded", 0)
    out["verifier.identity_residual.repeat"] = waste.get("repeat", 0)
    out["solver.EvolutionResult.spline.rebuilds"] = spline_calls - waste.get("spline_builds", 0)
    return out
