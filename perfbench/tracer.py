"""Spans and counters around the public entry points of each supcone layer.

The modules bind each other's functions with ``from ... import``, so patching
a function in its defining module alone would miss most calls. ``Tracer``
therefore replaces every module attribute, in every loaded ``supcone``
module, that is one of the wrapped functions. Each call records a span
(name, start, end, parent) in memory; a few entry points also record counts
taken from their arguments and results. Self times, the LPs attributed to
emptiness checks and to redundancy pruning, and the conversions made under
``eps_subdifferential`` are derived from the spans after the pass.

Only this benchmark uses the tracer; the program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer name -> defining module. generate and suites only supply inputs.
LAYERS = {
    "geometry.dd": "supcone.geometry.dd",
    "geometry.lp": "supcone.geometry.lp",
    "geometry.sets": "supcone.geometry.sets",
    "functions": "supcone.functions",
    "formulas": "supcone.formulas",
    "oracle": "supcone.oracle",
    "optimality": "supcone.optimality",
    "instances": "supcone.instances",
    "reports": "supcone.reports",
    "cli": "supcone.cli",
}

LP_SOLVE = "geometry.lp.solve_min_eq"
EMPTINESS = "geometry.sets.is_empty_poly"
PRUNERS = ("geometry.sets.generators", "geometry.sets.cone")
H_TO_V = "geometry.sets.h_to_v"
EPS_SUB = "functions.eps_subdifferential"

# Every per-layer metric, with its unit; the traced pass reports all of them.
METRICS = {
    "geometry.dd.calls": "count",
    "geometry.dd.self_s": "s",
    "geometry.dd.rows_in": "count",
    "geometry.dd.rays_out": "count",
    "geometry.dd.max_input_bits": "bits",
    "geometry.lp.solves": "count",
    "geometry.lp.self_s": "s",
    "geometry.lp.tableau_cells": "count",
    "geometry.lp.max_input_bits": "bits",
    "geometry.lp.emptiness_solves": "count",
    "geometry.lp.emptiness_s": "s",
    "geometry.lp.pruning_solves": "count",
    "geometry.lp.pruning_s": "s",
    "geometry.sets.prune_in": "count",
    "geometry.sets.prune_removed": "count",
    "geometry.sets.self_s": "s",
    "functions.eps_calls": "count",
    "functions.eps_conversions": "count",
    "functions.self_s": "s",
    "formulas.calls": "count",
    "formulas.hull_generators": "count",
    "formulas.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "optimality.self_s": "s",
    "instances.self_s": "s",
    "reports.self_s": "s",
    "reports.bytes_out": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
}


def _bits(values) -> int:
    """Largest numerator or denominator bit length among rationals or ints."""
    best = 0
    for c in values:
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > best:
            best = b
    return best


def _count_dd(t: "Tracer", args, kwargs, result) -> None:
    rows = args[0]
    t.counts["geometry.dd.rows_in"] += len(rows)
    t.counts["geometry.dd.rays_out"] += len(result)
    bits = max((_bits(r) for r in rows), default=0)
    t.maxes["geometry.dd.max_input_bits"] = max(t.maxes["geometry.dd.max_input_bits"], bits)


def _count_lp(t: "Tracer", args, kwargs, result) -> None:
    rows, rhs, cost = args
    m, n = len(rows), len(cost)
    # phase-1 tableau: m constraint rows plus the objective row, n real
    # columns, m artificials and the right-hand side
    t.counts["geometry.lp.tableau_cells"] += (m + 1) * (n + m + 1)
    bits = max(_bits(cost), _bits(rhs), max((_bits(r) for r in rows), default=0))
    t.maxes["geometry.lp.max_input_bits"] = max(t.maxes["geometry.lp.max_input_bits"], bits)


def _minimal(args, kwargs, pos: int) -> bool:
    if "minimal" in kwargs:
        return bool(kwargs["minimal"])
    return bool(args[pos]) if len(args) > pos else True


def _count_generators(t: "Tracer", args, kwargs, result) -> None:
    # generators(dim, points=(), rays=(), minimal=True)
    if not _minimal(args, kwargs, 3):
        return
    points = args[1] if len(args) > 1 else kwargs.get("points", ())
    rays = args[2] if len(args) > 2 else kwargs.get("rays", ())
    passed = len(points) + len(rays)
    t.counts["geometry.sets.prune_in"] += passed
    t.counts["geometry.sets.prune_removed"] += passed - len(result.points) - len(result.rays)


def _count_cone(t: "Tracer", args, kwargs, result) -> None:
    # cone(dim, rays=(), minimal=True)
    if not _minimal(args, kwargs, 2):
        return
    rays = args[1] if len(args) > 1 else kwargs.get("rays", ())
    t.counts["geometry.sets.prune_in"] += len(rays)
    t.counts["geometry.sets.prune_removed"] += len(rays) - len(result.rays)


def _count_hull(t: "Tracer", args, kwargs, result) -> None:
    hull = getattr(result, "hull", None)
    if hull is not None:
        t.counts["formulas.hull_generators"] += len(hull.points) + len(hull.rays)


def _count_bytes(t: "Tracer", args, kwargs, result) -> None:
    t.counts["reports.bytes_out"] += len(args[0].encode("utf-8"))


# counts the hooks accumulate; the other counts are derived from the spans
HOOK_COUNTS = (
    "geometry.dd.rows_in",
    "geometry.dd.rays_out",
    "geometry.lp.tableau_cells",
    "geometry.sets.prune_in",
    "geometry.sets.prune_removed",
    "formulas.hull_generators",
    "reports.bytes_out",
)

# full span name -> counter hook, called with the arguments and the result;
# every caller passes these functions lists or tuples, so the hooks can
# measure them after the call
HOOKS = {
    "geometry.dd.cone_rays": _count_dd,
    LP_SOLVE: _count_lp,
    "geometry.sets.generators": _count_generators,
    "geometry.sets.cone": _count_cone,
    "reports.write_report": _count_bytes,
}


class Tracer:
    """Wraps the layers' public functions and records spans while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxes: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = _count_hull if name.startswith("formulas.") else HOOKS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer, modname in LAYERS.items():
            importlib.import_module(modname)
        self.counts = {k: 0 for k in HOOK_COUNTS}
        self.maxes = {k: 0 for k, u in METRICS.items() if u == "bits"}
        wrapped: dict[int, object] = {}
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "supcone" or modname.startswith("supcone.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [name, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans and counters."""
        names, spans = self.names, self.spans
        n = len(spans)
        child_s = [0.0] * n
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        # lp_ctx: the nearest emptiness or pruning caller; under_eps: inside
        # eps_subdifferential. Parents precede children in the span list.
        lp_ctx = [""] * n
        under_eps = [False] * n
        out = {k: 0 for k in METRICS}
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            layer = name.rsplit(".", 1)[0]
            dur = end - start
            self_s[layer] += dur - child_s[i]
            calls[name] = calls.get(name, 0) + 1
            if name == EMPTINESS:
                lp_ctx[i] = "emptiness"
            elif name in PRUNERS:
                lp_ctx[i] = "pruning"
            elif parent >= 0:
                lp_ctx[i] = lp_ctx[parent]
            under_eps[i] = name == EPS_SUB or (parent >= 0 and under_eps[parent])
            if name == LP_SOLVE and lp_ctx[i]:
                out[f"geometry.lp.{lp_ctx[i]}_solves"] += 1
                out[f"geometry.lp.{lp_ctx[i]}_s"] += dur
            if name == H_TO_V and under_eps[i]:
                out["functions.eps_conversions"] += 1

        def layer_calls(layer: str) -> int:
            return sum(c for k, c in calls.items() if k.rsplit(".", 1)[0] == layer)

        for layer, s in self_s.items():
            key = f"{layer}.self_s"
            if key in out:
                out[key] = s
        out["geometry.dd.calls"] = calls.get("geometry.dd.cone_rays", 0)
        out["geometry.lp.solves"] = calls.get(LP_SOLVE, 0)
        out["functions.eps_calls"] = calls.get(EPS_SUB, 0)
        out["formulas.calls"] = layer_calls("formulas")
        out["oracle.calls"] = layer_calls("oracle")
        out.update(self.counts)
        out.update(self.maxes)
        return out
