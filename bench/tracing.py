"""Layer tracing from outside the program.

``install`` rebinds the module-level public functions of each layer in this
process only, everywhere they are looked up (a function imported by name
into another module is rebound there too), so the program's files stay
untouched.  Each call becomes a span: name, layer, start, end, parent span
and request id, kept in memory and written out at the end.

Two boundaries are special:

* ``numerics.integrate_semi_infinite`` also wraps the kernel callable it is
  handed (the physics kernel times the bath density).  Each kernel call is
  one GK batch (plus one 4-point call per bridged removable window) and
  ``x.size`` is its kernel points.  Kernel calls are folded into their
  integral's span, not stored one by one.
* The ``evaluate`` callable of every ``sweep.QUANTITIES`` entry is wrapped,
  which makes one ``sweep.cell`` span per sweep cell.

A layer's self time is its spans' time minus their child spans.  Special
functions in ``numerics`` are not wrapped: inside a kernel they count as
kernel time, elsewhere as their caller's.  Cells that pool workers evaluate
are out of reach; such map calls are traced at the map-call boundary only.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

from stats import median, percentile

PROGRAM_LAYERS = (
    "numerics", "kernel", "spectral", "spin_detuned", "spin_general",
    "fermion", "oracle", "sweep", "table", "cli",
)
WRAPPED_MODULES = (
    "spectral", "spin_detuned", "spin_general", "fermion", "oracle", "sweep", "table",
)
# Sweep quantities evaluated by spin_general; with the maps they make the
# cells of spin_general.j_integrals_per_cell.
SPIN_GENERAL_QUANTITIES = ("r1", "r2", "sigma1x_general", "sigma2x_general")


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # [name, layer, start, end, parent, request, extra]
        self.spans = []
        # open frames: [span index (parent index for kernel frames), layer, start, child time, recorded]
        self._stack = []
        self.request = None
        self.requests = []
        self.self_time = defaultdict(float)
        self.kernel_calls = 0
        self.kernel_points = 0
        self._restore = []

    # -- spans ---------------------------------------------------------
    def enter(self, name, layer, extra=None):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, parent, self.request, extra])
        frame = [index, layer, time.perf_counter(), 0.0, True]
        self._stack.append(frame)
        return frame

    def enter_kernel(self):
        parent = self._stack[-1][0] if self._stack else None
        frame = [parent, "kernel", time.perf_counter(), 0.0, False]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        self.self_time[frame[1]] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        if frame[4]:
            span = self.spans[frame[0]]
            span[2] = frame[2] - self.t0
            span[3] = end - self.t0

    def begin_request(self, req):
        self.request = len(self.requests)
        self.requests.append({"kind": req.kind, "label": req.label, "cls": req.cls, "cells": 0})
        if req.kind == "command":
            self._request_frame = self.enter("cli." + req.label.split("|", 1)[0], "cli")
        else:
            self._request_frame = self.enter("request." + req.kind, "request")

    def end_request(self, req, ops):
        self.leave(self._request_frame)
        self.requests[self.request]["cells"] = len(ops)
        self.request = None

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, name, layer, extra=None, note=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name, layer, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if note is not None:
                tracer.spans[frame[0]][6] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_integral(self, fn):
        tracer = self

        def traced(kernel, *args, **kwargs):
            def counted(x):
                frame = tracer.enter_kernel()
                try:
                    return kernel(x)
                finally:
                    tracer.leave(frame)
                    tracer.kernel_calls += 1
                    tracer.kernel_points += int(np.size(x))

            frame = tracer.enter("numerics.integrate_semi_infinite", "numerics")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.leave(frame)

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -----------------------------------------------
    def install(self, cohex):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cohex" or n.startswith("cohex."))
        ]

        def rebind(name, original, wrapped):
            for module in modules:
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapped)
                    self._restore.append((module, name, original))

        integrate = cohex.numerics.integrate_semi_infinite
        rebind("integrate_semi_infinite", integrate, self.wrap_integral(integrate))
        for layer in WRAPPED_MODULES:
            module = sys.modules["cohex." + layer]
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != module.__name__
                ):
                    continue
                rebind(name, obj, self.wrap(obj, f"{layer}.{name}", layer, note=NOTES.get(name)))
        for cls in (
            cohex.OhmicDensity, cohex.GeneralizedOhmicDensity,
            cohex.TabulatedDensity, cohex.DiscreteDensity,
        ):
            own = cls.__dict__.get("weighted_integral")
            original = cls.weighted_integral
            cls.weighted_integral = self.wrap(original, "spectral.weighted_integral", "spectral")
            self._restore.append((cls, "weighted_integral", own))
        quantities = cohex.sweep.QUANTITIES
        for qname, q in list(quantities.items()):
            extra = {"quantity": qname, "model": q.model}
            quantities[qname] = dataclasses.replace(
                q, evaluate=self.wrap(q.evaluate, "sweep.cell", "sweep", extra)
            )
            self._restore.append((quantities, qname, q))

    def uninstall(self):
        for target, name, original in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = original
            elif original is None:
                delattr(target, name)
            else:
                setattr(target, name, original)
        self._restore = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, request, extra in self.spans:
                rec = {
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "request": request,
                }
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def _dim_note(args, result):
    return {"dim": int(args[0].dimension)}


def _bytes_note(args, result):
    return {"bytes": len(result)}


NOTES = {
    "exact_average": _dim_note,
    "emit_csv": _bytes_note,
    "emit_json": _bytes_note,
}


def _durations(spans, name):
    return [s[3] - s[2] for s in spans if s[0] == name]


def layer_metrics(tracer, rounds, p50_dims, p90_dims):
    """Per-layer metrics of a traced phase of ``rounds`` identical rounds.

    Counts and times are per round; percentiles are over all samples.
    Returns ``(metrics, samples, notes)``.
    """
    spans = tracer.spans
    per_round = 1.0 / rounds
    st = tracer.self_time
    count = defaultdict(int)
    layer_calls = defaultdict(int)
    for s in spans:
        count[s[0]] += 1
        layer_calls[s[1]] += 1

    integrals = count["numerics.integrate_semi_infinite"]
    batches, points = tracer.kernel_calls, tracer.kernel_points
    metrics = {
        "numerics.integrals": integrals * per_round,
        "numerics.gk_batches": batches * per_round,
        "numerics.kernel_points": points * per_round,
        "numerics.points_per_integral": points / integrals if integrals else 0.0,
        "numerics.self_s": st["numerics"] * per_round,
        "numerics.overhead_us_per_batch": 1e6 * st["numerics"] / batches if batches else 0.0,
        "kernel.self_s": st["kernel"] * per_round,
        "kernel.ns_per_point": 1e9 * st["kernel"] / points if points else 0.0,
        "spectral.weighted_integral_calls": count["spectral.weighted_integral"] * per_round,
        "spectral.self_s": st["spectral"] * per_round,
    }
    for layer in ("spin_detuned", "spin_general", "fermion"):
        metrics[f"{layer}.calls"] = layer_calls[layer] * per_round
        metrics[f"{layer}.self_s"] = st[layer] * per_round

    # Attribution per request: J integrals per spin_general cell, and
    # integrals per fermion cell.
    by_request = defaultdict(lambda: defaultdict(int))
    for s in spans:
        if s[5] is not None:
            by_request[s[5]][s[0]] += 1
    fermion_requests = {
        s[5] for s in spans if s[0] == "sweep.cell" and s[6]["model"] == "fermion"
    }
    j_calls = j_cells = f_ints = f_cells = 0
    for rid, req in enumerate(tracer.requests):
        quantity = req["label"].split("@", 1)[0]
        if req["kind"] == "map" or (req["kind"] == "sweep" and quantity in SPIN_GENERAL_QUANTITIES):
            j_calls += by_request[rid]["spin_detuned.coherence_integral"]
            j_cells += req["cells"]
        if rid in fermion_requests:
            f_ints += by_request[rid]["numerics.integrate_semi_infinite"]
            f_cells += req["cells"]
    metrics["spin_general.j_integrals_per_cell"] = j_calls / j_cells if j_cells else 0.0
    metrics["fermion.integrals_per_cell"] = f_ints / f_cells if f_cells else 0.0

    samples = {}
    notes = []
    cells = [1e3 * d for d in _durations(spans, "sweep.cell")]
    metrics["sweep.cells"] = len(cells) * per_round
    for q, name in ((0.5, "sweep.cell_p50_ms"), (0.99, "sweep.cell_p99_ms")):
        metrics[name] = _pct(cells, q, name, samples, notes)
    metrics["sweep.self_s"] = st["sweep"] * per_round

    # emit() dispatches to emit_csv/emit_json: count bytes at the leaves.
    emitted = [s for s in spans if s[0] in ("table.emit_csv", "table.emit_json")]
    metrics["table.emit_s"] = st["table"] * per_round
    metrics["table.bytes"] = sum((s[6] or {}).get("bytes", 0) for s in emitted) * per_round

    exact = [s for s in spans if s[0] == "oracle.exact_average"]
    metrics["oracle.exact_calls"] = len(exact) * per_round
    for dim in p50_dims:
        times = [1e3 * (s[3] - s[2]) for s in exact if s[6] and s[6]["dim"] == dim]
        name = f"oracle.exact_p50_ms.dim{dim}"
        metrics[name] = _pct(times, 0.5, name, samples, notes)
        if dim in p90_dims:
            name = f"oracle.exact_p90_ms.dim{dim}"
            metrics[name] = _pct(times, 0.9, name, samples, notes)
    metrics["oracle.formula_s"] = sum(_durations(spans, "oracle.formula_value")) * per_round
    return metrics, samples, notes


def _pct(values, q, name, samples, notes):
    samples[name] = len(values)
    if not values:
        return 0.0
    value = percentile(values, q)
    if value is None:
        notes.append(
            f"{name}: only {len(values)} samples, too few for this percentile; "
            "the maximum is reported instead"
        )
        return max(values)
    return value


def command_metrics(tracer, subcommands):
    """cli.command_s.<sub>: median wall time of each CLI subcommand."""
    metrics, samples = {}, {}
    for sub in subcommands:
        times = _durations(tracer.spans, "cli." + sub)
        metrics[f"cli.command_s.{sub}"] = median(times) if times else 0.0
        samples[f"cli.command_s.{sub}"] = len(times)
    return metrics, samples
