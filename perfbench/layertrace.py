"""Outside-in layer tracing: wrap the public calls into each rotorpair
module, record one span per call, and aggregate spans into the
per-layer metrics.

Nothing inside rotorpair is edited. A span is (id, parent id, layer,
start, end, counts). The tracer also adds up its own cost, the time each
wrapper spends outside the call it wraps, which gives the trace overhead
from within the traced pass itself.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time


def _nnz(args, kwargs, result):
    coupling = getattr(result.coupling, "matrix", result.coupling)
    return {"nnz": int(result.h0.nnz + coupling.nnz)}


def _dim(args, kwargs, result):
    return {"dim": int(len(args[0].energies))}


def _rk4_steps(args, kwargs, result):
    # the integrator's own rule: full steps of dt, then one partial step
    t0, t1, dt = (float(x) for x in args[2:5])
    n_full = int(math.floor((t1 - t0) / dt + 1e-12))
    remainder = t1 - (t0 + n_full * dt)
    return {"steps": n_full + (1 if remainder > 1e-12 * max(abs(t1), 1.0) else 0)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (layer, module, attribute path, counter). The attribute is looked up at
# install time; a name that no longer exists is reported as a missing layer.
HOOKS = (
    ("runner.run", "rotorpair.runner", "run_config", None),
    ("operators.build", "rotorpair.runner", "build_pieces", _nnz),
    ("propagation.eigh", "rotorpair.propagation", "FreeEvolution.__init__", _dim),
    ("propagation.window", "rotorpair.propagation", "rk4_integrate", _rk4_steps),
    ("propagation.free", "rotorpair.propagation", "FreeEvolution.advance", None),
    ("entanglement.schmidt", "rotorpair.entanglement", "schmidt_spectrum", None),
    ("observables.record", "rotorpair.observables", "TimeSeriesRecorder.__call__", None),
    ("output.csv", "rotorpair.output", "write_timeseries_csv", _csv_bytes),
)


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self.overhead_s = 0.0

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook that exists; returns the layers that are missing."""
        for layer, module_name, attr_path, counter in hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(layer)
                print(f"perfbench: warning: layer {layer} is missing: "
                      f"{module_name}.{attr_path} not found", file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(layer, original, counter))
        return self.missing

    def _wrap(self, layer, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            counts = {}
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except Exception as exc:  # a refactored signature must not stop the run
                    if layer not in self.counter_errors:
                        self.counter_errors.add(layer)
                        print(f"perfbench: warning: counts of {layer} unavailable: "
                              f"{type(exc).__name__}: {exc}", file=sys.stderr)
            self.spans.append([span_id, parent, layer, start, end, counts])
            self.overhead_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced


# per-layer metric -> (unit, better); the run-level trace.* metrics come last
LAYER_METRICS = {
    "operators.build_s": ("s", "lower"),
    "operators.nnz": ("count", "lower"),
    "propagation.eigh_s": ("s", "lower"),
    "propagation.dim": ("count", "lower"),
    "propagation.window_s": ("s", "lower"),
    "propagation.windows": ("count", "lower"),
    "propagation.rk4_steps": ("count", "lower"),
    "propagation.us_per_step": ("us", "lower"),
    "propagation.free_s": ("s", "lower"),
    "propagation.free_calls": ("count", "lower"),
    "entanglement.schmidt_s": ("s", "lower"),
    "entanglement.schmidt_calls": ("count", "lower"),
    "observables.record_s": ("s", "lower"),
    "observables.samples": ("count", "higher"),
    "runner.self_s": ("s", "lower"),
    "output.csv_s": ("s", "lower"),
    "output.csv_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

def layer_metrics(spans: list[list], wall_s: float, overhead_s: float,
                  missing: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans, its wall time
    and the tracer's own cost.

    Times and call counts are totals over the pass; nnz and dim are the
    largest over its runs. A metric whose layer is missing is left out,
    never reported as zero.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    biggest: dict[str, float] = {}
    child: dict[int, float] = {}
    for span_id, parent, layer, start, end, span_counts in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    top = 0.0
    for span_id, parent, layer, start, end, span_counts in spans:
        dur = end - start
        total[layer] = total.get(layer, 0.0) + dur
        self_time[layer] = self_time.get(layer, 0.0) + dur - child.get(span_id, 0.0)
        calls[layer] = calls.get(layer, 0) + 1
        for key, value in span_counts.items():
            counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + value
            biggest[f"{layer}.{key}"] = max(biggest.get(f"{layer}.{key}", 0), value)
        if parent is None:
            top += dur

    def t(layer):
        return total.get(layer, 0.0)

    steps = counts.get("propagation.window.steps")
    by_layer = {
        "operators.build": {"operators.build_s": t("operators.build"),
                            "operators.nnz": biggest.get("operators.build.nnz")},
        "propagation.eigh": {"propagation.eigh_s": t("propagation.eigh"),
                             "propagation.dim": biggest.get("propagation.eigh.dim")},
        "propagation.window": {"propagation.window_s": t("propagation.window"),
                               "propagation.windows": calls.get("propagation.window", 0),
                               "propagation.rk4_steps": steps,
                               "propagation.us_per_step":
                                   t("propagation.window") / steps * 1e6 if steps else None},
        "propagation.free": {"propagation.free_s": t("propagation.free"),
                             "propagation.free_calls": calls.get("propagation.free", 0)},
        "entanglement.schmidt": {"entanglement.schmidt_s": t("entanglement.schmidt"),
                                 "entanglement.schmidt_calls": calls.get("entanglement.schmidt", 0)},
        "observables.record": {"observables.record_s": self_time.get("observables.record", 0.0),
                               "observables.samples": calls.get("observables.record", 0)},
        "runner.run": {"runner.self_s": self_time.get("runner.run", 0.0)},
        "output.csv": {"output.csv_s": t("output.csv"),
                       "output.csv_bytes": counts.get("output.csv.bytes")},
    }
    out = {}
    for layer, metrics in by_layer.items():
        if layer not in missing:
            out.update((name, value) for name, value in metrics.items() if value is not None)
    out["trace.overhead_s"] = overhead_s
    out["trace.unattributed_s"] = wall_s - top
    return out
