"""Span tracing of the package's public functions, installed from outside.

The traced run replaces each function below by a wrapper, under every name
that a loaded `subvarid` module binds it to (so `ho_kalman` is caught both in
`input_design` and in `cli`), and patches methods on their classes.  Each
wrapper records one span: operation index, span id, parent span id, name,
start and end.  Self time is a span's duration minus the durations of its
direct child spans; since calls nest, children never overlap.

Functions that a later version of the package removes or renames are skipped:
their metrics then read 0 calls.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute path inside the module)
TARGETS = (
    ("lti_core.SignalLog.from_csv", "lti_core", "SignalLog.from_csv"),
    ("subspace_id.estimate_markov_batched", "subspace_id", "estimate_markov_batched"),
    ("subspace_id.ho_kalman", "subspace_id", "ho_kalman"),
    ("deviation.max_deviation", "deviation", "max_deviation"),
    ("deviation.j2_hessian", "deviation", "j2_hessian"),
    ("deviation.solve_box_qp", "deviation", "solve_box_qp"),
    ("input_design.build_scenarios", "input_design", "build_scenarios"),
    ("input_design.design_input_step", "input_design", "design_input_step"),
    ("input_design.conditioning_u_sets", "input_design", "conditioning_u_sets"),
    ("input_design.safety_interval", "input_design", "safety_interval"),
    ("input_design.window_deviation", "input_design", "window_deviation"),
    ("input_design.OutputPredictor.predict", "input_design", "OutputPredictor.predict"),
    ("input_design.SimulatedPlant.step", "input_design", "SimulatedPlant.step"),
    ("input_design.run_closed_loop", "input_design", "run_closed_loop"),
    ("experiments.run_trial", "experiments", "run_trial"),
    ("cli.main", "cli", "main"),
)

# The deviation engine runs once per window length; its spans are split by t.
SPLIT_BY_T = ("deviation.max_deviation", "deviation.j2_hessian", "deviation.solve_box_qp")
T_VALUES = (5, 9)

# Counts read from each IdentificationRun that run_closed_loop returns.
RUN_COUNTS = ("input_design.fallbacks", "input_design.batches_used",
              "input_design.batches_skipped")


def span_names():
    """Every span name that a per-layer metric is reported for."""
    names = []
    for prefix, _, _ in TARGETS:
        if prefix in SPLIT_BY_T:
            names.extend(f"{prefix}.t{t}" for t in T_VALUES)
        else:
            names.append(prefix)
    return names


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans = []            # (op, id, parent, name, start, end)
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(RUN_COUNTS, 0)
        self.op = -1
        self.t_tag = None          # window length of the enclosing max_deviation
        self._stack = []           # [span id, child seconds]
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            self.spans.append((self.op, sid, parent, name, start, end))

    def count_run(self, run):
        batches = getattr(run, "batches", [])
        used = sum(1 for b in batches if getattr(b, "used", False))
        self.counts["input_design.fallbacks"] += getattr(run, "design_fallbacks", 0)
        self.counts["input_design.batches_used"] += used
        self.counts["input_design.batches_skipped"] += len(batches) - used

    def per_op(self, n_ops, scale):
        """Per-layer metrics averaged over n_ops traced operations, with self
        times multiplied by `scale` (to the benchmark's reference speed)."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0) / n_ops, "count")
            out[f"{name}.self_ms"] = (1e3 * scale * self.self_s.get(name, 0.0) / n_ops, "ms")
        for name in RUN_COUNTS:
            out[name] = (self.counts[name] / n_ops, "count")
        return out


def _make_wrapper(tracer, prefix, fn):
    if prefix == "deviation.max_deviation":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
            outer, tracer.t_tag = tracer.t_tag, getattr(cfg, "t", None)
            try:
                return tracer.call(f"{prefix}.t{tracer.t_tag}", fn, args, kwargs)
            finally:
                tracer.t_tag = outer
    elif prefix in SPLIT_BY_T:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(f"{prefix}.t{tracer.t_tag}", fn, args, kwargs)
    elif prefix == "input_design.run_closed_loop":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run = tracer.call(prefix, fn, args, kwargs)
            tracer.count_run(run)
            return run
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(prefix, fn, args, kwargs)
    return wrapper


def install(tracer):
    """Patch every target; returns the undo list for `uninstall`."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "subvarid" or name.startswith("subvarid."))]
    undo = []
    for prefix, module_name, path in TARGETS:
        module = sys.modules.get(f"subvarid.{module_name}")
        if module is None:
            continue
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(_make_wrapper(tracer, prefix, raw.__func__))
            else:
                patched = _make_wrapper(tracer, prefix, raw)
            setattr(cls, attr, patched)
            undo.append((cls, attr, raw))
            continue
        original = getattr(module, path, None)
        if original is None:
            continue
        patched = _make_wrapper(tracer, prefix, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, patched)
                    undo.append((m, name, original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
