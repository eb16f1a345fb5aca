"""Benchmark of subvarid: one workload per process, metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed-loop-designed --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics,
and the spans are written to perfbench/out/.  The package is imported from
the checkout's own src/ tree; the run fails when that tree is missing.
"""

from __future__ import annotations

import os

# One process and one BLAS thread: the reference machine has 2 cores, and a
# single-threaded run is the steady one.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("closed-loop-designed", "closed-loop-white", "offline-analysis")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import subvarid.cli, subvarid.experiments; "
                "print(time.perf_counter() - t)")
CANARY_STEPS = 300
CANARY_REF_S = 0.006


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    if not (SRC / "subvarid" / "__init__.py").is_file():
        fail(f"no package source under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    import subvarid

    if not Path(subvarid.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported subvarid from {subvarid.__file__}, not from {SRC}", 2)


class SpeedClock:
    """Wall time at a fixed reference machine speed.

    The speed of a shared 2-core machine drifts: the same trial took 0.5 s
    and 1.1 s within one minute, with no steal time accounted.  A fixed
    canary computation, independent of the package, runs between timed
    intervals: small LAPACK calls and small-array numpy calls driven from
    Python, the mix of the package's own hot loops.  Each interval is
    scaled by CANARY_REF_S over the mean of the canaries just before and
    just after it.  A single scaled interval is noisy; the median of many
    is steady.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._m = np.random.default_rng(0).normal(size=(17, 17)) + 17.0 * np.eye(17)
        self._eye = np.eye(17)
        self._v = np.random.default_rng(1).normal(size=17)
        self.canaries = [self._canary()]

    def _canary(self):
        np, m, eye, v = self._np, self._m, self._eye, self._v
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(CANARY_STEPS):
            acc += float(np.linalg.inv(m + (i * 1e-3) * eye)[0, 0])
            w = np.concatenate([v[:8], v[8:]])
            acc += float(w @ v) + float(np.abs(w).max())
        return time.perf_counter() - t0

    def measure(self, fn):
        """(output or None, exception or None, wall s, wall s at reference speed)."""
        out = exc = None
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            exc = e
        wall = time.perf_counter() - t0
        self.canaries.append(self._canary())
        return out, exc, wall, wall * CANARY_REF_S / (0.5 * sum(self.canaries[-2:]))


def probe_import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"import probe failed: {proc.stderr.strip()}", 2)
    return float(proc.stdout.strip())


def run_rounds(workload, seconds, clock, first, state, tracer=None):
    """Whole rounds until `seconds` of wall time have passed (at least one
    round).  Returns the seconds of each operation at the reference speed,
    and the factor that scaled the median one.  `first` collects the first round's outputs; later rounds must repeat
    them."""
    times, scales = [], []
    start = time.perf_counter()
    while True:
        for i, op in enumerate(workload.round()):
            if tracer is not None:
                tracer.op = state["attempted"]
                op = functools.partial(tracer.call, "op", op, (), {})
            state["attempted"] += 1
            out, exc, wall, scaled = clock.measure(op)
            times.append(scaled)
            scales.append(scaled / wall)
            if exc is not None:
                state["errors"].append(f"operation {i}: {type(exc).__name__}: {exc}")
            if out is None or workload.failed(out):
                state["failed"] += 1
            if len(first) <= i:
                first.append(out)
            elif workload.fingerprint(out) != workload.fingerprint(first[i]):
                state["errors"].append(f"operation {i} gave another output on a later round")
        if time.perf_counter() - start >= seconds:
            return times, statistics.median(scales)


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with the result line: every metric of BENCHMARK.json, with
    its unit and a finite value (above 0 for end-to-end metrics), and no
    other metric."""
    problems = []
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"metric {name} is not above 0: {value!r}")
    problems += [f"metric {name} not in BENCHMARK.json" for name in metrics if name not in expected]
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the output self-check")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    import_package()
    import tracing
    import workloads

    clock = SpeedClock()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up, repeated: import in a fresh interpreter, input generation,
        # warm-up; each figure is the median over the repetitions
        parts = {"setup.import_s": [], "setup.inputs_s": [], "setup.warmup_s": []}
        setup = []
        for _ in range(SETUP_REPEATS):
            def repetition():
                t0 = time.perf_counter()
                imp = probe_import_seconds()
                t1 = time.perf_counter()
                wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
                t2 = time.perf_counter()
                wl.warmup()
                return wl, (t1 - t0, imp, t2 - t1, time.perf_counter() - t2)

            (wl, (probe_wall, imp, inputs, warmup)), exc, wall, scaled = \
                clock.measure(repetition)
            if exc is not None:
                raise exc
            scale = scaled / wall
            # the probe interpreter's own start-up is not set-up work
            setup.append(scale * (wall - probe_wall + imp))
            for key, value in zip(parts, (imp, inputs, warmup)):
                parts[key].append(scale * value)

        state = {"attempted": 0, "failed": 0, "errors": []}
        first = []
        if args.trace:
            untraced, _ = run_rounds(wl, args.seconds / 2, clock, first, state)
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                times, scale = run_rounds(wl, args.seconds / 2, clock, first, state, tracer)
            finally:
                tracing.uninstall(undo)
        else:
            times, _ = run_rounds(wl, args.seconds, clock, first, state)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            wl.check(first)
        except Exception as exc:  # CheckFailed, or outputs too broken to read
            state["errors"].append(f"check failed: {type(exc).__name__}: {exc}")
        correct = not state["errors"]
        for line in state["errors"][:20]:
            print(f"perfbench: {line}", file=sys.stderr)

        if args.trace:
            n = len(times)
            metrics = tracer.per_op(n, scale)
            traced_p50 = 1e3 * statistics.median(times)
            untraced_p50 = 1e3 * statistics.median(untraced)
            metrics["trace.op_p50_ms"] = (traced_p50, "ms")
            metrics["trace.untraced_op_p50_ms"] = (untraced_p50, "ms")
            metrics["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
            for key, values in parts.items():
                metrics[key] = (statistics.median(values), "s")
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            with open(trace_path, "w") as fh:
                json.dump({
                    "workload": args.workload, "seed": args.seed, "traced_ops": n,
                    "span_fields": ["op", "id", "parent", "name", "start", "end"],
                    "per_op": {k: v[0] for k, v in metrics.items()},
                    "spans": tracer.spans,
                }, fh, separators=(",", ":"))
            print(f"perfbench: {len(tracer.spans)} spans written to {trace_path}", file=sys.stderr)
        else:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "op_p50_ms": (1e3 * statistics.median(times), "ms"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        print(f"perfbench: {len(times)} timed operations, canary p50 "
              f"{1e3 * statistics.median(clock.canaries):.2f} ms "
              f"(reference {1e3 * CANARY_REF_S:.0f} ms)", file=sys.stderr)
        result = {
            "correct": correct,
            "attempted": state["attempted"],
            "failed": state["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = validate(result, args.trace)
    if problems:
        fail("malformed result: " + "; ".join(problems), 3)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
