"""Fingerprints of the closed loop: six sha256 values, one per line.

    python3 tools/loop_fingerprint.py

Prints the sha256 of

1. the CSV of `subvarid design --seed 1` (designed mode),
2. the same with `--mode white`,
3. repr() of every TrialResult of the 100-trial criteria-5/6 campaign,
   white arm, one per line,
4. the same for the designed arm,
5. the CSV of `subvarid design --seed 1 --y-max 3`, where the safety filter
   acts and the run meets infeasible steps and violations,
6. the same with `--mode white`.

Each design line also prints the run's own summary counts.  A change that
claims to leave the loop untouched shows the same six values as its parent
on the same machine.  The package is imported from the `src/`
next to this script; BLAS runs one thread per process, and the campaign runs
two worker processes.  The campaign takes a few minutes.
"""

from __future__ import annotations

import os

# Must precede the numpy import, also in the campaign's worker processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from subvarid import cli  # noqa: E402
from subvarid.experiments import (  # noqa: E402
    ExperimentConfig,
    run_campaign,
    white_noise_baseline,
)


def print_design(*extra: str) -> None:
    """Print the sha256 of the `design --seed 1 *extra` CSV and the run's counts."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(["design", "--seed", "1", *extra, "--output", str(out)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"design {' '.join(extra)} exited {code}")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    label = " ".join(("design --seed 1", *extra)) + ":"
    summary = text.getvalue().splitlines()[0]
    print(f"{label:40s} {digest} {summary[summary.index('('):]}", flush=True)


def trials_hash(curves) -> str:
    text = "\n".join(repr(result) for result in curves.raw)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    print_design()
    print_design("--mode", "white")
    config = ExperimentConfig(trials=100, N_schedule=(10, 20, 40, 80, 160, 320),
                              rng_seed=20240515, workers=2)
    for name, run in (("white", white_noise_baseline), ("designed", run_campaign)):
        t0 = time.perf_counter()
        curves = run(config)
        failed = sum(r.failed for r in curves.raw)
        print(f"campaign, {name + ' arm:':13s} {trials_hash(curves)} "
              f"({time.perf_counter() - t0:.0f} s, {failed} failed trials)", flush=True)
    print_design("--y-max", "3")
    print_design("--y-max", "3", "--mode", "white")
    return 0


if __name__ == "__main__":
    sys.exit(main())
