"""Command-line interface.

Subcommands: simulate, identify, deviation, design, campaign, report.
Configuration comes from a JSON file plus flag overrides.  A CSV cell and a
plant's output line read by one grammar, `lti_core.parse_number`.  Exit codes:
0 success (also when the reader of standard output closes it early, as
`subvarid identify s.csv | head -3` does), 1 configuration error (also a
malformed CSV: a header that does not begin k,u_1..u_p,y_1..y_n, a short row,
a refused or non-finite cell; or one too short for the data window; and a
campaign config, or campaign flags, with a value of the wrong type or out of
range, and a config that is not a JSON object or has an unknown key, also
one of the loop settings that are module constants, such as `kappa`, or a
design block with an `epsilon` not finite and above 0 or an `alpha_M` not
above 0; a seed (`--seed`, `rng_seed`) that is not an int in [0, 2**63); a
curves CSV without an N, stat or value column or with a refused cell or an
N that is not whole; a model JSON that is not an object, lacks A, B or C or
holds a ragged, non-finite or 3-D matrix or a non-number (`"1"`, `true`); a
noise bound (--delta, a design block's delta) or `simulate --amplitude`
outside [0, max float / 2], nan included, so that its range 2 x bound stays
finite; `simulate --steps` below 1, or an `--x0` that is not a flat JSON
list of finite JSON numbers; `design --y-max` or `--u-max` not finite and
above 0; and loop settings the realization cannot meet: an order below 1 or above t/2, or a negative iteration count), 2
numeric failure (also a `design` run in which every batch was skipped, so no
estimate was formed; its run CSV is still written; a `design` run whose
closed loop diverges, an output not finite or beyond 1000 y_M, which writes
no CSV and in a campaign fails only its trial; a `deviation` J that
overflows) or an external plant that exits or answers with anything but one
finite number, 3 a criteria-5/6 gate that fails in `report --check` mode
(`experiments.CampaignFigures.failed_gates`: also a gated figure that is
missing or not finite).  A command line that argparse refuses, an unknown
flag or `simulate --steps abc`, exits 2 as argparse does.  `report` prints
the summary that `campaign` writes to summary.txt.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys
from dataclasses import replace

import numpy as np

from . import experiments as exp
from .deviation import max_deviation
from .errors import (
    ConfigurationError,
    EstimationError,
    NumericOverflowError,
    OutOfRangeError,
    SubvaridError,
)
from .input_design import DesignConfig, SimulatedPlant, run_closed_loop
from .lti_core import (NoiseSpec, SignalLog, StateSpaceModel, check_bound, markov_true,
                       simulate)
from .subspace_id import EstimatorConfig, estimate_markov_batched, ho_kalman

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_THRESHOLD = 3


def _load_model(args) -> StateSpaceModel:
    """The --model file or the built-in benchmark, under its LQR regulator
    (`experiments.stabilized`) with --prestabilized."""
    model = StateSpaceModel.from_json(args.model) if args.model else exp.canonical_model()
    return exp.stabilized(model) if args.prestabilized else model


def _add_model_args(p):
    p.add_argument("--model", help="model JSON file (default: built-in benchmark)")
    p.add_argument("--prestabilized", action="store_true",
                   help="wrap the model in its incumbent LQR regulator")
    p.add_argument("--seed", type=int, default=0)


def cmd_simulate(args) -> int:
    if args.steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {args.steps}")
    exp.check_seed(args.seed, "--seed")
    noise = NoiseSpec(delta=args.delta)  # delta 0 draws nothing
    check_bound(args.amplitude, "--amplitude")
    model = _load_model(args)
    try:
        x0 = json.loads(args.x0) if args.x0 else [0.0] * model.m
    except ValueError:
        x0 = None
    if not (isinstance(x0, list)
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in x0)):
        raise ConfigurationError(f"--x0 must be a JSON list of numbers, got {args.x0}")
    rng = np.random.default_rng(args.seed)
    U = rng.uniform(-args.amplitude, args.amplitude, size=(args.steps, model.p))
    log = simulate(model, x0, U, noise=noise, rng=rng)
    log.to_csv(args.output)
    print(f"wrote {args.steps} samples to {args.output}")
    return EXIT_OK


def cmd_identify(args) -> int:
    log = SignalLog.from_csv(args.data)
    cfg = EstimatorConfig(h=args.h, t=args.t, N=args.batches)
    G_hat = estimate_markov_batched(log.y, log.u, cfg)
    why = G_hat.reason
    out = {"t": G_hat.t, "G": G_hat.G.tolist(), "batches_used": int((why == "used").sum()),
           "batches_skipped": {r: np.flatnonzero(why == r).tolist()
                               for r in sorted(set(why.tolist()) - {"used"})}}
    if args.order:
        real = ho_kalman(G_hat, args.order)
        out.update(
            A=real.A_hat.tolist(),
            B=real.B_hat.tolist(),
            C=real.C_hat.tolist(),
            singular_values=real.singular_values.tolist(),
        )
    text = json.dumps(out, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_deviation(args) -> int:
    log = SignalLog.from_csv(args.data)
    cfg = EstimatorConfig(h=args.h, t=args.t)
    res = max_deviation(log.y, log.u, cfg, delta=args.delta)
    out = {
        "J": res.J,
        "J1": res.J1,
        "J2": res.J2,
        "method": res.method,
        "relaxation_gap": res.relaxation_gap,
        "amplification": res.amplification,
        "w_star": res.w_star.tolist(),
        "p_star": res.p_star.tolist(),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_design(args) -> int:
    exp.check_seed(args.seed, "--seed")
    model = _load_model(args) if args.model else exp.running_canonical()
    rng = exp.trial_rng(args.seed, 0, stream=0)
    noise = NoiseSpec(delta=args.delta)
    design = DesignConfig(delta=args.delta, y_M=args.y_max, u_M=args.u_max)
    est = EstimatorConfig(h=args.h, t=args.t)
    if args.plant_cmd:
        from .input_design import LineProtocolPlant

        plant = LineProtocolPlant(command=shlex.split(args.plant_cmd))
    else:
        plant = SimulatedPlant(model, noise, rng, x0=np.zeros(model.m))
    try:
        run = run_closed_loop(
            plant, design, est, args.iterations, args.order,
            mode=args.mode,
            rng=exp.trial_rng(args.seed, 0, stream=1),
            # an external plant's Markov parameters are unknown unless --model gives them
            G_star=markov_true(model, args.t) if args.model or not args.plant_cmd else None,
        )
    finally:
        if args.plant_cmd:
            plant.close()
    run.to_csv(args.output)
    used = sum(b.used for b in run.batches)
    # designed steps that fell back to a uniform draw on the safety interval
    fallbacks = (f", fallbacks={run.design_fallbacks}/{len(run.iterations)}"
                 if args.mode == "designed" else "")
    print(
        f"wrote {len(run.iterations)} iterations to {args.output} "
        f"(violations={run.violations}, infeasible={run.infeasible_events}, "
        f"batches used={used}/{len(run.batches)}{fallbacks})"
    )
    if used == 0:
        print(
            f"numeric failure: no estimate formed, all {len(run.batches)} batches skipped",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _count(text: str):
    """One --schedule entry as an int, or as the text, which the config check names."""
    try:
        return int(text)
    except ValueError:
        return text


def cmd_campaign(args) -> int:
    if args.config:
        config = exp.load_config(args.config)
    else:
        config = exp.ExperimentConfig()
    schedule = None if args.schedule is None else [_count(v) for v in args.schedule.split(",")]
    overrides = {"trials": args.trials, "N_schedule": schedule, "rng_seed": args.seed,
                 "workers": args.workers}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides:
        # the flags pass the checks that a config file's settings pass
        config = exp.ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    # the designed arm by name: a config's input_mode selects `run_campaign`'s
    # arm, and a white_noise one would compare white noise with itself
    designed = exp.run_campaign(replace(config, input_mode="designed"))
    white = exp.white_noise_baseline(config)
    exp.emit_csv(designed, args.prefix + "curves_designed.csv")
    exp.emit_csv(white, args.prefix + "curves_white.csv")
    exp.emit_trials_csv([designed, white], args.prefix + "trials.csv")
    summary = exp.emit_summary(designed.stats, white.stats, ratio_N=args.ratio_N)
    with open(args.prefix + "summary.txt", "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    return EXIT_OK


def cmd_report(args) -> int:
    designed = exp.parse_curves_csv(args.designed)
    white = exp.parse_curves_csv(args.white) if args.white else None
    if white is not None:
        for table, path in ((designed, args.designed), (white, args.white)):
            if args.ratio_N not in table.get("err_mean", {}):
                raise ConfigurationError(f"{path} has no err_mean row for N={args.ratio_N}")
    print(exp.emit_summary(designed, white, ratio_N=args.ratio_N))
    if not args.check:
        return EXIT_OK
    failed = exp.campaign_figures(designed, white, args.ratio_N).failed_gates(white is not None)
    for name in failed:
        print(f"gate failed: {name}", file=sys.stderr)
    return EXIT_THRESHOLD if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: `parse_args` leaves it as it
    was, and the help formatter, which reads the terminal width, is made each
    time help is formatted."""
    parser = argparse.ArgumentParser(
        prog="subvarid",
        description="Subspace identification with variance-minimizing input design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model and write a signal CSV")
    _add_model_args(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--x0", help="initial state as a JSON list")
    p.add_argument("--output", default="signals.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="estimate Markov parameters from a signal CSV")
    p.add_argument("data")
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--t", type=int, default=9)
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--order", type=int, default=0, help="also realize (A,B,C) at this order")
    p.add_argument("--output")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("deviation", help="maximum identification deviation of a window")
    p.add_argument("data")
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--delta", type=float, default=exp.BENCHMARK_DELTA)
    p.set_defaults(func=cmd_deviation)

    p = sub.add_parser("design", help="run one closed-loop input-design session")
    _add_model_args(p)
    p.add_argument("--iterations", type=int, default=250)
    p.add_argument("--mode", choices=["designed", "white"], default="designed")
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--t", type=int, default=9)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--delta", type=float, default=exp.BENCHMARK_DELTA)
    p.add_argument("--y-max", type=float, default=exp.BENCHMARK_Y_MAX)
    p.add_argument("--u-max", type=float, default=exp.BENCHMARK_U_MAX)
    p.add_argument("--plant-cmd", help="external line-protocol plant command")
    p.add_argument("--output", default="run_0.csv")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("campaign", help="Monte-Carlo campaign, designed vs white noise")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--trials", type=int)
    p.add_argument("--schedule", help="comma-separated batch counts")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--ratio-N", type=int, default=80)
    p.add_argument("--prefix", default="")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("report", help="summarize campaign CSVs")
    p.add_argument("designed", help="designed-mode curves.csv")
    p.add_argument("--white", help="white-noise curves.csv")
    p.add_argument("--ratio-N", type=int, default=80)
    p.add_argument("--check", action="store_true", help="exit 3 when a campaign gate fails")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader chose to stop; point stdout at devnull so that the
        # interpreter's exit-time flush of what is left stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ConfigurationError, OutOfRangeError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericOverflowError, EstimationError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SubvaridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
