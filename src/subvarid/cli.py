"""Command-line interface.

Subcommands: simulate, identify, deviation, design, campaign, report.
Configuration comes from a JSON file plus flag overrides.  Exit codes:
0 success, 1 configuration error (also a malformed CSV), 2 numeric failure
(also a `design` run in which every batch was skipped, so no estimate was
formed; its run CSV is still written) or an external plant that exits or
answers with anything but one finite number, 3 acceptance-threshold failure
in `report --check` mode.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

import numpy as np

from . import experiments as exp
from .deviation import max_deviation
from .errors import ConfigurationError, EstimationError, NumericOverflowError, SubvaridError
from .input_design import DesignConfig, SimulatedPlant, run_closed_loop
from .lti_core import NoiseSpec, SignalLog, StateSpaceModel, markov_true, simulate
from .subspace_id import EstimatorConfig, estimate_markov_batched, ho_kalman

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_THRESHOLD = 3


def _load_model(args) -> StateSpaceModel:
    if getattr(args, "model", None):
        return StateSpaceModel.from_json(args.model)
    return exp.running_canonical() if getattr(args, "prestabilized", False) else exp.canonical_model()


def _add_model_args(p):
    p.add_argument("--model", help="model JSON file (default: built-in benchmark)")
    p.add_argument("--prestabilized", action="store_true",
                   help="wrap the benchmark in its incumbent LQR regulator")
    p.add_argument("--seed", type=int, default=0)


def cmd_simulate(args) -> int:
    model = _load_model(args)
    rng = np.random.default_rng(args.seed)
    U = rng.uniform(-args.amplitude, args.amplitude, size=(args.steps, model.p))
    x0 = np.asarray(json.loads(args.x0), dtype=float) if args.x0 else np.zeros(model.m)
    noise = NoiseSpec(delta=args.delta) if args.delta > 0 else None
    log = simulate(model, x0, U, noise=noise, rng=rng)
    log.to_csv(args.output)
    print(f"wrote {args.steps} samples to {args.output}")
    return EXIT_OK


def cmd_identify(args) -> int:
    log = SignalLog.from_csv(args.data)
    cfg = EstimatorConfig(h=args.h, t=args.t, N=args.batches)
    G_hat = estimate_markov_batched(log.y, log.u, cfg)
    out = {"t": G_hat.t, "G": G_hat.G.tolist()}
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
    model = _load_model(args) if args.model else exp.running_canonical()
    rng = exp.trial_rng(args.seed, 0, stream=0)
    noise = NoiseSpec(delta=args.delta)
    design = DesignConfig(delta=args.delta, y_M=args.y_max, u_M=args.u_max)
    est = EstimatorConfig(h=args.h, t=args.t, cond_limit=design.cond_limit)
    if args.plant_cmd:
        from .input_design import LineProtocolPlant

        plant = LineProtocolPlant(command=shlex.split(args.plant_cmd))
    else:
        plant = SimulatedPlant(model, noise, rng, x0=np.zeros(model.m))
    try:
        run = run_closed_loop(
            plant, design, est, args.iterations, args.order,
            mode="designed" if args.mode == "designed" else "white",
            rng=exp.trial_rng(args.seed, 0, stream=1),
            # an external plant's Markov parameters are unknown unless --model gives them
            G_star=markov_true(model, args.t) if args.model or not args.plant_cmd else None,
            dither_amplitude=args.dither,
        )
    finally:
        if args.plant_cmd:
            plant.close()
    run.to_csv(args.output)
    used = sum(b.used for b in run.batches)
    print(
        f"wrote {len(run.iterations)} iterations to {args.output} "
        f"(violations={run.violations}, infeasible={run.infeasible_events}, "
        f"batches used={used}/{len(run.batches)})"
    )
    if used == 0:
        print(
            f"numeric failure: no estimate formed, all {len(run.batches)} batches skipped",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_campaign(args) -> int:
    if args.config:
        config = exp.load_config(args.config)
    else:
        config = exp.ExperimentConfig()
    if args.trials is not None:
        config.trials = args.trials
    if args.schedule is not None:
        config.N_schedule = tuple(int(v) for v in args.schedule.split(","))
    if args.seed is not None:
        config.rng_seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    designed = exp.run_campaign(config)
    white = exp.white_noise_baseline(config)
    exp.emit_csv(designed, args.prefix + "curves_designed.csv")
    exp.emit_csv(white, args.prefix + "curves_white.csv")
    exp.emit_trials_csv([designed, white], args.prefix + "trials.csv")
    summary = exp.emit_summary(designed, white, ratio_N=args.ratio_N)
    with open(args.prefix + "summary.txt", "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    return EXIT_OK


def cmd_report(args) -> int:
    designed = exp.parse_curves_csv(args.designed)
    white = exp.parse_curves_csv(args.white) if args.white else None
    lines = []
    status = EXIT_OK
    if white is not None:
        N = args.ratio_N
        for curves, path in ((designed, args.designed), (white, args.white)):
            if N not in curves.get("err_mean", {}):
                raise ConfigurationError(f"{path} has no err_mean row for N={N}")
        ratio = designed["err_mean"][N] / white["err_mean"][N]
        lines.append(f"error ratio designed/white at N={N}: {ratio:.4f}")
        if args.check and ratio >= args.ratio_threshold:
            status = EXIT_THRESHOLD
    devs = designed.get("dev_median", {})
    Ns = sorted(N for N, v in devs.items() if np.isfinite(v) and v > 0)
    if len(Ns) >= 3:
        slope = exp.convergence_slope([devs[N] for N in Ns], Ns)
        lines.append(f"designed deviation slope: {slope:.3f}")
        if args.check and slope > args.slope_threshold:
            status = EXIT_THRESHOLD
    print("\n".join(lines) if lines else "nothing to report")
    return status


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--dither", type=float, default=8.0)
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
    p.add_argument("--check", action="store_true")
    p.add_argument("--ratio-threshold", type=float, default=0.6)
    p.add_argument("--slope-threshold", type=float, default=-0.8)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
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
