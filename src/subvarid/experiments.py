"""Monte-Carlo experiment harness: campaigns, baselines, curves, CSV output.

Reproducibility contract: every random stream is a Philox generator keyed by
(campaign seed, trial index, stream id), so identical configs give bit
identical outputs and the designed / white-noise campaigns consume identical
noise realizations per trial (paired comparison).

The benchmark plant is open-loop unstable; closed-loop experiments identify
it as a running system, i.e. under its incumbent LQR regulator (the wrapped
loop is the LTI plant the identifier sees).  The wrapper lives here in the
harness; the identification loop never sees the regulator, only data.
"""

from __future__ import annotations

import csv
import json
import math
import os
import reprlib
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, NumericOverflowError, SubvaridError
from .input_design import DesignConfig, IdentificationRun, SimulatedPlant, run_closed_loop
from .lti_core import (MarkovMatrix, NoiseSpec, StateSpaceModel, markov_true, parse_number,
                       write_csv)
from .subspace_id import EstimatorConfig


# ---------------------------------------------------------------------------
# benchmark system
# ---------------------------------------------------------------------------

BENCHMARK_A = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.23, -2.17, -1.42, -1.21],
    ]
)
BENCHMARK_B = np.array([[0.0], [0.0], [0.0], [1.0]])
BENCHMARK_C = np.array([[0.82, 0.17, -0.28, 0.27]])

# companion benchmark for the random-system demonstration (also open-loop
# unstable; run it through `stabilized` for closed-loop experiments)
DEMO_RANDOM_A = np.array(
    [
        [-23.00, -13.25, -20.20, -14.63],
        [14.26, 8.13, 13.46, 8.74],
        [8.12, 4.31, 5.36, 6.37],
        [13.85, 8.51, 11.28, 8.69],
    ]
)
DEMO_RANDOM_B = np.array([[12.72], [-8.14], [-2.38], [-7.43]])
DEMO_RANDOM_C = np.array([[-0.58, -0.99, -0.10, 0.06]])


def canonical_model() -> StateSpaceModel:
    """4th-order SISO benchmark in controllable canonical form."""
    return StateSpaceModel(A=BENCHMARK_A, B=BENCHMARK_B, C=BENCHMARK_C)


def random_demo_model() -> StateSpaceModel:
    """The published 4th-order random demonstration system."""
    return StateSpaceModel(A=DEMO_RANDOM_A, B=DEMO_RANDOM_B, C=DEMO_RANDOM_C)


def lqr_gain(model: StateSpaceModel) -> np.ndarray:
    """Discrete LQR state-feedback gain (Q = I, R = I) for the incumbent regulator.

    scipy is imported here, not at module level: only the regulator needs it,
    and importing the package then does not load it.
    """
    from scipy.linalg import solve_discrete_are

    R = np.eye(model.p)
    P = solve_discrete_are(model.A, model.B, np.eye(model.m), R)
    return np.linalg.solve(model.B.T @ P @ model.B + R, model.B.T @ P @ model.A)


def stabilized(model: StateSpaceModel) -> StateSpaceModel:
    """Plant as seen through its running regulator: (A - B K, B, C)."""
    K = lqr_gain(model)
    return StateSpaceModel(A=model.A - model.B @ K, B=model.B, C=model.C)


def running_canonical() -> StateSpaceModel:
    """Benchmark plant under its incumbent regulator (the identified system)."""
    return stabilized(canonical_model())


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that is not an int in [0, 2**63); name is its flag or setting."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**63):
        raise ConfigurationError(f"{name} must be an int in [0, 2**63), got {seed!r}")


def trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed per (campaign seed, trial, stream)."""
    check_seed(seed)
    if not 0 <= stream < 256:
        raise ConfigurationError("stream id must fit one byte")
    return np.random.Generator(np.random.Philox(key=[seed, (trial << 8) + stream]))


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------


# a campaign with more failed trials than this share of its trials aborts
MAX_FAILURE_FRACTION = 0.10

# JSON value types a top-level setting may take, by the type of its default;
# a JSON true is not an int setting, nor 1 a bool one
_JSON_KINDS = {bool: bool, int: int, str: str, tuple: list}


@dataclass
class ExperimentConfig:
    """One campaign: model, trial count, batch schedule, input mode, design bounds.

    Its one noise bound is `design.delta`: the plant's noise, of kind
    `noise_kind`, is drawn from the box the design stage works against.
    """

    trials: int = 100
    N_schedule: tuple = (10, 20, 40, 80, 160, 320)
    input_mode: str = "designed"
    rng_seed: int = 2024
    h: int = 4
    t: int = 9
    order: int = 4
    noise_kind: str = "uniform"
    design: DesignConfig = field(default_factory=DesignConfig)
    model: Optional[StateSpaceModel] = None
    prestabilize: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.input_mode not in ("designed", "white_noise"):
            raise ConfigurationError(f"unknown input_mode {self.input_mode!r}")
        if self.trials < 1 or not self.N_schedule:
            raise ConfigurationError("need at least one trial and one N value")
        check_seed(self.rng_seed, "rng_seed")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")
        NoiseSpec(self.design.delta, self.noise_kind)  # refuses an unknown kind

    def resolved_model(self) -> StateSpaceModel:
        base = self.model if self.model is not None else canonical_model()
        return stabilized(base) if self.prestabilize else base

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "N_schedule": list(self.N_schedule), "design": asdict(self.design),
                "model": self.model.to_dict() if self.model is not None else None}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from the dict `to_dict` writes; omitted settings keep their defaults.

        The four design values live in the `design` block only: a top-level
        `delta`, `y_M`, `u_M` or `epsilon` is an unknown setting, and so is
        the derived `alpha_M` anywhere.  An unknown key or a value of the
        wrong JSON type is a ConfigurationError, and so is an N_schedule entry
        that is not a positive int or a design value that does not fit a
        finite float.
        """
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown campaign settings {sorted(unknown)}")
        design = data.get("design", {})
        if not isinstance(design, dict):
            raise ConfigurationError("the design block must be a JSON object")
        unknown = set(design) - {f.name for f in fields(DesignConfig)}
        if unknown:
            raise ConfigurationError(f"unknown design settings {sorted(unknown)}")
        # design values are JSON numbers, not bools, within the float range
        for key, value in design.items():
            if type(value) not in (int, float):
                raise ConfigurationError(f"design setting {key!r} must be a number, "
                                         f"got {reprlib.repr(value)}")
            if not abs(value) <= sys.float_info.max:
                raise ConfigurationError(f"design setting {key!r} must be a finite float, "
                                         f"got {reprlib.repr(value)}")
        settings = {}
        for f in fields(cls):
            if f.name not in data or f.name in ("design", "model"):
                continue
            value, kinds = data[f.name], _JSON_KINDS.get(type(f.default))
            if kinds and not (isinstance(value, kinds)
                              and isinstance(value, bool) == isinstance(f.default, bool)):
                raise ConfigurationError(
                    f"campaign setting {f.name!r} must be {type(f.default).__name__}, "
                    f"got {value!r}"
                )
            if f.name == "N_schedule" and not all(type(N) is int and N > 0 for N in value):
                raise ConfigurationError(f"N_schedule must hold positive ints, got {value!r}")
            settings[f.name] = tuple(value) if f.name == "N_schedule" else value
        model = None
        if data.get("model") == "demo-random":
            model = random_demo_model()
        elif data.get("model") is not None:
            model = StateSpaceModel.from_dict(data["model"])
        design = DesignConfig(**{key: float(value) for key, value in design.items()})
        return cls(model=model, design=design, **settings)


@dataclass
class TrialResult:
    trial: int
    mode: str
    errors: dict          # N -> ||G_hat - G*||_F at N batches
    deviations: dict      # N -> D_N
    violations: int
    steps: int
    infeasible_events: int
    failed: bool = False
    # "ExceptionClass: message" of a failed trial; out of repr, which the
    # campaign fingerprints hash
    error: Optional[str] = field(default=None, repr=False)


@dataclass
class ErrorCurves:
    """Per-N statistics of identification error and deviation."""

    N_values: list
    mode: str
    stats: dict           # stat name -> {N: value}
    raw: list             # list of TrialResult

    def stat(self, name: str, N: int) -> float:
        return self.stats[name][N]


# ---------------------------------------------------------------------------
# single trial
# ---------------------------------------------------------------------------


def deviation_curve(run: IdentificationRun, N_schedule, mode: str) -> dict:
    """D_N at each scheduled batch count.

    Designed input commits to its realized history, so the remaining
    deviation of the N-batch average is the current window's J over N.  A
    white-noise batch sequence leaves every batch's noise free, and the
    independent per-batch deviations combine root-sum-square.  Windows
    outside the first-order validity regime carry no deviation statistic.
    """
    out = {}
    for N in N_schedule:
        js = np.asarray(
            [b.J for b in run.batches[: int(N)] if b.used and b.regime and np.isfinite(b.J)]
        )
        if len(js) == 0:
            out[N] = np.nan
        elif mode == "designed":
            out[N] = float(js[-1] / N)
        else:
            out[N] = float(np.sqrt(np.sum(js**2)) / N)
    return out


def error_curve(run: IdentificationRun, N_schedule, G_star: MarkovMatrix) -> dict:
    """||G_hat - G*||_F of the running batch average at each scheduled N."""
    n_used = np.cumsum([b.used for b in run.batches])
    return {N: float(np.linalg.norm(run.batches[N - 1].G - G_star.G.flatten()))
            if 0 < N <= len(run.batches) and n_used[N - 1] else np.nan
            for N in N_schedule}


def run_trial(config: ExperimentConfig, trial: int, mode: str) -> TrialResult:
    """One closed-loop trial; noise and dither streams keyed by trial index.

    `mode` ("designed" or "white") goes to the loop as it is.  A
    ConfigurationError from the loop, an unknown mode among them, propagates,
    since every trial of the campaign would meet it; any other SubvaridError
    makes this trial a failed one, counted against MAX_FAILURE_FRACTION.
    """
    model = config.resolved_model()
    est = EstimatorConfig(h=config.h, t=config.t)
    s = est.s(model.n, model.p)
    # batch i is folded at iteration i*s and the curves read batches up to
    # max N - 1, so the loop stops at the iteration that folds that batch
    n_iter = (max(config.N_schedule) - 1) * s + 1
    G_star = markov_true(model, config.t)
    noise = NoiseSpec(config.design.delta, config.noise_kind)
    plant = SimulatedPlant(model, noise, trial_rng(config.rng_seed, trial, stream=0))
    try:
        run = run_closed_loop(plant, config.design, est, n_iter, config.order, mode=mode,
                              rng=trial_rng(config.rng_seed, trial, stream=1),
                              dither_rng=trial_rng(config.rng_seed, trial, stream=2))
    except ConfigurationError:
        raise  # the campaign's configuration is at fault, not this trial
    except SubvaridError as exc:
        return TrialResult(trial=trial, mode=mode, errors={}, deviations={},
                           violations=0, steps=0, infeasible_events=0, failed=True,
                           error=f"{type(exc).__name__}: {exc}")
    return TrialResult(trial=trial, mode=mode, errors=error_curve(run, config.N_schedule, G_star),
                       deviations=deviation_curve(run, config.N_schedule, mode),
                       violations=run.violations, steps=n_iter,
                       infeasible_events=run.infeasible_events)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def _aggregate(results, N_schedule, mode) -> ErrorCurves:
    stats = {name: {} for name in
             ("err_mean", "err_median", "err_q1", "err_q3", "dev_median", "dev_mean")}
    for N in N_schedule:
        errs = np.asarray([r.errors.get(N, np.nan) for r in results if not r.failed])
        devs = np.asarray([r.deviations.get(N, np.nan) for r in results if not r.failed])
        # an N that no trial reached has only nan values, and no statistic
        has_err, has_dev = (~np.isnan(errs)).any(), (~np.isnan(devs)).any()
        stats["err_mean"][N] = float(np.nanmean(errs)) if has_err else np.nan
        stats["err_median"][N] = float(np.nanmedian(errs)) if has_err else np.nan
        stats["err_q1"][N] = float(np.nanpercentile(errs, 25)) if has_err else np.nan
        stats["err_q3"][N] = float(np.nanpercentile(errs, 75)) if has_err else np.nan
        stats["dev_median"][N] = float(np.nanmedian(devs)) if has_dev else np.nan
        stats["dev_mean"][N] = float(np.nanmean(devs)) if has_dev else np.nan
    return ErrorCurves(N_values=list(N_schedule), mode=mode, stats=stats, raw=list(results))


def _run_trials(config: ExperimentConfig, mode: str):
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # under fork the first submit starts every worker: one per trial or core at most
        workers = min(config.workers, config.trials, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_star, [(config, i, mode) for i in range(config.trials)]))
    else:
        results = [run_trial(config, i, mode) for i in range(config.trials)]
    failures = sum(r.failed for r in results)
    if failures > MAX_FAILURE_FRACTION * config.trials:
        raise NumericOverflowError(
            f"{failures}/{config.trials} trials failed; campaign aborted"
        )
    return results


def _trial_star(args):
    return run_trial(*args)


def run_campaign(config: ExperimentConfig) -> ErrorCurves:
    """Execute the configured campaign and aggregate curves."""
    mode = "designed" if config.input_mode == "designed" else "white"
    return _aggregate(_run_trials(config, mode), config.N_schedule, mode)


def white_noise_baseline(config: ExperimentConfig) -> ErrorCurves:
    """Same pipeline with white-noise inputs and identical trial noise streams."""
    return _aggregate(_run_trials(config, "white"), config.N_schedule, "white")


def convergence_slope(values, N_values) -> float:
    """Least-squares slope of log(value) against log(N)."""
    v = np.asarray(values, dtype=float)
    N = np.asarray(N_values, dtype=float)
    if len(v) < 3:
        raise ConfigurationError("need at least 3 points for a slope")
    if np.any(v <= 0) or np.any(~np.isfinite(v)):
        raise ConfigurationError("slope needs positive finite values")
    return float(np.polyfit(np.log(N), np.log(v), 1)[0])


def usable_slope(by_N: dict, N_values) -> Optional[float]:
    """`convergence_slope` over the N of N_values whose value is finite and > 0.

    Returns None when fewer than 3 N are usable.
    """
    usable = [N for N in N_values if np.isfinite(by_N[N]) and by_N[N] > 0]
    if len(usable) < 3:
        return None
    return convergence_slope([by_N[N] for N in usable], usable)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def emit_csv(curves: ErrorCurves, path) -> None:
    """curves.csv schema: N,mode,stat,value."""
    write_csv(path, ["N", "mode", "stat", "value"],
              ([N, curves.mode, stat, by_N[N]] for stat, by_N in sorted(curves.stats.items())
               for N in curves.N_values))


def emit_trials_csv(curves_list, path) -> None:
    """trials.csv schema: trial,N,mode,dG,J."""
    write_csv(path, ["trial", "N", "mode", "dG", "J"],
              ([r.trial, N, r.mode, r.errors.get(N, np.nan), r.deviations.get(N, np.nan)]
               for curves in curves_list for r in curves.raw if not r.failed
               for N in curves.N_values))


def parse_curves_csv(path) -> dict:
    """stat -> {N: value} from a curves.csv, its cells read by `parse_number`; a
    missing column, a refused or missing cell or an N that is not whole is a
    ConfigurationError."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in ("N", "stat", "value") if col not in (reader.fieldnames or ())]
        if missing:
            raise ConfigurationError(f"{path}: no {', '.join(missing)} column")
        for row in reader:
            N, value = (parse_number(row[col] or "") for col in ("N", "value"))
            column = "N" if N is None or not N.is_integer() else "value" if value is None else ""
            if column:
                raise ConfigurationError(
                    f"{path}, line {reader.line_num}: N {row['N']!r} or value "
                    f"{row['value']!r} is not a number (column {column!r})")
            out.setdefault(row["stat"], {})[int(N)] = value
    return out


# the criteria-5/6 gates: the designed/white error ratio at ratio_N is below
# RATIO_GATE, the designed deviation slope at most DESIGNED_SLOPE_GATE, and
# the white deviation slope within WHITE_SLOPE_GATE
RATIO_GATE = 0.6
DESIGNED_SLOPE_GATE = -0.8
WHITE_SLOPE_GATE = (-0.7, -0.3)


class CampaignFigures(NamedTuple):
    """The gated figures of a campaign; None where one cannot be formed."""

    ratio: Optional[float]           # None: ratio_N is not in both err_mean tables
    designed_slope: Optional[float]  # None: fewer than 3 usable N
    white_slope: Optional[float]

    def failed_gates(self, white: bool = True) -> list:
        """Names of the figures that break their gate; a missing or non-finite
        figure breaks it.  Without a white arm only the designed slope is gated."""
        def finite(value):
            return value is not None and math.isfinite(value)

        low, high = WHITE_SLOPE_GATE
        gates = {"designed deviation slope": finite(self.designed_slope)
                 and self.designed_slope <= DESIGNED_SLOPE_GATE}
        if white:
            gates["designed/white error ratio"] = finite(self.ratio) and self.ratio < RATIO_GATE
            gates["white deviation slope"] = (finite(self.white_slope)
                                              and low <= self.white_slope <= high)
        return [name for name, ok in gates.items() if not ok]


def campaign_figures(designed: dict, white: Optional[dict] = None,
                     ratio_N: int = 80) -> CampaignFigures:
    """The gated figures from stat tables (stat -> {N: value}), as
    `ErrorCurves.stats` and `parse_curves_csv` give them.  Each slope runs over
    its own table's dev_median; a zero white error gives a ratio of inf."""
    def slope(table):
        devs = table.get("dev_median", {})
        return usable_slope(devs, list(devs))

    white = white or {}
    d_err, w_err = designed.get("err_mean", {}), white.get("err_mean", {})
    ratio = None
    if ratio_N in d_err and ratio_N in w_err:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = float(np.divide(d_err[ratio_N], w_err[ratio_N]))
    return CampaignFigures(ratio, slope(designed), slope(white))


def emit_summary(designed: dict, white: Optional[dict] = None, ratio_N: int = 80) -> str:
    """Human-readable report of stat tables (stat -> {N: value}) and their
    `campaign_figures`.  The N are those of the designed table; a stat or N
    that a table lacks prints as nan."""
    figures = campaign_figures(designed, white, ratio_N)
    Ns = list(dict.fromkeys(N for by_N in designed.values() for N in by_N))

    def by_N(title, table):
        return [f"{title} mean error by N:"] + [
            f"  N={N:4d}  err_mean={table.get('err_mean', {}).get(N, np.nan):.6g}  "
            f"dev_median={table.get('dev_median', {}).get(N, np.nan):.6g}" for N in Ns]

    def slope_line(arm, slope):
        shown = "fewer than 3 usable N" if slope is None else f"{slope:.3f}"
        return f"{arm} deviation slope (log-log): {shown}"

    lines = ["campaign summary", "================", f"N schedule: {Ns}",
             *by_N("designed-input", designed), slope_line("designed", figures.designed_slope)]
    if white is not None:
        lines += by_N("white-noise", white)
        if figures.ratio is None:
            lines.append(f"designed/white error ratio: N={ratio_N} is not in the schedule")
        else:
            lines.append(f"designed/white error ratio at N={ratio_N}: {figures.ratio:.4f}")
        lines.append(slope_line("white", figures.white_slope))
    lines.append(
        "note: the PEM / Fisher-information input-design baseline from the "
        "literature comparison is not implemented here."
    )
    return "\n".join(lines)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump({"schema": "subvarid-experiment-v1", **config.to_dict()}, fh, indent=2)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: a campaign config must be a JSON object")
    schema = data.pop("schema", "subvarid-experiment-v1")
    if schema != "subvarid-experiment-v1":
        raise ConfigurationError(f"unsupported config schema {schema!r}")
    return ExperimentConfig.from_dict(data)
