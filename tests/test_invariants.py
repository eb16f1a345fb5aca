"""Cross-module property tests that do not fit a single operation."""

import csv
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subvarid.experiments import (ErrorCurves, TrialResult, emit_csv, emit_trials_csv,
                                  parse_curves_csv)
from subvarid.input_design import CostAffineForm, IdentificationRun, IterationRecord, cost_j0
from subvarid.lti_core import SignalLog, format_number, parse_number


def test_finite_difference_gradient_richardson_consistency():
    # central differences of J0 at probe steps d and d/2 agree to second
    # order away from the max-switching kinks
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(200):
        form = CostAffineForm(
            F_terms=rng.normal(size=(3, 6)), c_terms=rng.normal(size=(3, 6))
        )
        u2 = float(rng.normal(scale=2.0))
        d = 1e-4 * max(1.0, abs(u2))
        # skip probes whose active scenario changes inside the stencil
        active = [
            int(np.argmax(np.sum((form.F_terms * (u2 + o) + form.c_terms) ** 2, axis=1)))
            for o in (-d, -d / 2, d / 2, d)
        ]
        if len(set(active)) > 1:
            continue
        g_full = (cost_j0(u2 + d, form) - cost_j0(u2 - d, form)) / (2 * d)
        g_half = (cost_j0(u2 + d / 2, form) - cost_j0(u2 - d / 2, form)) / d
        scale = max(abs(g_full), 1.0)
        assert abs(g_full - g_half) <= 1e-6 * scale
        checked += 1
    assert checked > 100


def test_designed_loop_squared_error_rate():
    # median squared identification error of the designed closed loop decays
    # like 1/N; the conditioning constraint cuts the heavy tail of window
    # quality that slows the rate under undesigned excitation
    from subvarid.experiments import ExperimentConfig, run_trial

    Ns = (10, 40, 160)
    config = ExperimentConfig(trials=10, N_schedule=Ns, rng_seed=31415)
    errors = {N: [] for N in Ns}
    for trial in range(config.trials):
        res = run_trial(config, trial, "designed")
        for N in Ns:
            errors[N].append(res.errors[N] ** 2)
    medians = [float(np.median(errors[N])) for N in Ns]
    slope = np.polyfit(np.log(Ns), np.log(medians), 1)[0]
    assert slope <= -0.8, (medians, slope)


def same_floats(got, want) -> bool:
    """Bit for bit, except that every nan equals every other."""
    return all(np.isnan(g) and np.isnan(w) or np.float64(g).tobytes() == np.float64(w).tobytes()
               for g, w in zip(got, want, strict=True))


def csv_floats(path, columns) -> list:
    """The cells of the named columns, row after row, read by `parse_number`."""
    with open(path, newline="") as fh:
        return [parse_number(row[c]) for row in csv.DictReader(fh) for c in columns]


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(), min_size=5, max_size=15))
def test_every_written_csv_reads_back_exactly(tmp_path_factory, values):
    """Each CSV the package writes, and the plant's wire text, reads back to
    the very floats written, nan cells included: the curves CSV through
    `parse_curves_csv`, the signal CSV through `SignalLog.from_csv` (its
    cells are finite) and every other cell through `parse_number`."""
    tmp = tmp_path_factory.mktemp("csv")
    assert same_floats([parse_number(format_number(v) + "\n") for v in values], values)

    Ns = list(range(1, len(values) + 1))
    emit_csv(ErrorCurves(N_values=Ns, mode="designed", stats={"err_mean": dict(zip(Ns, values))},
                         raw=[]), tmp / "curves.csv")
    assert same_floats(parse_curves_csv(tmp / "curves.csv")["err_mean"].values(), values)

    trial = TrialResult(trial=0, mode="white", errors=dict(zip(Ns, values)),
                        deviations=dict(zip(Ns, values[::-1])), violations=0, steps=1,
                        infeasible_events=0)
    emit_trials_csv([ErrorCurves(N_values=Ns, mode="white", stats={}, raw=[trial])],
                    tmp / "trials.csv")
    assert same_floats(csv_floats(tmp / "trials.csv", ("dG", "J")),
                       [v for pair in zip(values, values[::-1]) for v in pair])

    records = [IterationRecord(index=i, u=v, y=-v, y_pred=v, J=v, dG=v, feasible=True)
               for i, v in enumerate(values)]
    IdentificationRun(iterations=records, batches=[], y=np.zeros(1), u=np.zeros(0),
                      infeasible_events=0, violations=0, design_fallbacks=0,
                      init_len=0).to_csv(tmp / "run.csv")
    assert same_floats(csv_floats(tmp / "run.csv", ("u", "y", "yhat", "J", "dG")),
                       [w for v in values for w in (v, -v, v, v, v)])

    finite = np.array([v if math.isfinite(v) else 0.0 for v in values])
    SignalLog(u=finite, y=finite[::-1], t0=3).to_csv(tmp / "signal.csv")
    log = SignalLog.from_csv(tmp / "signal.csv")
    assert log.t0 == 3
    assert same_floats(log.u[:, 0], finite) and same_floats(log.y[:, 0], finite[::-1])
