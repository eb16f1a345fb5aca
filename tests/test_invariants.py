"""Cross-module property tests that do not fit a single operation."""

import numpy as np

from subvarid.input_design import CostAffineForm, cost_j0


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