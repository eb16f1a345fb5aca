"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5 and 6 share a single 100-trial paired Monte-Carlo campaign on the
running benchmark system (module-scoped fixture).  Monte-Carlo instances and
sampler streams are frozen by seed so every run is reproducible.
"""

import time

import numpy as np
import pytest

from subvarid.deviation import max_deviation, solve_j1_exact, solve_j1_relaxed
from subvarid.experiments import (
    ExperimentConfig,
    canonical_model,
    convergence_slope,
    run_campaign,
    running_canonical,
    trial_rng,
    white_noise_baseline,
)
from subvarid.input_design import (
    CostAffineForm,
    DesignConfig,
    SimulatedPlant,
    cost_j0,
    run_closed_loop,
)
from subvarid.lti_core import (
    NoiseSpec,
    build_L,
    lead_outputs,
    markov_true,
    simulate,
)
from subvarid.subspace_id import (
    EstimatorConfig,
    estimate_markov_batched,
    ho_kalman,
)
from conftest import random_minimal_model

CAMPAIGN_SEED = 20240515


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def paired_campaign():
    config = ExperimentConfig(
        trials=100,
        N_schedule=(10, 20, 40, 80, 160, 320),
        rng_seed=CAMPAIGN_SEED,
        workers=2,  # the same trials as one worker (test_two_workers_give_the_same_trials)
    )
    t0 = time.time()
    designed = run_campaign(config)
    t_designed = time.time() - t0
    t0 = time.time()
    white = white_noise_baseline(config)
    t_white = time.time() - t0
    return config, designed, white, t_designed, t_white


def test_criterion_01_noise_free_exactness():
    # 50 random minimal models, orders 2..6, persistently exciting inputs
    t0 = time.time()
    rng = np.random.default_rng(101)
    cases = []
    while len(cases) < 50:
        m = int(rng.integers(2, 7))
        n = int(rng.choice([1, 1, 1, 2]))
        if n == 2 and m % 2:
            n = 1
        p = int(rng.choice([1, 1, 2]))
        cases.append((m, n, p))
    worst = 0.0
    for m, n, p in cases:
        model = random_minimal_model(rng, m, n=n, p=p)
        cfg = EstimatorConfig(h=m // n, t=m + 1)
        T = cfg.samples_needed(n, p)
        U = rng.uniform(-1.0, 1.0, size=(T, p))
        log = simulate(model, np.zeros(m), U)
        G_hat = estimate_markov_batched(log.y, log.u, cfg)
        G_star = markov_true(model, cfg.t)
        rel = np.linalg.norm(G_hat.G - G_star.G) / np.linalg.norm(G_star.G)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(1, ok, f"worst relative error {worst:.3e} over 50 models, {elapsed:.1f}s")


def test_criterion_02_ho_kalman_round_trip():
    t0 = time.time()
    G_star = markov_true(canonical_model(), 9)
    real = ho_kalman(G_star, m=4)
    err = np.abs(real.markov(9).G - G_star.G).max()
    elapsed = time.time() - t0
    ok = err < 1e-6 and elapsed < 1.0
    assert report(2, ok, f"max Markov-block error {err:.3e}, {elapsed:.2f}s")


def test_criterion_03_box_qp_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_quality = np.inf
    dominance_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 13))
        A = rng.normal(size=(d, d))
        H = A @ A.T
        delta = float(rng.uniform(0.02, 0.5))
        exact, _ = solve_j1_exact(H, delta)
        rounded, _, gap = solve_j1_relaxed(H, delta)
        relaxed = rounded + gap
        tol = 1e-9 * max(exact, 1.0)
        if not (exact + tol >= rounded and relaxed + tol >= exact):
            dominance_ok = False
        if exact > 0:
            worst_quality = min(worst_quality, rounded / exact)
    elapsed = time.time() - t0
    ok = dominance_ok and worst_quality >= 0.95 and elapsed < 60.0
    assert report(
        3, ok, f"rounding quality >= {worst_quality:.4f}, dominance {dominance_ok}, {elapsed:.1f}s"
    )


def test_criterion_04_analytic_vs_sampled_deviation():
    # frozen strongly excited window of the raw benchmark plant; the sampled
    # max uses antithetic sign-vertex noise pairs (the sub-problems' optima
    # sit at the noise bound, so interior sampling cannot approach the max)
    t0 = time.time()
    model = canonical_model()
    h, t, delta = 4, 5, 0.05
    cfg = EstimatorConfig(h=h, t=t)
    s, r, d_off = cfg.s(1, 1), t, h + t
    rng = np.random.default_rng(57)
    U = 10.0 * rng.choice([-1.0, 1.0], size=cfg.samples_needed(1, 1))
    log = simulate(model, np.array([0.0, 0.5, 0.3, 1.0]), U)
    res = max_deviation(log.y, log.u, cfg, delta)

    y, u = log.y.flatten(), log.u.flatten()
    L = build_L(y, u, 0, h, t)
    lead = lead_outputs(y, 0, h, t, s).flatten()
    idxH = np.arange(h)[:, None] + np.arange(s)[None, :]
    idxU = np.arange(h + t)[:, None] + np.arange(s)[None, :]
    nw, ne = h + t + s, h + t + s - 1
    sampler = np.random.default_rng(5004)
    best = 0.0
    done = 0
    while done < 100000:
        b = min(20000, 100000 - done)
        sg = delta * sampler.choice([-1.0, 1.0], size=(b, nw + ne))
        Wv, Ev = sg[:, :nw], sg[:, nw:]
        dL = np.concatenate([Wv[:, idxH], Ev[:, idxU]], axis=1)
        Wl = Wv[:, d_off : d_off + s]
        G1 = np.linalg.solve((L[None] + dL).transpose(0, 2, 1),
                             (lead[None] + Wl)[:, :, None])[:, s - r :, 0]
        G2 = np.linalg.solve((L[None] - dL).transpose(0, 2, 1),
                             (lead[None] - Wl)[:, :, None])[:, s - r :, 0]
        best = max(best, float(np.linalg.norm(G1 - G2, axis=1).max()))
        done += b
    elapsed = time.time() - t0
    ratio = res.J / best
    ok = best <= res.J <= 1.10 * best and elapsed < 300.0
    assert report(
        4, ok, f"analytic J={res.J:.4f}, sampled max={best:.4f}, ratio={ratio:.3f}, {elapsed:.0f}s"
    )


@pytest.mark.campaign
def test_criterion_05_error_ratio(paired_campaign):
    config, designed, white, t_designed, t_white = paired_campaign
    ratio = designed.stat("err_mean", 80) / white.stat("err_mean", 80)
    # one campaign serves criteria 5 and 6, so its runtime budget is the sum
    # of their stated limits (10 + 15 minutes)
    elapsed = t_designed + t_white
    ok = ratio < 0.6 and elapsed < 1500.0
    assert report(
        5, ok,
        f"designed/white mean error at N=80: {ratio:.3f} "
        f"({designed.stat('err_mean', 80):.2e} / {white.stat('err_mean', 80):.2e}), "
        f"campaign {elapsed:.0f}s",
    )


@pytest.mark.campaign
def test_criterion_06_deviation_rates(paired_campaign):
    config, designed, white, t_designed, t_white = paired_campaign
    Ns = config.N_schedule
    slope_d = convergence_slope([designed.stat("dev_median", N) for N in Ns], Ns)
    slope_w = convergence_slope([white.stat("dev_median", N) for N in Ns], Ns)
    ok = slope_d <= -0.8 and -0.7 <= slope_w <= -0.3
    assert report(
        6, ok, f"designed slope {slope_d:.3f} (<= -0.8), white slope {slope_w:.3f} (in [-0.7,-0.3])"
    )


def test_criterion_07_gaussian_error_bound():
    # truncated-Gaussian noise, batched estimator on the running system; the
    # bound constants follow the error analysis: c1 = alpha_M^2 (delta^2 +
    # y_M^2), c2 = 2 sqrt(n + s)
    t0 = time.time()
    model = running_canonical()
    design = DesignConfig()
    h, t, N = 4, 5, 40
    cfg = EstimatorConfig(h=h, t=t, N=N)
    s = cfg.s(1, 1)
    G_star = markov_true(model, t)
    noise = NoiseSpec(delta=design.delta, kind="gaussian-truncated")
    c1 = design.alpha_M**2 * (design.delta**2 + design.y_M**2)
    c2 = 2.0 * np.sqrt(1 + s)
    dG = []
    for trial in range(500):
        rng = trial_rng(707, trial, 0)
        plant = SimulatedPlant(model, noise, rng, x0=np.zeros(4))
        T = cfg.samples_needed(1, 1)
        u = rng.uniform(-design.u_M, design.u_M, size=T)
        ys = [plant.reset()]
        for uk in u[:-1]:
            ys.append(plant.step(float(uk)))
        G_hat = estimate_markov_batched(np.asarray(ys), u, cfg)
        dG.append(float(np.sum((G_hat.G - G_star.G) ** 2)))
    dG = np.asarray(dG)
    ok = True
    details = []
    for tau in (1, 2, 3):
        bound = (c1 / N) * (c2 + tau) ** 2
        prob = float(np.mean(dG <= bound))
        target = 1.0 - 2.0 * np.exp(-(tau**2) / 2.0)
        details.append(f"tau={tau}: Pr={prob:.3f} >= {target:.3f}")
        if prob < target:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    assert report(7, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_08_recursive_feasibility():
    t0 = time.time()
    model = running_canonical()
    est = EstimatorConfig(h=4, t=9)
    design = DesignConfig()
    infeasible = 0
    violations = 0
    steps = 0
    for trial in range(100):
        plant = SimulatedPlant(
            model, NoiseSpec(delta=0.05), trial_rng(808, trial, 0), x0=np.zeros(4)
        )
        run = run_closed_loop(
            plant, design, est, 250, 4,
            rng=trial_rng(808, trial, 1),
        )
        infeasible += run.infeasible_events
        violations += run.violations
        steps += len(run.iterations)
    elapsed = time.time() - t0
    viol_frac = violations / steps
    ok = infeasible == 0 and viol_frac <= 0.02 and elapsed < 600.0
    assert report(
        8, ok,
        f"empty-feasible-set events {infeasible}, |y|>y_M fraction {viol_frac:.4f} "
        f"over {steps} steps, {elapsed:.0f}s",
    )


def test_criterion_09_cost_convexity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        r = int(rng.integers(1, 10))
        form = CostAffineForm(
            F_terms=rng.normal(scale=rng.uniform(0.1, 3.0), size=(k, r)),
            c_terms=rng.normal(scale=rng.uniform(0.1, 3.0), size=(k, r)),
        )
        a, b = rng.normal(scale=5.0, size=2)
        violation = cost_j0((a + b) / 2.0, form) - 0.5 * (
            cost_j0(a, form) + cost_j0(b, form)
        )
        worst = max(worst, violation)
    ok = worst <= 1e-9
    assert report(9, ok, f"max midpoint-convexity violation {worst:.2e} over 1000 probes")


def test_criterion_10_variance_deviation_equivalence():
    # fixed first-order instance; grid over the designable corner input
    t0 = time.time()
    from subvarid.lti_core import StateSpaceModel

    model = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    h, t, delta = 1, 1, 0.05
    cfg = EstimatorConfig(h=h, t=t)
    s, r, d_off = cfg.s(1, 1), t, h + t
    base_u = np.array([1.0, -0.6, 0.8])
    x0 = np.array([0.4])
    grid = np.linspace(-2.0, 2.0, 21)
    idxH = np.arange(h)[:, None] + np.arange(s)[None, :]
    idxU = np.arange(h + t)[:, None] + np.arange(s)[None, :]
    rng = np.random.default_rng(1010)
    W = rng.uniform(-delta, delta, (10000, h + t + s))
    E = rng.uniform(-delta, delta, (10000, h + t + s - 1))
    Js, mus = [], []
    for ug in grid:
        U = np.concatenate([base_u, [ug], [0.0]])
        log = simulate(model, x0, U)
        y, u = log.y.flatten()[:5], U[:4]
        Js.append(max_deviation(y, u, cfg, delta).J)
        L = build_L(y, u, 0, h, t)
        lead = lead_outputs(y, 0, h, t, s).flatten()
        dL = np.concatenate([W[:, idxH], E[:, idxU]], axis=1)
        Wl = W[:, d_off : d_off + s]
        G = np.linalg.solve((L[None] + dL).transpose(0, 2, 1),
                            (lead[None] + Wl)[:, :, None])[:, s - r :, 0]
        mus.append(float(np.sum((G - G.mean(axis=0)) ** 2)))
    iJ, imu = int(np.argmin(Js)), int(np.argmin(mus))
    elapsed = time.time() - t0
    ok = iJ == imu
    assert report(
        10, ok,
        f"argmin J at grid[{iJ}]={grid[iJ]:+.1f}, argmin mu at grid[{imu}]={grid[imu]:+.1f}, "
        f"{elapsed:.0f}s",
    )