import subprocess
import sys

import numpy as np
import pytest

from subvarid.deviation import window_deviation
from subvarid.errors import ConfigurationError, DesignFailureError, NearSingularError
from subvarid.input_design import (
    BorderedPartition,
    CostAffineForm,
    DesignConfig,
    LineProtocolPlant,
    OutputPredictor,
    SimulatedPlant,
    _data_noise_terms,
    _lead_noise_terms,
    build_scenarios,
    conditioning_u_sets,
    cost_j0,
    design_input_step,
    multitone_dither,
    partition_from_L,
    run_closed_loop,
    safety_interval,
)
from subvarid.lti_core import (
    NoiseSpec,
    StateSpaceModel,
    build_L,
    extended_observability,
    markov_true,
    simulate,
    toeplitz_T,
)
from subvarid.subspace_id import EstimatorConfig, ho_kalman

from conftest import CANONICAL_A, CANONICAL_B, CANONICAL_C, random_minimal_model


@pytest.fixture(scope="module")
def running(canonical):
    from subvarid.experiments import stabilized

    return stabilized(canonical)


def make_run_data(model, h, t, rng, amp=5.0, extra=40):
    cfg = EstimatorConfig(h=h, t=t)
    T = cfg.samples_needed(1, 1) + extra
    U = amp * rng.uniform(-1, 1, size=T)
    log = simulate(model, np.zeros(model.m), U)
    return log


class TestDesignConfig:
    def test_alpha_M_defaults_to_constraint_boundary(self):
        cfg = DesignConfig(delta=0.05, epsilon=0.01)
        assert cfg.alpha_M == pytest.approx(np.sqrt(0.01 / 0.05))

    def test_inconsistent_alpha_M_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignConfig(delta=0.05, epsilon=0.01, alpha_M=10.0)

    def test_margin_validated(self):
        with pytest.raises(ConfigurationError):
            DesignConfig(kappa=1.5)


class TestBorderedInverse:
    def test_diagonal_2x2(self):
        L = np.array([[2.0, 0.0], [0.0, 4.0]])
        part = partition_from_L(L, r=1)
        assert part.u2_of(4.0) == pytest.approx(0.25)
        assert np.allclose(part.alpha_of(4.0), np.diag([0.5, 0.25]))

    def test_random_partition_many_corners(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        part = partition_from_L(A, r=2)
        for _ in range(100):
            u_new = rng.normal(scale=5.0)
            if abs(u_new - part.c0) < 1e-3:
                continue
            L = A.copy()
            L[-1, -1] = u_new
            direct = np.linalg.inv(L)
            assert np.abs(part.alpha_of(u_new) - direct).max() < 1e-9

    def test_singular_corner_raises(self):
        L = np.array([[2.0, 1.0], [1.0, 0.5]])
        part = partition_from_L(L, r=1)
        with pytest.raises(NearSingularError):
            part.u2_of(part.c0)


class TestPredictOutput:
    def test_exact_model_noise_free_zero_error(self, running):
        rng = np.random.default_rng(2)
        h, t = 4, 9
        log = make_run_data(running, h, t, rng)
        G = markov_true(running, t)
        T = len(log.y)
        y_hist = log.y[: T - 5].flatten()
        u_hist = log.u[: T - 6].flatten()
        u_next = log.u[T - 6 : T - 1].flatten()
        pred = OutputPredictor(running.A, running.B, running.C, G).predict(y_hist, u_hist, u_next)
        actual = log.y[T - 5 :].flatten()
        assert np.abs(pred - actual).max() < 1e-8

    def test_zero_A_prediction_ignores_output_window(self):
        # A = 0 kills the propagated terms; prediction depends on inputs only
        model = StateSpaceModel(A=np.zeros((1, 1)), B=[[2.0]], C=[[1.0]])
        G = markov_true(model, 2)
        u_hist = np.array([0.5, -1.0, 2.0, 0.3])
        y_a = np.array([9.0, 1.0, 2.0, 3.0, 4.0])
        y_b = np.array([-3.0, 7.0, 5.0, 1.0, 0.0])
        pred = OutputPredictor(model.A, model.B, model.C, G, h=1)
        assert pred.predict(y_a, u_hist, [0.0]) == pytest.approx(pred.predict(y_b, u_hist, [0.0]))

    def test_window_length_validated(self, running):
        pred = OutputPredictor(running.A, running.B, running.C, markov_true(running, 9))
        with pytest.raises(ConfigurationError):
            pred.predict(np.zeros(5), np.zeros(4), [0.0])


def oracle_predict(pred, y_history, u_history, u_next):
    """The per-sample recursion that OutputPredictor.predict folds into one map."""
    h, t = pred.h, pred.t
    yw = np.asarray(y_history, dtype=float)
    uw = np.concatenate([u_history, u_next])
    q = len(u_next)
    ybuf = np.concatenate([yw, np.empty(q)])
    base = len(yw)
    for j in range(q):
        k0 = base + j - h - t
        ybuf[base + j] = (
            pred.rowY @ ybuf[k0 : k0 + h]
            + pred.rowU @ uw[k0 : k0 + h]
            + pred.G @ uw[k0 + h : k0 + h + t]
        )
    return ybuf[base:]


def oracle_safety_interval(pred, real, cfg, horizon, y, u):
    """safety_interval with bump - base predictions and a fresh mode split."""
    h = pred.h
    base = oracle_predict(pred, y, u, np.zeros(1 + horizon))
    bump = oracle_predict(pred, y, u, np.eye(1 + horizon)[0])
    lo, hi = -cfg.u_M, cfg.u_M
    for b, slope in zip(base, bump - base):
        ends = sorted(((-cfg.kappa * cfg.y_M - b) / slope, (cfg.kappa * cfg.y_M - b) / slope))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    evals, V = np.linalg.eig(real.A_hat)
    unstable = np.abs(evals) >= 1.0
    W = np.linalg.inv(V)[unstable]
    model = StateSpaceModel(A=real.A_hat, B=real.B_hat, C=real.C_hat)
    uw = np.append(u[-(h - 1):], 0.0)
    x = np.linalg.pinv(extended_observability(model, h)) @ (y[-h:] - toeplitz_T(model, h) @ uw)
    for j in range(h - 1):
        x = model.A @ x + model.B @ uw[j : j + 1]
    for aa, bb, zn, lam in zip(W @ model.A @ x, (W @ model.B).flatten(), np.abs(W @ x),
                               evals[unstable]):
        bound = max(0.4 * abs(bb) * cfg.u_M / max(abs(lam) - 1.0, 1e-6), 0.95 * zn)
        a2, b2 = abs(bb) ** 2, 2.0 * float(np.real(np.conj(aa) * bb))
        disc = b2 * b2 - 4 * a2 * (abs(aa) ** 2 - bound**2)
        if disc < 0:
            return None
        root = np.sqrt(disc)
        lo, hi = max(lo, (-b2 - root) / (2 * a2)), min(hi, (-b2 + root) / (2 * a2))
    return (lo, hi) if lo <= hi else None


class TestPredictorCache:
    H, T = 4, 9

    def _cases(self):
        """(predictor, y history, u history) on seeded random realizations."""
        rng = np.random.default_rng(40)
        for m in (2, 3, 4, 4):
            model = random_minimal_model(rng, m)
            G = markov_true(model, self.T)
            real = ho_kalman(G, m)
            pred = OutputPredictor(real.A_hat, real.B_hat, real.C_hat, G, h=self.H)
            log = simulate(model, np.zeros(m), 5.0 * rng.uniform(-1, 1, size=40),
                           noise=NoiseSpec(delta=0.05), rng=rng)
            y, u = log.y.flatten(), log.u.flatten()
            for end in (self.H + self.T + 1, 25, 40):
                yield pred, y[:end], u[: end - 1]

    @pytest.mark.parametrize("q", [1, 5, 9, 10, 29])
    def test_map_matches_per_sample_recursion(self, q):
        rng = np.random.default_rng(q)
        for pred, y, u in self._cases():
            u_next = 5.0 * rng.uniform(-1, 1, size=q)
            ref = oracle_predict(pred, y, u, u_next)
            scale = max(np.abs(y).max(), np.abs(ref).max())
            assert np.abs(pred.predict(y, u, u_next) - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("q", [1, 5, 9, 10, 29])
    def test_impulse_is_bump_minus_base(self, q):
        for pred, y, u in self._cases():
            base = oracle_predict(pred, y, u, np.zeros(q))
            bump = oracle_predict(pred, y, u, np.eye(q)[0])
            scale = max(np.abs(y).max(), np.abs(base).max())
            assert np.abs(pred.impulse(q) - (bump - base)).max() <= 1e-12 * scale

    def test_stable_model_skips_the_mode_split(self):
        pred, _, _ = next(self._cases())
        assert not pred.unstable.any() and pred.W is None

    def test_unstable_model_interval_matches_fresh_eig(self):
        model = StateSpaceModel(A=CANONICAL_A, B=CANONICAL_B, C=CANONICAL_C)
        G = markov_true(model, self.T)
        real = ho_kalman(G, 4)
        log = simulate(model, np.zeros(4), 0.05 * np.random.default_rng(0).uniform(-1, 1, 30))
        y, u = log.y.flatten(), log.u.flatten()
        pred = OutputPredictor(real.A_hat, real.B_hat, real.C_hat, G, h=self.H)
        assert pred.unstable.sum() == 2
        narrowed = 0
        cfg = DesignConfig()
        for end in range(14, 31):
            got = safety_interval(pred, cfg, 4, y[:end], u[: end - 1])
            ref = oracle_safety_interval(pred, real, cfg, 4, y[:end], u[: end - 1])
            if ref is None:
                assert got is None
                continue
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)
            narrowed += got != (-10.0, 10.0)
        assert narrowed >= 2


class TestFeasibleSetCheck:
    """Membership in the safety interval, and the conditioning sets."""

    def _interval(self, running, rng, cfg=None):
        h, t = 4, 9
        log = make_run_data(running, h, t, rng)
        G = markov_true(running, t)
        real = ho_kalman(G, 4)
        pred = OutputPredictor(real.A_hat, real.B_hat, real.C_hat, G, h=h)
        cfg = DesignConfig() if cfg is None else cfg
        return safety_interval(pred, cfg, 4, log.y.flatten(), log.u.flatten()[:-1])

    def test_zero_input_from_quiet_state_feasible(self, running):
        interval = self._interval(running, np.random.default_rng(3))
        assert interval is not None
        assert interval[0] <= 0.0 <= interval[1]

    def test_input_bound_violation(self, running):
        interval = self._interval(running, np.random.default_rng(4))
        u_M = DesignConfig().u_M
        assert interval is not None
        assert not interval[0] <= 2 * u_M <= interval[1]
        assert -u_M <= interval[0] <= interval[1] <= u_M

    def test_output_bound_violation_detected(self, running):
        tight = DesignConfig(y_M=1e-6, u_M=10.0)
        interval = self._interval(running, np.random.default_rng(5), cfg=tight)
        assert interval is None or not interval[0] <= 5.0 <= interval[1]

    def test_history_too_short_to_predict_raises(self, running):
        h, t = 4, 9
        G = markov_true(running, t)
        real = ho_kalman(G, 4)
        pred = OutputPredictor(real.A_hat, real.B_hat, real.C_hat, G, h=h)
        y = np.zeros(h + t)  # one output short of a prediction window
        with pytest.raises(ConfigurationError):
            safety_interval(pred, DesignConfig(), 4, y, y[:-1])

    def test_conditioning_margins_reported(self, running):
        rng = np.random.default_rng(6)
        h, t = 4, 9
        # strong excitation, so the window's inverse can meet the alpha bound
        log = make_run_data(running, h, t, rng, amp=500.0)
        part = partition_from_L(build_L(log.y, log.u, 0, h, t), r=t)
        sets = conditioning_u_sets(part, DesignConfig())
        assert sets
        for lo, hi in sets:
            assert lo <= hi
            inside = hi if np.isfinite(hi) else lo
            raw = np.abs(part.alpha_of(inside)).max()
            assert raw <= DesignConfig().alpha_M * (1 + 1e-9)


class TestCostJ0:
    def test_constant_when_F_zero(self):
        form = CostAffineForm(F_terms=np.zeros((2, 3)), c_terms=np.ones((2, 3)))
        assert cost_j0(0.0, form) == cost_j0(5.0, form) == pytest.approx(3.0)

    def test_single_scenario_perfect_square(self):
        form = CostAffineForm(F_terms=np.array([[1.0]]), c_terms=np.array([[-3.0]]))
        assert cost_j0(3.0, form) == pytest.approx(0.0)
        assert cost_j0(0.0, form) == pytest.approx(9.0)

    def test_two_scenarios_max_of_quadratics(self):
        form = CostAffineForm(
            F_terms=np.array([[1.0], [1.0]]), c_terms=np.array([[-1.0], [1.0]])
        )
        for u2 in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert cost_j0(u2, form) == pytest.approx((abs(u2) + 1.0) ** 2)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            form = CostAffineForm(
                F_terms=rng.normal(size=(4, 5)), c_terms=rng.normal(size=(4, 5))
            )
            a, b = rng.normal(scale=3.0, size=2)
            mid = cost_j0((a + b) / 2, form)
            assert mid <= (cost_j0(a, form) + cost_j0(b, form)) / 2 + 1e-9


class TestCostMinimizer:
    @staticmethod
    def _random_form(rng, k, r):
        F = rng.normal(size=(k, r))
        c = rng.normal(scale=3.0, size=(k, r))
        if k >= 2 and rng.random() < 0.3:
            F[rng.integers(k)] = 0.0
        if k >= 2 and rng.random() < 0.3:
            # a second scenario with the same curvature a = |F|^2
            i, j = rng.choice(k, size=2, replace=False)
            F[j] = rng.choice([-1.0, 1.0], size=r) * rng.permutation(F[i])
        return CostAffineForm(F_terms=F, c_terms=c)

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(1500):
            form = self._random_form(rng, k=1 + trial % 5, r=1 + trial % 9)
            u_star = form.minimizer()
            f_star = form.value(u_star)
            curved = form._a > 0
            ends = np.append(-form._b[curved] / (2.0 * form._a[curved]), u_star)
            lo, hi = ends.min() - 1.0, ends.max() + 1.0
            grid = np.linspace(lo, hi, 20001)
            a, b, d = (v[:, None] for v in (form._a, form._b, form._d))
            grid_min = float(((a * grid + b) * grid + d).max(axis=0).min())
            assert f_star <= grid_min + 1e-12 * max(grid_min, 1.0)

    def test_optimum_at_crossing(self):
        # (u2 - 1)^2 and (u2 + 1)^2 cross at their envelope's minimum
        form = CostAffineForm(
            F_terms=np.array([[1.0], [1.0]]), c_terms=np.array([[-1.0], [1.0]])
        )
        assert form.minimizer() == 0.0
        assert form.value(0.0) == 1.0

    def test_constant_cost_returns_zero(self):
        form = CostAffineForm(F_terms=np.zeros((3, 2)), c_terms=np.ones((3, 2)))
        assert form.minimizer() == 0.0


def test_saved_config_keeps_the_design_step(tmp_path):
    from subvarid.experiments import ExperimentConfig, load_config, save_config

    path = tmp_path / "experiment.json"
    save_config(ExperimentConfig(), path)
    assert load_config(path).design == ExperimentConfig().design


def scenario_affine_terms(
    partition: BorderedPartition,
    lead: np.ndarray,
    w_lead: np.ndarray,
    dL: np.ndarray,
    r: int,
):
    """F, c coefficients of one noise scenario's residual in u2.

    The residual of column j (selected block) is
    w_lead^T alpha[:, j] - lead^T (alpha dL alpha)[:, j] with
    alpha = base + u2 R1 R2^T; the u2^2 term of the second product is dropped
    (same order as the linearization that defines the deviation quadratics).
    build_scenarios forms its four sign-flipped rows from the same terms.
    """
    sel = slice(partition.s - r, partition.s)
    Fw, cw = _lead_noise_terms(partition, w_lead, sel)
    F1, F2, cd = _data_noise_terms(partition, lead, dL, sel)
    return Fw - F1 - F2, cw - cd


class TestScenarioTerms:
    def test_affine_terms_match_direct_residual_derivative(self, running):
        # F is the exact du2-derivative of the residual at u2 = 0 and c its value
        rng = np.random.default_rng(9)
        h, t = 4, 9
        log = make_run_data(running, h, t, rng, amp=8.0)
        s = h + (h + t)
        L = build_L(log.y, log.u, 0, h, t)
        part = partition_from_L(L, r=t)
        lead = log.y.flatten()[h + t : h + t + s]
        w_lead = 0.1 * rng.choice([-1.0, 1.0], size=s)
        dL = 0.1 * rng.normal(size=(s, s))
        F, c = scenario_affine_terms(part, lead, w_lead, dL, r=t)

        def residual(u2):
            alpha = part.base + u2 * np.outer(part.R1, part.R2)
            full = w_lead @ alpha - lead @ (alpha @ dL @ alpha)
            return full[s - t :]

        assert np.allclose(residual(0.0), c, atol=1e-12)
        eps = 1e-7
        deriv = (residual(eps) - residual(-eps)) / (2 * eps)
        assert np.allclose(deriv, F, rtol=1e-5, atol=1e-8)


class TestScenarioKernels:
    def _window(self, running, seed):
        rng = np.random.default_rng(seed)
        h, t = 4, 9
        s = 2 * h + t
        log = make_run_data(running, h, t, rng, amp=8.0)
        part = partition_from_L(build_L(log.y, log.u, 0, h, t), r=t)
        return part, log.y.flatten()[h + t : h + t + s], h, t

    def test_sign_flipped_scenarios_are_bit_identical(self, running):
        part, lead, h, t = self._window(running, 42)
        s, delta = part.s, 0.05
        probe = part.c0 + 2.0
        form = build_scenarios(part, lead, h, t, delta, probe)
        _, w_star, p_star = window_deviation(part.alpha_of(probe), lead, h, t, delta, n_starts=1)
        nw = h + s - 1
        dL = np.zeros((s, s))
        for br in range(h):
            dL[br] = p_star[br : br + s]
        for br in range(h + t):
            dL[h + br] = p_star[nw + br : nw + br + s]
        signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
        for k, (sw, sp) in enumerate(signs):
            F, c = scenario_affine_terms(part, lead, sw * w_star, sp * dL, r=t)
            assert np.array_equal(form.F_terms[k], F)
            assert np.array_equal(form.c_terms[k], c)


class TestDesignInputStep:
    def _step_args(self, F, c, intervals=None):
        """(partition, intervals, form) for design_input_step."""
        part = partition_from_L(np.diag([2.0, 3.0, 4.0]), r=1)
        form = CostAffineForm(F_terms=np.atleast_2d(F), c_terms=np.atleast_2d(c))
        return part, [(-10.0, 10.0)] if intervals is None else intervals, form

    def test_single_scenario_returns_quadratic_minimizer(self):
        args = self._step_args([1.0], [-3.0])
        u = design_input_step(*args)
        # optimal u2 = 3 -> u = c0 + 1/3
        assert u == pytest.approx(args[0].c0 + 1.0 / 3.0, abs=1e-12)

    def test_zero_cost_returns_feasible_input(self):
        u = design_input_step(*self._step_args([0.0], [0.0]))
        assert -10.0 <= u <= 10.0

    def test_empty_feasible_set_raises(self):
        args = self._step_args([1.0], [-3.0], intervals=[])
        with pytest.raises(DesignFailureError):
            design_input_step(*args)

    def test_projection_to_interval(self):
        # feasible interval excludes the unconstrained optimum
        u = design_input_step(*self._step_args([1.0], [-3.0], intervals=[(5.0, 10.0)]))
        assert 5.0 - 1e-9 <= u <= 10.0 + 1e-9


class TestClosedLoop:
    def test_noise_free_plant_identified_exactly(self, running):
        rng = np.random.default_rng(10)
        est = EstimatorConfig(h=4, t=9, cond_limit=1e8)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.0), rng, x0=np.zeros(4))
        G_star = markov_true(running, 9)
        run = run_closed_loop(
            plant, DesignConfig(delta=0.0, epsilon=1.0, alpha_M=np.inf),
            est, 60, 4, rng=np.random.default_rng(11), G_star=G_star,
        )
        final = [rec.dG for rec in run.iterations if np.isfinite(rec.dG)]
        assert final and final[-1] < 1e-12
        assert run.violations == 0

    def test_designed_run_respects_bounds_and_records(self, running):
        rng = np.random.default_rng(12)
        est = EstimatorConfig(h=4, t=9, cond_limit=1e8)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), rng, x0=np.zeros(4))
        run = run_closed_loop(
            plant, DesignConfig(), est, 120, 4,
            rng=np.random.default_rng(13), G_star=markov_true(running, 9),
        )
        assert len(run.iterations) == 120
        assert np.abs(run.u).max() <= 10.0 + 1e-9
        assert run.violations == 0
        assert any(b.used for b in run.batches)

    def test_csv_export_schema(self, running, tmp_path):
        rng = np.random.default_rng(14)
        est = EstimatorConfig(h=4, t=9, cond_limit=1e8)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), rng, x0=np.zeros(4))
        run = run_closed_loop(plant, DesignConfig(), est, 10, 4,
                              rng=np.random.default_rng(15))
        path = tmp_path / "run.csv"
        run.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,u,y,yhat,J,dG,feasible"

    def test_prediction_tracks_output(self, running):
        # model-based one-step predictions stay close to realized outputs
        rng = np.random.default_rng(16)
        est = EstimatorConfig(h=4, t=9, cond_limit=1e8)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), rng, x0=np.zeros(4))
        run = run_closed_loop(plant, DesignConfig(), est, 150, 4,
                              rng=np.random.default_rng(17))
        recs = [rec for rec in run.iterations[60:] if rec.y_pred != 0.0]
        assert recs
        errs = np.array([abs(rec.y - rec.y_pred) for rec in recs])
        scale = np.abs(run.y).max()
        assert np.median(errs) < 0.1 * scale


class TestLineProtocolPlant:
    PLANT_SCRIPT = (
        "import sys\n"
        "a, b, c, x = 0.5, 1.0, 1.0, 0.0\n"
        "print(c * x, flush=True)\n"
        "for line in sys.stdin:\n"
        "    x = a * x + b * float(line)\n"
        "    print(c * x, flush=True)\n"
    )

    def test_round_trip_matches_internal_simulation(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", self.PLANT_SCRIPT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        plant = LineProtocolPlant(proc=proc)
        y0 = plant.reset()
        assert y0 == 0.0
        x = 0.0
        for u in (1.0, -0.5, 2.0):
            y = plant.step(u)
            x = 0.5 * x + u
            assert y == pytest.approx(x)
        plant.close()

    def test_close_kills_a_plant_that_ignores_end_of_input(self, monkeypatch):
        monkeypatch.setattr(LineProtocolPlant, "CLOSE_TIMEOUT_S", 0.5)
        plant = LineProtocolPlant(command=[
            sys.executable, "-c", "import time; print(0.0, flush=True); time.sleep(60)",
        ])
        assert plant.reset() == 0.0
        plant.close()
        assert plant.proc.poll() is not None


class TestMultitone:
    def test_amplitude_normalized(self):
        rng = np.random.default_rng(18)
        u = multitone_dither(200, 3.0, rng)
        assert np.abs(u).max() == pytest.approx(3.0)
        assert len(u) == 200
