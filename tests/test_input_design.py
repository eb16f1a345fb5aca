import math
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subvarid.deviation import window_deviation
from subvarid.experiments import trial_rng
from subvarid import input_design
from subvarid.errors import (
    ConfigurationError,
    DesignFailureError,
    NearSingularError,
    NumericOverflowError,
    OrderDeficiencyError,
    PlantProtocolError,
)
from subvarid.input_design import (
    DITHER_SHARE,
    DIVERGENCE_FACTOR,
    KAPPA,
    LOOP_COND_LIMIT,
    BorderedPartition,
    CostAffineForm,
    DesignConfig,
    LineProtocolPlant,
    OutputPredictor,
    SimulatedPlant,
    _data_noise_terms,
    _validate_model,
    _lead_noise_terms,
    build_scenarios,
    conditioning_u_sets,
    cost_j0,
    design_input_step,
    multitone_dither,
    run_closed_loop,
    safety_interval,
)
from subvarid.lti_core import (
    NoiseSpec,
    StateSpaceModel,
    build_L,
    extended_observability,
    lead_outputs,
    markov_true,
    simulate,
    toeplitz_T,
    window_gather,
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

    @pytest.mark.parametrize("kwargs, message", [
        ({"epsilon": -1.0}, "epsilon must be finite and above 0, got -1.0"),
        ({"epsilon": 0.0}, "epsilon must be finite and above 0, got 0.0"),
        ({"epsilon": math.inf}, "epsilon must be finite and above 0, got inf"),
        ({"epsilon": math.nan}, "epsilon must be finite and above 0, got nan"),
        ({"alpha_M": -0.1}, "alpha_M must be above 0, got -0.1"),
        ({"alpha_M": 0.0}, "alpha_M must be above 0, got 0.0"),
        ({"alpha_M": math.nan}, "alpha_M must be above 0, got nan"),
    ])
    def test_epsilon_and_alpha_M_must_be_above_0(self, kwargs, message):
        """A negative alpha_M leaves no conditioning-feasible input, so no step
        would be designed; a negative epsilon would derive a nan alpha_M."""
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            DesignConfig(**kwargs)


class TestBorderedInverse:
    def test_diagonal_2x2(self):
        L = np.array([[2.0, 0.0], [0.0, 4.0]])
        part = BorderedPartition(L)
        assert part.u2_of(4.0) == pytest.approx(0.25)
        assert np.allclose(part.alpha_of(4.0), np.diag([0.5, 0.25]))

    def test_random_partition_many_corners(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        part = BorderedPartition(A)
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
        part = BorderedPartition(L)
        with pytest.raises(NearSingularError):
            part.u2_of(part.c0)

    def test_blocks_are_read_from_the_window(self):
        rng = np.random.default_rng(1)
        L = rng.normal(size=(5, 5)) + 3 * np.eye(5)
        part = BorderedPartition(L)
        Y_inv = np.linalg.inv(L[:4, :4])
        assert part.s == 5 and np.array_equal(part.Y_inv, Y_inv)
        assert part.c0 == pytest.approx(L[4, :4] @ Y_inv @ L[:4, 4])
        with pytest.raises(ConfigurationError, match="must be square, got shape"):
            BorderedPartition(L[:4])


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
        ends = sorted(((-KAPPA * cfg.y_M - b) / slope, (KAPPA * cfg.y_M - b) / slope))
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


def oracle_estimate_state(pred, y_hist, u_hist):
    """The per-window observer that `estimate_state` stacks: x(now) from the
    last h outputs and inputs of the histories."""
    h, model = pred.h, pred.model
    yw = np.asarray(y_hist[-h:], dtype=float).flatten()
    uw = np.concatenate([np.asarray(u_hist[-(h - 1):], dtype=float).flatten(), [0.0]]) if h > 1 else np.zeros(1)
    x = pred.Oc_left @ (yw - pred.T @ uw)
    for j in range(h - 1):
        x = model.A @ x + model.B @ np.atleast_1d(uw[j])
    return x


def oracle_validate_model(pred, y, u, n_check=12):
    """The per-window validation loop: one observer call per checked end."""
    model, h = pred.model, pred.h
    errs = []
    scale = max(float(np.abs(y[-(n_check + h + 1):]).max()), 1.0)
    for k0 in range(max(len(y) - n_check - h, 0), len(y) - h):
        x = oracle_estimate_state(pred, y[: k0 + h], u[: k0 + h - 1])
        y_next = (model.C @ (model.A @ x + model.B @ np.atleast_1d(u[k0 + h - 1])))[0]
        errs.append(abs(float(y_next) - float(y[k0 + h])))
    return float(np.mean(errs)) / scale


class TestStackedObserver:
    """`estimate_state` over a stack of window ends against the per-window
    recursion, to 1e-12 of the data scale."""

    T = 9

    def _cases(self, h):
        rng = np.random.default_rng(50 + h)
        for m in (1, 2, 3, 4)[:h]:  # the observer needs m <= h
            model = random_minimal_model(rng, m)
            G = markov_true(model, self.T)
            real = ho_kalman(G, m)
            pred = OutputPredictor(real.A_hat, real.B_hat, real.C_hat, G, h=h)
            log = simulate(model, rng.normal(size=m), 5.0 * rng.uniform(-1, 1, size=40),
                           noise=NoiseSpec(delta=0.05), rng=rng)
            yield pred, log.y.flatten(), log.u.flatten()

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_stack_matches_per_window_recursion(self, h):
        for pred, y, u in self._cases(h):
            ends = np.arange(h, len(y) + 1)
            X = pred.estimate_state(y, u, ends)
            assert X.shape == (len(ends), pred.model.m)
            for e, x in zip(ends, X):
                ref = oracle_estimate_state(pred, y[:e], u[: e - 1])
                scale = max(np.abs(y[:e]).max(), np.abs(ref).max())
                assert np.abs(x - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("h", [1, 2, 4])
    @pytest.mark.parametrize("length", [5, 12, 16, 40])
    def test_validation_matches_per_window_loop(self, h, length):
        # length 5 and 12 hold fewer than n_check + h outputs
        for pred, y, u in self._cases(h):
            got = _validate_model(pred, y[:length], u[:length])
            ref = oracle_validate_model(pred, y[:length], u[:length])
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_end_without_h_outputs_rejected(self):
        pred, y, u = next(self._cases(4))
        with pytest.raises(ConfigurationError):
            pred.estimate_state(y, u, [3, 10])


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
        part = BorderedPartition(build_L(log.y, log.u, 0, h, t))
        sets = conditioning_u_sets(part, DesignConfig())
        assert sets
        for lo, hi in sets:
            assert lo <= hi
            inside = hi if np.isfinite(hi) else lo
            raw = np.abs(part.alpha_of(inside)).max()
            assert raw <= DesignConfig().alpha_M * (1 + 1e-9)


    def test_overflowing_noise_range_leaves_no_input(self, running):
        """At delta 8e307 the range 2 delta s overflows; its limit, a raw bound
        of 0, admits no input, and no RuntimeWarning is raised on the way."""
        log = make_run_data(running, 4, 9, np.random.default_rng(6), amp=500.0)
        part = BorderedPartition(build_L(log.y, log.u, 0, 4, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert conditioning_u_sets(part, DesignConfig(delta=8e307)) == []


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


def oracle_envelope_value(form, u2):
    """J0(u2) on the cached coefficient arrays, one numpy expression."""
    return float(np.max((form._a * u2 + form._b) * u2 + form._d))


def oracle_envelope_minimizer(form):
    """argmin of J0 over the vertex and crossing candidates, as numpy arrays."""
    a, b, d = form._a, form._b, form._d
    curved = a > 0
    if not curved.any():
        return 0.0
    i, j = np.triu_indices(len(a), k=1)
    da, db, dd = a[i] - a[j], b[i] - b[j], d[i] - d[j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = db * db - 4.0 * da * dd
        q = -0.5 * (db + np.copysign(np.sqrt(np.maximum(disc, 0.0)), db))
        crossings = np.concatenate([q / da, dd / q])[np.tile(disc >= 0, 2)]
        cand = np.concatenate([-b[curved] / (2.0 * a[curved]), crossings])
        cand = cand[np.isfinite(cand)]
        vals = ((a[:, None] * cand + b[:, None]) * cand + d[:, None]).max(axis=0)
    return float(cand[np.argmin(vals)])


def _outcome(fn):
    """fn()'s value, or "no minimizer" when it finds no finite candidate.

    The array oracle's argmin over no candidates raises ValueError and the
    float envelope DesignFailureError; both are the same outcome.
    """
    try:
        return fn()
    except (ValueError, DesignFailureError):
        return "no minimizer"


def _same(x, y):
    """Equal floats with equal sign bits, or both NaN, or the same error type."""
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return x == y


class TestFloatEnvelope:
    """The float envelope of CostAffineForm against the array form, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(k=st.integers(1, 6), r=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           integral=st.booleans(), flat=st.booleans(), negated=st.booleans(),
           same_a=st.booleans(), scale=st.sampled_from([1.0, 1.0, 1e-150, 1e100, 1e150, 1e200]))
    def test_matches_the_array_form(self, k, r, seed, integral, flat, negated, same_a, scale):
        # integer-valued coefficients make exact ties among candidates; huge
        # and tiny scales overflow and underflow the coefficients and roots
        rng = np.random.default_rng(seed)
        if integral:
            F = rng.integers(-2, 3, size=(k, r)).astype(float)
            c = rng.integers(-3, 4, size=(k, r)).astype(float)
        else:
            F = rng.normal(size=(k, r))
            c = rng.normal(scale=3.0, size=(k, r))
        if k >= 2 and flat:
            F[rng.integers(k)] = 0.0  # a zero-curvature row
        if k >= 2 and negated:
            i, j = rng.choice(k, size=2, replace=False)
            F[j], c[j] = -F[i], -c[i]  # the sign-flipped scenario's row
        if k >= 2 and same_a:
            i, j = rng.choice(k, size=2, replace=False)
            F[j] = rng.choice([-1.0, 1.0], size=r) * rng.permutation(F[i])
        form = CostAffineForm(F_terms=scale * F, c_terms=scale * c)
        with np.errstate(over="ignore", invalid="ignore"):
            u_star = _outcome(form.minimizer)
            assert _same(u_star, _outcome(lambda: oracle_envelope_minimizer(form)))
            probes = [0.0, -0.0, 1.0, -2.5, 1e-3, *rng.normal(scale=4.0, size=3)]
            if isinstance(u_star, float):
                probes.append(u_star)
            for u2 in probes:
                assert _same(form.value(float(u2)), oracle_envelope_value(form, u2))

    @pytest.mark.parametrize("F, c, u_star", [
        # (u-1)^2, (2u-10)^2 and a flat 9: the envelope is 9 on [3.5, 4], and
        # three candidates reach it exactly, in this order: the q / da root
        # 4 of rows 0, 2, then the dd / q roots 11/3 of rows 0, 1 and 3.5
        # of rows 1, 2; the first one wins
        ([[1.0], [2.0], [0.0]], [[-1.0], [-10.0], [3.0]], 4.0),
        # equal curvature: the crossing is the linear root, dd / q
        ([[1.0], [-1.0]], [[-1.0], [-3.0]], -1.0),
    ])
    def test_candidate_order_and_first_minimum(self, F, c, u_star):
        form = CostAffineForm(F_terms=np.array(F), c_terms=np.array(c))
        assert form.minimizer() == oracle_envelope_minimizer(form) == u_star


def test_overflowing_scenarios_fall_back(running, monkeypatch):
    # scenario coefficients scaled by 1e200 overflow every minimizer
    # candidate; the design step then falls back instead of raising
    h, t = 4, 9
    s = 2 * h + t
    tau = h + t + s - 2  # the corner of the window at k0 = 0
    rng = np.random.default_rng(1)
    u = multitone_dither(tau, 8.0, rng)
    plant = SimulatedPlant(running, NoiseSpec(delta=0.05), rng, x0=np.zeros(running.m))
    ya = np.array([plant.reset(), *(plant.step(float(v)) for v in u)])
    args = (DesignConfig(), None, ya, np.append(u, 0.0), (-10.0, 10.0), h, t, s)
    assert isinstance(input_design._designed_input(*args), float)
    built = []

    def overflowing(*a, **kw):
        form = build_scenarios(*a, **kw)
        built.append(form)
        return CostAffineForm(F_terms=1e200 * form.F_terms, c_terms=1e200 * form.c_terms)

    monkeypatch.setattr(input_design, "build_scenarios", overflowing)
    with np.errstate(over="ignore", invalid="ignore"):
        assert input_design._designed_input(*args) is None
    assert built, "the design stage never reached the scenarios"


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
    build_scenarios forms its two sign-flipped rows from the same terms.
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
        part = BorderedPartition(L)
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
        part = BorderedPartition(build_L(log.y, log.u, 0, h, t))
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
        assert form.F_terms.shape == form.c_terms.shape == (2, t)
        for k, sp in enumerate((1.0, -1.0)):
            F, c = scenario_affine_terms(part, lead, w_star, sp * dL, r=t)
            assert np.array_equal(form.F_terms[k], F)
            assert np.array_equal(form.c_terms[k], c)
            # the left-out scenario (-w_star, -sp dL) is this row negated, bit for bit
            F, c = scenario_affine_terms(part, lead, -w_star, -sp * dL, r=t)
            assert np.array_equal(-form.F_terms[k], F)
            assert np.array_equal(-form.c_terms[k], c)


def oracle_conditioning_u_sets(partition, cfg):
    """conditioning_u_sets with every gather and division formed per use."""
    a_lim = cfg.alpha_M
    if not np.isfinite(a_lim):
        return [(-np.inf, np.inf)]
    ds = 2.0 * cfg.delta * partition.s
    raw = a_lim if ds == 0 else (-1.0 + np.sqrt(1.0 + 4.0 * ds * a_lim)) / (2.0 * ds)
    if np.abs(partition.base).max() > raw:
        return []
    b = partition.base.ravel()
    d = np.outer(partition.R1, partition.R2).ravel()
    mask = np.abs(d) >= 1e-15
    if mask.any():
        lo_candidates = np.minimum((-raw - b[mask]) / d[mask], (raw - b[mask]) / d[mask])
        hi_candidates = np.maximum((-raw - b[mask]) / d[mask], (raw - b[mask]) / d[mask])
        lo = float(lo_candidates.max())
        hi = float(hi_candidates.min())
        if lo > hi:
            return []
    else:
        lo, hi = -np.inf, np.inf
    c0 = partition.c0
    out = []
    if lo <= 0.0 <= hi:
        if hi > 0:
            out.append((c0 + 1.0 / hi, np.inf))
        if lo < 0:
            out.append((-np.inf, c0 + 1.0 / lo))
        if lo == 0 and hi == 0:
            return []
    else:
        out.append((c0 + 1.0 / hi, c0 + 1.0 / lo))
    return out


def oracle_data_noise_terms(partition, lead, dL, sel):
    """_data_noise_terms with g_inf @ dL formed twice."""
    base, R1, R2 = partition.base, partition.R1, partition.R2
    g_inf = base.T @ lead
    F1 = float(lead @ R1) * (R2 @ dL @ base)[sel]
    F2 = float(g_inf @ dL @ R1) * R2[sel]
    return F1, F2, (g_inf @ dL @ base)[sel]


def oracle_build_scenarios(partition, lead, h, t, delta, u_probe):
    """build_scenarios with alpha from a fresh outer product and all four
    scenarios (+-w_star, +-dL); build_scenarios keeps rows 0 and 1."""
    s = partition.s
    alpha = partition.base + partition.u2_of(u_probe) * np.outer(partition.R1, partition.R2)
    _, w_star, p_star = window_deviation(alpha, lead, h, t, delta, n_starts=1)
    dL = p_star[window_gather(1, 1, h, t)]
    sel = slice(s - t, s)
    Fw, cw = _lead_noise_terms(partition, w_star, sel)
    F1, F2, cd = oracle_data_noise_terms(partition, lead, dL, sel)
    sw = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    sp = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    return CostAffineForm(F_terms=sw * Fw - sp * F1 - sp * F2, c_terms=sw * cw - sp * cd)


class TestDesignStageOracles:
    """The design stage on the windows of a designed run, against its array oracles."""

    def test_recorded_windows_match_the_oracles(self, running, monkeypatch):
        seen = {"sets": 0, "scenarios": 0}
        conditioning, scenarios = input_design.conditioning_u_sets, input_design.build_scenarios

        def checked_sets(part, cfg):
            got = conditioning(part, cfg)
            assert got == oracle_conditioning_u_sets(part, cfg)
            assert np.array_equal(part.outer, np.outer(part.R1, part.R2))
            seen["sets"] += 1
            return got

        def checked_scenarios(part, lead, h, t, delta, u_probe):
            got = scenarios(part, lead, h, t, delta, u_probe)
            want = oracle_build_scenarios(part, lead, h, t, delta, u_probe)
            assert np.array_equal(got.F_terms, want.F_terms[:2])
            assert np.array_equal(got.c_terms, want.c_terms[:2])
            for u2 in (0.0, part.u2_of(u_probe)):
                assert got.value(u2) == oracle_envelope_value(got, u2) == want.value(u2)
            assert got.minimizer() == oracle_envelope_minimizer(got) == want.minimizer()
            seen["scenarios"] += 1
            return got

        monkeypatch.setattr(input_design, "conditioning_u_sets", checked_sets)
        monkeypatch.setattr(input_design, "build_scenarios", checked_scenarios)
        est = EstimatorConfig(h=4, t=9)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(40),
                               x0=np.zeros(4))
        run_closed_loop(plant, DesignConfig(), est, 300, 4, rng=np.random.default_rng(41))
        assert seen["sets"] >= 200 and seen["scenarios"] >= 150

    def test_data_noise_terms_match_the_oracle(self, running):
        rng = np.random.default_rng(42)
        h, t = 4, 9
        s = 2 * h + t
        log = make_run_data(running, h, t, rng, amp=8.0)
        for k0 in range(0, 30, 3):
            part = BorderedPartition(build_L(log.y, log.u, k0, h, t))
            lead = log.y.flatten()[k0 + h + t : k0 + h + t + s]
            dL = 0.1 * rng.normal(size=(s, s))
            got = _data_noise_terms(part, lead, dL, slice(s - t, s))
            want = oracle_data_noise_terms(part, lead, dL, slice(s - t, s))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestDesignInputStep:
    def _step_args(self, F, c, intervals=None):
        """(partition, intervals, form) for design_input_step."""
        part = BorderedPartition(np.diag([2.0, 3.0, 4.0]))
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
        est = EstimatorConfig(h=4, t=9)
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
        est = EstimatorConfig(h=4, t=9)
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
        est = EstimatorConfig(h=4, t=9)
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
        est = EstimatorConfig(h=4, t=9)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), rng, x0=np.zeros(4))
        run = run_closed_loop(plant, DesignConfig(), est, 150, 4,
                              rng=np.random.default_rng(17))
        recs = [rec for rec in run.iterations[60:] if rec.y_pred != 0.0]
        assert recs
        errs = np.array([abs(rec.y - rec.y_pred) for rec in recs])
        scale = np.abs(run.y).max()
        assert np.median(errs) < 0.1 * scale

    def test_diverging_loop_stops_at_the_first_output_past_the_limit(self, canonical):
        """The open-loop unstable benchmark diverges; the loop stops at the
        first output beyond DIVERGENCE_FACTOR y_M, and the outputs before it
        stay within the limit."""
        cfg, est, outputs = DesignConfig(), EstimatorConfig(h=4, t=9), []
        plant = SimulatedPlant(canonical, NoiseSpec(delta=0.05), np.random.default_rng(18),
                               x0=np.zeros(4))
        real_step = plant.step
        plant.step = lambda u: outputs.append(real_step(u)) or outputs[-1]
        with pytest.raises(NumericOverflowError, match="the loop diverged") as exc:
            run_closed_loop(plant, cfg, est, 400, 4, rng=np.random.default_rng(19))
        limit = DIVERGENCE_FACTOR * cfg.y_M
        init_len = est.s(1, 1) + est.h + est.t - 1  # dither steps before iteration 0
        it = len(outputs) - init_len - 1
        assert f"the output at iteration {it}, {outputs[-1]:.4g}," in str(exc.value)
        assert abs(outputs[-1]) > limit and np.abs(outputs[init_len:-1]).max() <= limit

    def test_warm_up_dither_stays_within_its_share_of_u_M(self, running):
        """The first window's inputs keep the safety bound u_M too: at u_M = 1
        the dither peaks at DITHER_SHARE = 0.8, and no input passes 1."""
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(22),
                               x0=np.zeros(4))
        run = run_closed_loop(plant, DesignConfig(u_M=1.0), EstimatorConfig(h=4, t=9), 40, 4,
                              rng=np.random.default_rng(23))
        warm_up = np.abs(run.u[: run.init_len])
        assert run.init_len == 29 and warm_up.max() <= 0.8
        assert warm_up.max() == pytest.approx(DITHER_SHARE * 1.0, rel=1e-12)
        assert np.abs(run.u).max() <= 1.0

    @pytest.mark.parametrize("with_dither_rng", [True, False])
    def test_default_warm_up_is_the_dither_of_peak_8(self, running, with_dither_rng):
        """At the default u_M = 10 the first window is multitone_dither(29, 8.0)
        bit for bit, drawn from dither_rng, or from rng when none is given."""
        assert DITHER_SHARE * DesignConfig().u_M == 8.0
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(24),
                               x0=np.zeros(4))
        extra = {"dither_rng": np.random.default_rng(25)} if with_dither_rng else {}
        run = run_closed_loop(plant, DesignConfig(), EstimatorConfig(h=4, t=9), 0, 4,
                              rng=np.random.default_rng(26), **extra)
        want = multitone_dither(29, 8.0, np.random.default_rng(25 if with_dither_rng else 26))
        assert np.array_equal(run.u, want)

    def test_rng_is_a_required_keyword(self, running):
        """Every draw of the loop comes from a generator the caller seeds."""
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(20),
                               x0=np.zeros(4))
        with pytest.raises(TypeError, match="required keyword-only argument: 'rng'"):
            run_closed_loop(plant, DesignConfig(), EstimatorConfig(h=4, t=9), 0, 4)

    def test_non_finite_output_ends_the_loop(self, running):
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(20),
                               x0=np.zeros(4))
        real_step, steps = plant.step, []
        # the 29 dither steps, then 11 iterations, then a nan output
        plant.step = lambda u: steps.append(u) or (math.nan if len(steps) > 40 else real_step(u))
        with pytest.raises(NumericOverflowError, match="iteration 11, nan, is not within"):
            run_closed_loop(plant, DesignConfig(), EstimatorConfig(h=4, t=9), 100, 4,
                            rng=np.random.default_rng(21))

    @staticmethod
    def noise_free_run(model, est, order):
        """120 designed iterations on a plant without noise, streams of trial 0, seed 3."""
        plant = SimulatedPlant(model, NoiseSpec(0.0), trial_rng(3, 0, 0), x0=np.zeros(model.m))
        return run_closed_loop(plant, DesignConfig(), est, 120, order, rng=trial_rng(3, 0, 1))

    def test_zero_plant_falls_back_on_a_singular_design_window(self, monkeypatch):
        """A plant whose output is always 0 leaves every data window singular:
        `BorderedPartition` raises LinAlgError on every step, each step falls
        back to a random safe input, and no batch is used."""
        raised = []

        class CountedPartition(BorderedPartition):
            def __init__(self, L):
                try:
                    super().__init__(L)
                except np.linalg.LinAlgError:
                    raised.append(L)
                    raise

        monkeypatch.setattr(input_design, "BorderedPartition", CountedPartition)
        zero = StateSpaceModel(A=[[0.0]], B=[[0.0]], C=[[0.0]])
        run = self.noise_free_run(zero, EstimatorConfig(h=1, t=2), 1)
        assert len(raised) == run.design_fallbacks == 120
        assert len(run.batches) == 30 and not any(b.used for b in run.batches)
        assert np.abs(run.u).max() <= DesignConfig().u_M

    def test_low_order_plant_keeps_its_batches_without_a_model(self, monkeypatch):
        """A noise-free first-order plant realized at order 2 has a Markov
        Hankel of rank 1: `ho_kalman` raises OrderDeficiencyError on every
        fold, the fold keeps the batch but no model, and no step is feasible."""
        raised = []

        def counted_ho_kalman(G, m):
            try:
                return ho_kalman(G, m)
            except OrderDeficiencyError:
                raised.append(m)
                raise

        monkeypatch.setattr(input_design, "ho_kalman", counted_ho_kalman)
        first_order = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        run = self.noise_free_run(first_order, EstimatorConfig(h=1, t=4), 2)
        assert len(raised) == len(run.batches) == 20
        assert all(b.used for b in run.batches)
        assert not any(rec.feasible for rec in run.iterations)


def fold_windows(run, h: int, t: int):
    """(batch, alpha, lead, fold iteration) of each regime batch of a run.

    Each window is recomputed from the run's stored buffers; batch i is
    folded in the first iteration whose outputs complete its window.
    """
    s = 2 * h + t
    out = []
    for b in run.batches:
        if not b.regime:
            continue
        k = s * b.index
        L = build_L(run.y, run.u, k, h, t)
        assert np.linalg.cond(L) <= LOOP_COND_LIMIT
        folded = max((b.index + 1) * s + h + t - 1 - run.init_len, 0)
        out.append((b, np.linalg.inv(L), lead_outputs(run.y, k, h, t, s)[0], folded))
    return out


@pytest.fixture(scope="module", params=["designed", "white"])
def loop_run(request, running):
    h, t, cfg = 4, 9, DesignConfig()
    plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(16),
                           x0=np.zeros(4))
    run = run_closed_loop(plant, cfg, EstimatorConfig(h=h, t=t), 200, 4,
                          mode=request.param, rng=np.random.default_rng(17))
    return run, cfg, h, t


class TestDeferredDeviation:
    """Each regime batch's J, solved in one stack once the loop has ended."""

    def test_stack_matches_the_one_window_path_on_fold_windows(self, loop_run):
        run, cfg, h, t = loop_run
        windows = fold_windows(run, h, t)
        assert len(windows) >= 3
        alphas = np.stack([alpha for _, alpha, _, _ in windows])
        leads = np.stack([lead for _, _, lead, _ in windows])
        J, w_star, p_star = window_deviation(alphas, leads, h, t, cfg.delta)
        for k, (_, alpha, lead, _) in enumerate(windows):
            J_k, w_k, p_k = window_deviation(alpha, lead, h, t, cfg.delta)
            assert J[k] == J_k
            assert np.array_equal(w_star[k], w_k) and np.array_equal(p_star[k], p_k)

    def test_run_records_the_per_window_deviations(self, loop_run):
        run, cfg, h, t = loop_run
        windows = fold_windows(run, h, t)
        for b in run.batches:
            if not b.regime:
                assert np.isnan(b.J)
        expected = np.zeros(len(run.iterations))
        for b, alpha, lead, folded in windows:
            J_b, _, _ = window_deviation(alpha, lead, h, t, cfg.delta)
            assert b.J == J_b > 0.0
            expected[folded:] = J_b
        got = np.array([rec.J for rec in run.iterations])
        assert np.array_equal(got, expected)
        # 0.0 until the first regime batch is folded
        first = windows[0][3]
        assert first > 0 and not got[:first].any()


def oracle_fold(run, cfg, h: int, t: int):
    """(used, regime, condition number, running G) of each batch of a run.

    Recomputed from the run's stored buffers, one window at a time: batch i
    is the window L at i*s, skipped when np.linalg.cond(L) is not finite or
    passes LOOP_COND_LIMIT, or when 2 delta s max|L^{-1}| > 5, and in the
    regime when that amplification is at most 0.9.
    """
    s = 2 * h + t
    G_sum, n_used, out = np.zeros(t), 0, []
    for i in range(len(run.batches)):
        L = build_L(run.y, run.u, s * i, h, t)
        cond = np.linalg.cond(L)
        ok = bool(np.isfinite(cond) and cond <= LOOP_COND_LIMIT)
        alpha = np.linalg.inv(L) if ok else None
        amp = 2.0 * cfg.delta * s * np.abs(alpha).max() if ok else math.inf
        used = ok and amp <= 5.0
        if used:
            G_sum += (lead_outputs(run.y, s * i, h, t, s)[0] @ alpha)[s - t :]
            n_used += 1
        out.append((used, used and amp <= 0.9, float(cond), G_sum / max(n_used, 1)))
    return out


class TestBatchFoldOracle:
    """Every batch record of a run, recomputed from its stored y and u."""

    @staticmethod
    def check(run, cfg, h, t):
        s = 2 * h + t
        # the last fold sees the outputs up to the last designed input
        assert len(run.batches) == (len(run.y) - 1 - h - t) // s
        for b, (used, regime, cond, G) in zip(run.batches, oracle_fold(run, cfg, h, t)):
            assert (b.used, b.regime, b.condition_number) == (used, regime, cond)
            assert np.array_equal(b.G, G)
        return [b for b in run.batches if not b.used]

    def test_both_arms_match_the_oracle(self, loop_run):
        run, cfg, h, t = loop_run
        self.check(run, cfg, h, t)
        assert any(b.regime for b in run.batches)

    def test_a_run_that_skips_matches_the_oracle(self, running):
        # a small u_M keeps the inputs small, so some windows amplify the noise
        # past the limit (one by 5.32 against 5) and others stay below it
        h, t, cfg = 4, 9, DesignConfig(u_M=1.0)
        plant = SimulatedPlant(running, NoiseSpec(delta=0.05), np.random.default_rng(16),
                               x0=np.zeros(4))
        run = run_closed_loop(plant, cfg, EstimatorConfig(h=h, t=t), 200, 4, mode="white",
                              rng=np.random.default_rng(17))
        skipped = self.check(run, cfg, h, t)
        assert len(skipped) == 3 and len(run.batches) == 12


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


    SILENT_PLANT = "import time; print({lines!r}, flush=True); time.sleep(60)"

    def test_silent_plant_times_out_and_is_reaped(self, monkeypatch):
        monkeypatch.setattr(LineProtocolPlant, "READ_TIMEOUT_S", 0.5)
        plant = LineProtocolPlant(command=[
            sys.executable, "-c", self.SILENT_PLANT.format(lines="0.0"),
        ])
        assert plant.reset() == 0.0
        start = time.monotonic()
        with pytest.raises(PlantProtocolError, match="no line within 0.5 s"):
            plant.step(1.0)
        assert time.monotonic() - start < 5.0
        assert plant.proc.poll() is not None
        plant.close()

    def test_buffered_line_is_read_without_waiting(self, monkeypatch):
        # both lines arrive in one write; the second must not wait on the
        # pipe, which stays silent after it
        monkeypatch.setattr(LineProtocolPlant, "READ_TIMEOUT_S", 0.5)
        plant = LineProtocolPlant(command=[
            sys.executable, "-c", self.SILENT_PLANT.format(lines="0.0\n1.5"),
        ])
        assert plant.reset() == 0.0
        assert plant.step(1.0) == 1.5
        with pytest.raises(PlantProtocolError, match="no line within"):
            plant.step(1.0)
        plant.close()

    def test_design_with_silent_plant_is_numeric_failure(self, monkeypatch, tmp_path, capsys):
        from subvarid.cli import EXIT_NUMERIC, main

        monkeypatch.setattr(LineProtocolPlant, "READ_TIMEOUT_S", 0.5)
        command = f"{sys.executable} -c \"{self.SILENT_PLANT.format(lines='0.0')}\""
        code = main(["design", "--plant-cmd", command, "--output", str(tmp_path / "run.csv")])
        assert code == EXIT_NUMERIC
        assert "no line within" in capsys.readouterr().err


class TestMultitone:
    def test_amplitude_normalized(self):
        rng = np.random.default_rng(18)
        u = multitone_dither(200, 3.0, rng)
        assert np.abs(u).max() == pytest.approx(3.0)
        assert len(u) == 200
