import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subvarid.errors import ConfigurationError, EstimationError, OrderDeficiencyError
from subvarid.input_design import LOOP_COND_LIMIT
from subvarid.lti_core import (
    DEFAULT_COND_LIMIT,
    NoiseSpec,
    StateSpaceModel,
    build_L,
    lead_outputs,
    markov_true,
    simulate,
)
from subvarid.subspace_id import (
    AMPLIFICATION_LIMIT,
    BATCH_CHUNK,
    EstimatorConfig,
    _hankel_gather,
    batch_terms,
    estimate_markov_batched,
    ho_kalman,
    identification_error,
    invert_window,
)
from conftest import CANONICAL_X0, random_minimal_model


def excite(model, cfg, rng, amp=1.0, extra=0, x0=None):
    """Noise-free run long enough for cfg, with white input of amplitude amp."""
    T = cfg.samples_needed(model.n, model.p) + extra
    U = amp * rng.uniform(-1.0, 1.0, size=(T, model.p))
    x0 = np.zeros(model.m) if x0 is None else x0
    return simulate(model, x0, U)


class TestNoiseFreeEstimator:
    def test_canonical_exact(self, canonical):
        rng = np.random.default_rng(0)
        cfg = EstimatorConfig(h=4, t=5)
        log = excite(canonical, cfg, rng, amp=1.0, x0=CANONICAL_X0)
        G_hat = estimate_markov_batched(log.y, log.u, cfg)
        G_star = markov_true(canonical, 5)
        assert np.linalg.norm(G_hat.G - G_star.G) < 1e-8

    def test_scalar_system_symbolic(self):
        # 1-D model: G(2) = [c*a*b, c*b]
        a, b, c = 0.7, 1.3, -0.5
        model = StateSpaceModel(A=[[a]], B=[[b]], C=[[c]])
        cfg = EstimatorConfig(h=1, t=2)
        rng = np.random.default_rng(1)
        log = excite(model, cfg, rng)
        G_hat = estimate_markov_batched(log.y, log.u, cfg)
        assert G_hat.G == pytest.approx(np.array([[c * a * b, c * b]]), abs=1e-10)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(2)
        model = random_minimal_model(rng, 3)
        T = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        Ti = np.linalg.inv(T)
        transformed = StateSpaceModel(A=T @ model.A @ Ti, B=T @ model.B, C=model.C @ Ti)
        assert np.allclose(
            markov_true(model, 6).G, markov_true(transformed, 6).G, atol=1e-9
        )

    def test_singular_L_raises_with_condition_number(self):
        model = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        cfg = EstimatorConfig(h=1, t=1)
        y = np.zeros(8)
        u = np.zeros(8)
        with pytest.raises(EstimationError) as err:
            estimate_markov_batched(y, u, cfg)
        assert err.value.condition_number is not None

    def test_random_minimal_models_exact(self):
        # noise-free exactness across orders and channel counts; the output
        # block of L contributes only m independent rows, so exact inversion
        # needs h*n = m (h = m for single-output models).
        rng = np.random.default_rng(3)
        cases = [(m, 1, p) for m in (2, 3, 4) for p in (1, 2)]
        cases += [(m, 2, 1) for m in (2, 4)]
        for m, n, p in cases:
            model = random_minimal_model(rng, m, n=n, p=p)
            cfg = EstimatorConfig(h=m // n, t=m + 1)
            log = excite(model, cfg, rng)
            G_hat = estimate_markov_batched(log.y, log.u, cfg)
            G_star = markov_true(model, cfg.t)
            rel = np.linalg.norm(G_hat.G - G_star.G) / np.linalg.norm(G_star.G)
            assert rel < 1e-8, (m, n, p, rel)


def oracle_batched(y, u, cfg):
    """The earlier per-batch loop: np.linalg.cond, then lead @ pinv(L), last
    t*p columns.  Returns (average or None, skipped indices, every cond)."""
    ya = np.asarray(y, dtype=float).reshape(len(y), -1)
    ua = np.asarray(u, dtype=float).reshape(len(u), -1)
    n, p = ya.shape[1], ua.shape[1]
    s, r = cfg.s(n, p), cfg.t * p
    total, skipped, conds = 0.0, [], []
    for i in range(cfg.N):
        k = s * i
        L = build_L(ya, ua, k, cfg.h, cfg.t)
        cond = float(np.linalg.cond(L))
        conds.append(cond)
        if not np.isfinite(cond) or cond > DEFAULT_COND_LIMIT:
            skipped.append(i)
            continue
        total = total + (lead_outputs(ya, k, cfg.h, cfg.t, s) @ np.linalg.pinv(L))[:, s - r :]
    used = cfg.N - len(skipped)
    G = total / used if used else None
    return G, skipped, conds


def noisy_mimo_record(rng, cfg, model, zero_batches=()):
    T = cfg.samples_needed(model.n, model.p)
    U = rng.uniform(-1, 1, size=(T, model.p))
    log = simulate(model, np.zeros(model.m), U, noise=NoiseSpec(delta=0.02), rng=rng)
    y, u = log.y.copy(), log.u.copy()
    s = cfg.s(model.n, model.p)
    for i in zero_batches:
        y[s * i : s * i + s + cfg.h + cfg.t] = 0.0
        u[s * i : s * i + s + cfg.h + cfg.t] = 0.0
    return y, u


@st.composite
def one_window_record(draw):
    """(y, u, h, t): the samples of one SISO estimator window at start 0."""
    h, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = (2 * h + t) + h + t  # s samples, then the h + t the window reaches past them
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    y = draw(arrays(np.float64, width, elements=entries))
    u = draw(arrays(np.float64, width - 1, elements=entries))
    return y, u, h, t


class TestInvertWindows:
    """`batch_terms` inverts and skips windows as np.linalg.cond and
    np.linalg.inv do on each window alone."""

    @settings(max_examples=200, deadline=None)
    @given(one_window_record(), st.sampled_from([1e8, DEFAULT_COND_LIMIT]))
    def test_one_window_stack_is_bit_identical_to_per_window_calls(self, record, cond_limit):
        y, u, h, t = record
        cond, reason, _, alpha, lead, _ = batch_terms(y, u, np.array([0]), h, t, cond_limit)
        L = build_L(y, u, 0, h, t)
        ref_cond = np.linalg.cond(L)
        assert np.array_equal(cond, [ref_cond], equal_nan=True)
        assert (reason[0] != "cond") == bool(np.isfinite(ref_cond) and ref_cond <= cond_limit)
        if reason[0] == "used":
            assert np.array_equal(alpha[0], np.linalg.inv(L))
            assert np.array_equal(lead[0], lead_outputs(y, 0, h, t, len(L)))
        else:
            assert alpha.shape == (0,) + L.shape
        if reason[0] == "amplification":
            # amp_scale 0 skips only an inverse that overflowed: 0 * inf is nan
            assert not np.isfinite(np.linalg.inv(L)).all()

    def test_matches_pinv_on_a_stack(self):
        rng = np.random.default_rng(50)
        h, t = 2, 3
        width = (2 * h + t) + h + t  # the samples one SISO window spans
        starts = width * np.arange(12)
        y, u = rng.normal(size=12 * width), rng.normal(size=12 * width)
        y[4 * width : 5 * width] = u[4 * width : 5 * width] = 0.0
        _, reason, _, alpha, _, _ = batch_terms(y, u, starts, h, t, DEFAULT_COND_LIMIT)
        assert reason.tolist() == ["cond" if i == 4 else "used" for i in range(12)]
        for inv, k in zip(alpha, starts[reason == "used"]):
            ref = np.linalg.pinv(build_L(y, u, int(k), h, t))
            assert np.abs(inv - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_all_zero_window_has_infinite_cond_and_is_skipped(self):
        cond, reason, _, alpha, _, _ = batch_terms(np.zeros(5), np.zeros(4), np.array([0]), 1, 1,
                                                   DEFAULT_COND_LIMIT)
        assert cond[0] == np.inf and reason[0] == "cond" and len(alpha) == 0

    def test_limit_between_loop_and_library(self):
        # L = [[0, 0, 1e-10], [0, 1, 0], [1, 0, 0]] has cond 1e10: beyond the
        # closed loop's 1e8, within the library's 1e12
        y, u = np.array([0.0, 0.0, 1e-10, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
        assert LOOP_COND_LIMIT < 1e10 < DEFAULT_COND_LIMIT
        assert batch_terms(y, u, np.array([0]), 1, 1, LOOP_COND_LIMIT)[1][0] == "cond"
        cond, reason, _, alpha, _, _ = batch_terms(y, u, np.array([0]), 1, 1, DEFAULT_COND_LIMIT)
        assert reason[0] == "used" and cond[0] == pytest.approx(1e10)
        assert np.allclose(alpha[0] @ build_L(y, u, 0, 1, 1), np.eye(3))


class TestInvertWindow:
    """The raising one-window form of the estimator's window."""

    def test_exchange_window_is_its_own_inverse(self):
        # h=1, t=1, SISO: L = [y(0..2); u(0..2); u(1..3)] is the exchange matrix
        y, u = np.array([0.0, 0.0, 1.0, 5.0, 6.0]), np.array([0.0, 1.0, 0.0, 0.0])
        alpha, lead = invert_window(y, u, EstimatorConfig(h=1, t=1))
        assert np.array_equal(alpha, np.eye(3)[::-1])
        assert np.array_equal(lead, [[1.0, 5.0, 6.0]])

    def test_antidiagonal_window(self):
        y, u = np.array([0.0, 0.0, 2.0, 0.0, 0.0]), np.array([0.0, 4.0, 0.0, 0.0])
        cond, reason, _, alpha, _, _ = batch_terms(y, u, np.array([0]), 1, 1,
                                                   DEFAULT_COND_LIMIT)
        assert reason[0] == "used" and cond[0] == pytest.approx(2.0)
        assert np.allclose(alpha[0], [[0.0, 0.0, 0.25], [0.0, 0.25, 0.0], [0.5, 0.0, 0.0]])

    def test_residual_on_data_window(self, canonical):
        cfg = EstimatorConfig(h=4, t=5)
        log = excite(canonical, cfg, np.random.default_rng(11), amp=10.0, x0=CANONICAL_X0)
        alpha, lead = invert_window(log.y, log.u, cfg)
        L = build_L(log.y, log.u, 0, cfg.h, cfg.t)
        assert np.abs(alpha @ L - np.eye(len(alpha))).max() < 1e-10
        assert np.array_equal(lead, lead_outputs(log.y, 0, cfg.h, cfg.t, len(alpha)))

    def test_singular_raises_with_cond(self):
        with pytest.raises(EstimationError, match="at k=0 is numerically singular") as err:
            invert_window(np.zeros(5), np.zeros(4), EstimatorConfig(h=1, t=1))
        assert err.value.condition_number == np.inf


class TestWindowInverses:
    """The condition numbers, inverses and lead outputs of a stack of windows,
    each as on its window alone."""

    @pytest.mark.parametrize("n, p", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_per_start_calls(self, n, p):
        rng = np.random.default_rng(60 + 2 * n + p)
        h, t = 2, 3
        s = n * h + p * (h + t)
        width = s + h + t  # samples one window and its lead outputs span
        starts = np.array([0, width + 1, 2 * width, 3 * width + 2])
        y = rng.normal(size=(starts[-1] + width, n))
        u = rng.normal(size=(starts[-1] + width, p))
        # a zeroed window: L is all zero there, so the skip rule drops it
        y[2 * width : 3 * width] = u[2 * width : 3 * width] = 0.0
        cond, reason, _, alpha, lead, _ = batch_terms(y, u, starts, h, t, DEFAULT_COND_LIMIT)
        assert reason.tolist() == ["used", "used", "cond", "used"]
        assert alpha.shape == (3, s, s) and lead.shape == (3, n, s)
        for i, k in enumerate(starts):
            assert np.array_equal(cond[i], np.linalg.cond(build_L(y, u, int(k), h, t)))
        for a, l, k in zip(alpha, lead, starts[reason == "used"]):
            assert np.array_equal(a, np.linalg.inv(build_L(y, u, int(k), h, t)))
            assert np.array_equal(l, lead_outputs(y, int(k), h, t, s))


class TestBatchTerms:
    """The one batch skip rule and per-batch term, shared by the estimator and the loop."""

    def record(self, n, p, h=2, t=3, seed=70):
        rng = np.random.default_rng(seed)
        s = n * h + p * (h + t)
        starts = s * np.arange(6)
        y = rng.normal(size=(starts[-1] + s + h + t, n))
        u = rng.normal(size=(starts[-1] + s + h + t, p))
        y[2 * s : 3 * s] = u[2 * s : 3 * s] = 0.0  # batch 2 is singular
        return y, u, starts, h, t, s

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 2)])
    def test_zero_scale_keeps_every_window_the_cond_rule_keeps(self, n, p):
        y, u, starts, h, t, s = self.record(n, p)
        cond, reason, amp, alpha, lead, term = batch_terms(y, u, starts, h, t,
                                                           DEFAULT_COND_LIMIT)
        windows = [build_L(y, u, int(k), h, t) for k in starts]
        ref_cond = [np.linalg.cond(L) for L in windows]
        assert np.array_equal(cond, ref_cond)
        assert reason.tolist() == ["used" if c <= DEFAULT_COND_LIMIT else "cond"
                                   for c in ref_cond]
        assert reason[2] == "cond" and np.all(amp == 0.0)
        kept = np.flatnonzero(reason == "used")
        assert np.array_equal(alpha, [np.linalg.inv(windows[i]) for i in kept])
        assert np.array_equal(lead, [lead_outputs(y, int(starts[i]), h, t, s) for i in kept])
        assert np.array_equal(term, lead @ alpha[:, :, s - t * p :])

    def test_amplification_skips_and_reports_each_used_window(self):
        y, u, starts, h, t, s = self.record(1, 1)
        windows = [build_L(y, u, int(k), h, t) for k in starts]
        ok = np.array([np.linalg.cond(L) <= DEFAULT_COND_LIMIT for L in windows])
        peaks = np.array([np.abs(np.linalg.inv(L)).max() for L in np.array(windows)[ok]])
        # a scale that puts the limit between the two smallest peaks
        scale = 2 * AMPLIFICATION_LIMIT / (np.sort(peaks)[0] + np.sort(peaks)[1])
        _, reason, amp_b, alpha, lead, term = batch_terms(y, u, starts, h, t,
                                                          DEFAULT_COND_LIMIT, scale)
        amp = scale * peaks
        expect = np.full(len(starts), "cond", dtype=object)
        expect[ok] = np.where(amp <= AMPLIFICATION_LIMIT, "used", "amplification")
        assert reason.tolist() == expect.tolist()
        assert (reason == "used").sum() == 1
        assert np.array_equal(amp_b, amp[amp <= AMPLIFICATION_LIMIT])
        assert len(alpha) == len(lead) == len(term) == 1

    def test_siso_term_is_bit_identical_to_the_vector_form(self):
        # the closed loop's earlier per-window term, (lead @ alpha)[s - t:]
        y, u, starts, h, t, s = self.record(1, 1, h=4, t=9, seed=71)
        _, _, _, alphas, leads, terms = batch_terms(y, u, starts, h, t, DEFAULT_COND_LIMIT)
        assert len(terms) == len(starts) - 1
        for alpha, lead, term in zip(alphas, leads, terms):
            assert np.array_equal(term[0], (lead[0] @ alpha)[s - t :])


class TestBatchedEstimatorOracle:
    def compare(self, y, u, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a skipped batch is a reason, not a warning
            G = estimate_markov_batched(y, u, cfg)
        G_ref, skipped, conds = oracle_batched(y, u, cfg)
        assert np.abs(G.G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
        assert np.flatnonzero(G.reason != "used").tolist() == skipped
        assert set(G.reason[skipped].tolist()) <= {"cond"}
        assert np.allclose(G.cond, conds, rtol=1e-10, atol=0.0)
        return G

    def test_multi_output_multi_input(self):
        rng = np.random.default_rng(30)
        model = random_minimal_model(rng, 4, n=2, p=2)
        cfg = EstimatorConfig(h=2, t=3, N=12)
        self.compare(*noisy_mimo_record(rng, cfg, model), cfg)

    def test_more_batches_than_one_chunk_with_skips(self):
        rng = np.random.default_rng(31)
        model = random_minimal_model(rng, 2, n=2, p=2)
        cfg = EstimatorConfig(h=1, t=2, N=BATCH_CHUNK + 7)
        zero = (3, BATCH_CHUNK - 1, BATCH_CHUNK + 2)
        G = self.compare(*noisy_mimo_record(rng, cfg, model, zero_batches=zero), cfg)
        # a zeroed window also flattens part of the next one
        skipped = np.flatnonzero(G.reason == "cond")
        assert set(zero) <= set(skipped.tolist()) and len(skipped) < 10
        assert np.all(G.cond[list(zero)] == np.inf)

    def test_all_zero_record_reports_infinite_condition(self):
        cfg = EstimatorConfig(h=1, t=2, N=3)
        T = cfg.samples_needed(2, 2)
        with pytest.raises(EstimationError, match="all 3 batches") as err:
            estimate_markov_batched(np.zeros((T, 2)), np.zeros((T, 2)), cfg)
        assert err.value.condition_number == np.inf


class TestBatchedEstimator:
    def test_noise_free_matches_single_batch(self):
        rng = np.random.default_rng(4)
        model = random_minimal_model(rng, 3)
        cfg = EstimatorConfig(h=3, t=4, N=5)
        log = excite(model, cfg, rng)
        G_b = estimate_markov_batched(log.y, log.u, cfg)
        G_1 = estimate_markov_batched(log.y, log.u, EstimatorConfig(h=3, t=4))
        assert np.allclose(G_b.G, G_1.G, atol=1e-9)

    def test_error_decreases_with_batch_count(self):
        # median error over repeated noisy runs strictly decreasing in N
        rng = np.random.default_rng(6)
        model = random_minimal_model(rng, 2)
        G_star = markov_true(model, 3)
        medians = []
        for N in (2, 8, 32):
            cfg = EstimatorConfig(h=2, t=3, N=N)
            errs = []
            for _ in range(40):
                T = cfg.samples_needed(1, 1)
                U = rng.uniform(-1, 1, size=T)
                log = simulate(model, np.zeros(2), U, noise=NoiseSpec(delta=0.05), rng=rng)
                G_hat = estimate_markov_batched(log.y, log.u, cfg)
                errs.append(identification_error(G_hat, G_star))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_degenerate_batch_skipped_with_reason(self):
        rng = np.random.default_rng(7)
        model = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        cfg = EstimatorConfig(h=1, t=1, N=3)
        T = cfg.samples_needed(1, 1)
        U = rng.uniform(-1, 1, size=T)
        log = simulate(model, [0.0], U)
        # flatten one batch window to make it degenerate
        y = log.y.copy()
        u = log.u.copy()
        s = cfg.s(1, 1)
        u[s : 2 * s + 2] = 0.0
        y[s : 2 * s + 2] = 0.0
        G = estimate_markov_batched(y, u, cfg)
        # the zeroed samples also reach into batch 2's window
        assert G.reason.tolist() == ["used", "cond", "cond"]
        assert G.cond[1] == np.inf and np.isfinite(G.cond[0])

    def test_all_batches_degenerate_raises(self):
        cfg = EstimatorConfig(h=1, t=1, N=2)
        T = cfg.samples_needed(1, 1)
        with pytest.raises(EstimationError):
            estimate_markov_batched(np.zeros(T), np.zeros(T), cfg)

    def test_insufficient_data_raises(self):
        cfg = EstimatorConfig(h=2, t=2, N=4)
        with pytest.raises(ConfigurationError):
            estimate_markov_batched(np.zeros(10), np.zeros(10), cfg)


class TestHoKalman:
    def test_canonical_round_trip(self, canonical):
        G_star = markov_true(canonical, 9)
        real = ho_kalman(G_star, m=4)
        G_back = real.markov(9)
        assert np.abs(G_back.G - G_star.G).max() < 1e-6

    def test_zero_markov_matrix_rank_error(self):
        from subvarid.lti_core import MarkovMatrix

        with pytest.raises(OrderDeficiencyError) as err:
            ho_kalman(MarkovMatrix(G=np.zeros((1, 8)), t=8), m=2)
        assert err.value.singular_values is not None

    def test_scalar_recovers_pole_exactly(self):
        a, b, c = 0.6, 2.0, 0.5
        model = StateSpaceModel(A=[[a]], B=[[b]], C=[[c]])
        real = ho_kalman(markov_true(model, 3), m=1)
        assert real.A_hat[0, 0] == pytest.approx(a, abs=1e-12)
        assert (real.C_hat @ real.B_hat)[0, 0] == pytest.approx(c * b, abs=1e-12)

    def test_needs_enough_blocks(self, canonical):
        with pytest.raises(ConfigurationError):
            ho_kalman(markov_true(canonical, 5), m=4)

    def test_random_round_trips(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 4):
            model = random_minimal_model(rng, m)
            t = 2 * m + 1
            G_star = markov_true(model, t)
            real = ho_kalman(G_star, m=m)
            sv = real.singular_values
            gap = sv[m - 1] / sv[m] if len(sv) > m and sv[m] > 0 else np.inf
            if gap > 1e3:
                assert np.abs(real.markov(t).G - G_star.G).max() < 1e-6

    def test_mimo_round_trip(self):
        rng = np.random.default_rng(9)
        model = random_minimal_model(rng, 3, n=2, p=2)
        G_star = markov_true(model, 7)
        real = ho_kalman(G_star, m=3)
        assert np.abs(real.markov(7).G - G_star.G).max() < 1e-6


    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_gathered_hankel_equals_block_assembly(self, n, p, m):
        """The index table copies the same entries as the np.block assembly."""
        from subvarid.lti_core import MarkovMatrix

        rng = np.random.default_rng(10 * n + p + 100 * m)
        for t in (2 * m, 2 * m + 1):
            G = MarkovMatrix(G=rng.normal(size=(n, t * p)), t=t)
            g = [G.G[:, (t - 1 - i) * p : (t - i) * p] for i in range(t)]
            H_ref = np.block([[g[a + b] for b in range(m)] for a in range(m)])
            H_shift_ref = np.block([[g[a + b + 1] for b in range(m)] for a in range(m)])
            rows, cols = _hankel_gather(n, p, m, t)
            H, H_shift = G.G[rows, cols]
            assert np.array_equal(H, H_ref) and np.array_equal(H_shift, H_shift_ref)
            assert not rows.flags.writeable and not cols.flags.writeable


class TestIdentificationError:
    def test_identical_is_zero(self, canonical):
        G = markov_true(canonical, 4)
        assert identification_error(G, G) == 0.0

    def test_all_ones_difference(self):
        from subvarid.lti_core import MarkovMatrix

        G1 = MarkovMatrix(G=np.ones((1, 5)), t=5)
        G0 = MarkovMatrix(G=np.zeros((1, 5)), t=5)
        assert identification_error(G1, G0) == pytest.approx(5.0)

    def test_dimension_mismatch(self, canonical):
        with pytest.raises(ConfigurationError):
            identification_error(markov_true(canonical, 3), markov_true(canonical, 4))
