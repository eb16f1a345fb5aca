import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subvarid.deviation import (
    _ascend,
    _two_flip,
    max_deviation,
    rank_box_max,
    solve_box_qp,
    solve_j1_exact,
    solve_j1_relaxed,
    window_deviation,
    window_quadratic_factors,
)
from subvarid.errors import ConfigurationError, NumericOverflowError
from subvarid.lti_core import build_L, simulate
from subvarid.subspace_id import EstimatorConfig, invert_window
from conftest import CANONICAL_X0, oracle_hankel


def brute_force_box_max(H, delta):
    """Independent oracle: direct enumeration without the solver machinery."""
    d = H.shape[0]
    best = -np.inf
    best_w = None
    for code in range(1 << d):
        w = 2 * delta * np.array([1.0 if (code >> b) & 1 else -1.0 for b in range(d)])
        val = w @ H @ w
        if val > best:
            best, best_w = val, w
    return best, best_w


def oracle_box_max(H, delta):
    """The earlier chunked enumerator: every 2^d sign pattern through einsum,
    smallest vertex code kept among exact ties."""
    H = 0.5 * (H + H.T)
    d = H.shape[0]
    bound = 2.0 * delta
    best_val = -np.inf
    best_sigma = np.ones(d)
    chunk_bits = min(d, 16)
    base_codes = np.arange(1 << chunk_bits, dtype=np.uint32)
    low_signs = np.where(
        (base_codes[:, None] >> np.arange(chunk_bits)[None, :]) & 1, 1.0, -1.0
    )
    for hi in range(1 << (d - chunk_bits)):
        sigma = np.empty(((1 << chunk_bits), d))
        sigma[:, :chunk_bits] = low_signs
        for b in range(chunk_bits, d):
            sigma[:, b] = 1.0 if (hi >> (b - chunk_bits)) & 1 else -1.0
        vals = np.einsum("ij,jk,ik->i", sigma, H, sigma)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_sigma = sigma[i].copy()
    return bound * bound * best_val, bound * best_sigma


def canonical_window(canonical, h=4, t=5, seed=11, amp=10.0):
    """Noise-free canonical data window with strong excitation."""
    rng = np.random.default_rng(seed)
    cfg = EstimatorConfig(h=h, t=t)
    T = cfg.samples_needed(1, 1)
    U = amp * rng.choice([-1.0, 1.0], size=T)
    log = simulate(canonical, CANONICAL_X0, U)
    return log.y, log.u, cfg


class TestSolveJ1Exact:
    def test_diagonal_identity(self):
        value, w = solve_j1_exact(np.eye(3), delta=0.05)
        assert value == pytest.approx(3 * 0.1**2)
        assert np.all(np.abs(w) == pytest.approx(0.1))

    def test_all_ones_2x2(self):
        value, w = solve_j1_exact(np.ones((2, 2)), delta=0.5)
        assert value == pytest.approx(4.0)
        assert w[0] == w[1]  # optimum at aligned signs

    def test_zero_delta(self):
        value, _ = solve_j1_exact(np.eye(4), delta=0.0)
        assert value == 0.0

    def test_refuses_large_dimension(self):
        with pytest.raises(ConfigurationError):
            solve_j1_exact(np.eye(21), delta=0.1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for d in (2, 4, 7):
            A = rng.normal(size=(d, d))
            H = A @ A.T
            value, w = solve_j1_exact(H, delta=0.3)
            ref, _ = brute_force_box_max(H, 0.3)
            assert value == pytest.approx(ref)
            assert w @ H @ w == pytest.approx(value)


class TestSplitEnumerationOracle:
    DELTA = 0.05

    def check_against_oracle(self, H):
        value, w = solve_j1_exact(H, self.DELTA)
        ref, w_ref = oracle_box_max(H, self.DELTA)
        assert abs(value - ref) <= 1e-12 * max(abs(ref), 1e-300)
        assert w @ H @ w == pytest.approx(value, rel=1e-12, abs=0.0)
        assert np.array_equal(np.abs(w), np.full(len(w), 2 * self.DELTA))
        assert w[-1] == -2 * self.DELTA
        return w, w_ref

    @pytest.mark.parametrize("d", range(1, 19))
    def test_psd_matrices_of_every_rank(self, d):
        rng = np.random.default_rng(1000 + d)
        for rank in range(d + 1):
            A = rng.normal(size=(d, rank))
            self.check_against_oracle(A @ A.T)

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 9, 14, 17])
    def test_exact_ties_pick_the_oracle_vertex(self, d):
        rng = np.random.default_rng(2000 + d)
        integer = rng.integers(-1, 2, size=(d, 2)).astype(float)
        for H in (np.eye(d), np.ones((d, d)), integer @ integer.T, np.zeros((d, d))):
            w, w_ref = self.check_against_oracle(H)
            assert np.array_equal(w, w_ref)

    def test_limit_dimension_attains_its_value(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(20, 20))
        H = A @ A.T
        value, w = solve_j1_exact(H, self.DELTA)
        assert w @ H @ w == pytest.approx(value, rel=1e-12)
        # no single sign flip improves on an exact maximum
        sigma = w / (2 * self.DELTA)
        gains = -4.0 * sigma * (H @ sigma) + 4.0 * np.diag(H)
        assert gains.max() <= 1e-9 * value


class TestSolveJ1Relaxed:
    def test_identity_2x2(self):
        value, w, gap = solve_j1_relaxed(np.eye(2), delta=0.5)
        assert value == pytest.approx(2.0)
        assert gap == pytest.approx(0.0)
        assert np.all(np.abs(w) == pytest.approx(1.0))

    def test_rank_one_equal_magnitude(self):
        q = np.array([1.0, -1.0, 1.0])
        H = np.outer(q, q)
        value, w, gap = solve_j1_relaxed(H, delta=0.25)
        exact, _ = brute_force_box_max(H, 0.25)
        assert value == pytest.approx(exact)

    def test_rounding_quality_random_psd(self):
        # acceptance-style sweep at module scale
        rng = np.random.default_rng(2)
        for _ in range(60):
            d = rng.integers(2, 11)
            A = rng.normal(size=(d, d))
            H = A @ A.T
            delta = float(rng.uniform(0.01, 1.0))
            exact, _ = solve_j1_exact(H, delta)
            rounded, w, gap = solve_j1_relaxed(H, delta)
            relaxed = rounded + gap
            assert relaxed >= exact - 1e-9 * max(exact, 1.0)
            assert rounded <= exact + 1e-9 * max(exact, 1.0)
            assert rounded >= 0.95 * exact
            assert np.abs(w).max() <= 2 * delta + 1e-12

    def test_zero_matrix(self):
        value, w, gap = solve_j1_relaxed(np.zeros((5, 5)), delta=0.1)
        assert value == 0.0 and gap == 0.0

    def test_two_flip_leaves_a_single_flip_optimum(self):
        """A rank-2 H with two single-flip optima: from the lower one (8.62)
        only a pair flip leads on, and `_two_flip` takes it to 14.01."""
        C = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 2))
        H = C @ C.T

        def single_flip_optimal(sigma):
            return (4.0 * np.diag(H) - 4.0 * sigma * (H @ sigma)).max() <= 1e-12

        start = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        assert single_flip_optimal(start)
        sigma = _two_flip(H, C, start.copy())
        assert sigma @ H @ sigma > start @ H @ start + 1.0
        assert single_flip_optimal(sigma)
        exact, _ = solve_j1_exact(H, delta=0.5)  # the box {-1, 1}^6
        assert sigma @ H @ sigma <= exact + 1e-12


def oracle_j2_hessian(alpha, lead, h, t, n, p):
    """The earlier four-deep loop: the quadratic form of the inverse
    perturbation term over the distinct noise samples (w then e), summed over
    the lead rows, one selected-column residual map per row."""
    s = alpha.shape[0]
    r = t * p
    A_sel = alpha[:, s - r :]
    nw = n * (h + s - 1)
    ne = p * (h + t + s - 1)
    H2 = np.zeros((nw + ne, nw + ne))
    for a in range(lead.shape[0]):
        g = alpha.T @ lead[a]
        C = np.zeros((r, nw + ne))
        for comp in range(n):
            for q in range(h + s - 1):
                acc = np.zeros(r)
                for br in range(max(0, q - s + 1), min(h, q + 1)):
                    acc += g[comp + n * br] * A_sel[q - br]
                C[:, comp * (h + s - 1) + q] = -acc
        for comp in range(p):
            for q in range(h + t + s - 1):
                acc = np.zeros(r)
                for br in range(max(0, q - s + 1), min(h + t, q + 1)):
                    acc += g[n * h + comp + p * br] * A_sel[q - br]
                C[:, nw + comp * (h + t + s - 1) + q] = -acc
        H2 += C.T @ C
    return H2


def j2_form(alpha, lead, cfg):
    """H2 = C2 C2^T from the factor builder."""
    _, C2 = window_quadratic_factors(alpha, lead, cfg.h, cfg.t)
    return C2 @ C2.T


class TestWindowQuadraticFactors:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_matches_the_loop_oracle(self, n, p, h, t, seed):
        rng = np.random.default_rng(seed)
        s = n * h + p * (h + t)
        alpha = rng.normal(size=(s, s))
        lead = rng.normal(size=(n, s))
        C1, C2 = window_quadratic_factors(alpha, lead, h, t)
        ref = oracle_j2_hessian(alpha, lead, h, t, n, p)
        assert np.array_equal(C1, alpha[:, s - t * p :])
        assert C2.shape == (ref.shape[0], n * t * p)
        assert np.abs(C2 @ C2.T - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_quadratic_factors_match_row_loop(self, canonical):
        y, u, cfg = canonical_window(canonical, h=4, t=9, seed=41, amp=8.0)
        h, t = cfg.h, cfg.t
        alpha, lead = invert_window(y, u, cfg)
        lead, s = lead[0], len(alpha)
        A_sel, C2 = window_quadratic_factors(alpha, lead, h, t)
        g = alpha.T @ lead
        nw = h + s - 1
        ref = np.zeros((nw + h + t + s - 1, t))
        for br in range(h):
            ref[br : br + s] -= g[br] * A_sel
        for br in range(h + t):
            ref[nw + br : nw + br + s] -= g[h + br] * A_sel
        assert np.abs(C2 - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_lead_that_does_not_fit_the_window_is_rejected(self):
        with pytest.raises(ConfigurationError):
            window_quadratic_factors(np.eye(6), np.ones((1, 5)), 2, 1)


class TestRankBoxMax:
    def test_matches_dense_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            C = rng.normal(size=(8, 3))
            val, w = rank_box_max(C, bound=0.1)
            ref, _ = solve_j1_exact(C @ C.T, delta=0.05)
            assert val <= ref + 1e-12
            assert val >= 0.9 * ref
            assert np.all(np.abs(w) == pytest.approx(0.1))

    def test_zero_factor(self):
        val, w = rank_box_max(np.zeros((4, 2)), bound=0.1)
        assert val == 0.0


def oracle_ascend(C, row_norms, sigma):
    """The earlier single-flip loop: gains rebuilt from sigma every pass."""
    resid = C.T @ sigma
    for _ in range(8 * C.shape[0]):
        gains = -4.0 * sigma * (C @ resid) + 4.0 * row_norms
        i = int(np.argmax(gains))
        if gains[i] <= 1e-15:
            break
        sigma[i] = -sigma[i]
        resid += 2.0 * sigma[i] * C[i]
    return float(resid @ resid), sigma


class TestAscend:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 60), r=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           integral=st.booleans())
    def test_matches_the_earlier_loop_bit_for_bit(self, d, r, seed, integral):
        # integer-valued factors make exact gain ties, so argmax tie-breaking
        # is compared too
        rng = np.random.default_rng(seed)
        C = rng.integers(-2, 3, size=(d, r)).astype(float) if integral else rng.normal(size=(d, r))
        row_norms = np.einsum("ij,ij->i", C, C)
        sigma = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        ref_val, ref_sigma = oracle_ascend(C, row_norms, sigma.copy())
        val, got_sigma = _ascend(C, row_norms, sigma.copy())
        assert val == ref_val
        assert np.array_equal(got_sigma, ref_sigma)


class TestStackedDeviations:
    """Each entry on a stack against the same entry on each of its windows."""

    @settings(max_examples=150, deadline=None)
    @given(B=st.integers(1, 6), h=st.integers(1, 4), t=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), integral=st.booleans(),
           zero_window=st.booleans(), zero_column=st.booleans(), zero_lead=st.booleans(),
           delta=st.sampled_from([0.05, 0.05, 1.0, 0.0]))
    def test_window_deviation_on_a_stack_matches_each_window(self, B, h, t, seed, integral,
                                                             zero_window, zero_column,
                                                             zero_lead, delta):
        # integer-valued windows make exact ties in the gains and among the
        # starts; zero windows, columns and leads take the guards and give
        # a window fewer starts than its neighbours
        rng = np.random.default_rng(seed)
        s = 2 * h + t
        if integral:
            alphas = rng.integers(-2, 3, size=(B, s, s)).astype(float)
            leads = rng.integers(-3, 4, size=(B, s)).astype(float)
        else:
            alphas = rng.normal(size=(B, s, s))
            leads = rng.normal(scale=3.0, size=(B, s))
        if zero_window:
            alphas[rng.integers(B)] = 0.0
        if zero_column:
            alphas[rng.integers(B), :, s - t + rng.integers(min(t, 4))] = 0.0
        if zero_lead:
            leads[rng.integers(B)] = 0.0
        J, w_star, p_star = window_deviation(alphas, leads, h, t, delta)
        assert J.shape == (B,)
        for k in range(B):
            J_k, w_k, p_k = window_deviation(alphas[k], leads[k], h, t, delta)
            assert J[k] == J_k
            assert np.array_equal(w_star[k], w_k) and np.array_equal(p_star[k], p_k)

    @settings(max_examples=100, deadline=None)
    @given(B=st.integers(0, 5), d=st.integers(1, 30), r=st.integers(1, 8),
           n_starts=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
           integral=st.booleans())
    def test_rank_box_max_on_a_stack_matches_each_factor(self, B, d, r, n_starts, seed,
                                                         integral):
        rng = np.random.default_rng(seed)
        C = (rng.integers(-1, 2, size=(B, d, r)).astype(float) if integral
             else rng.normal(size=(B, d, r)))
        values, sigmas = rank_box_max(C, 0.1, n_starts=n_starts)
        assert values.shape == (B,) and sigmas.shape == (B, d)
        for k in range(B):
            value, sigma = rank_box_max(C[k], 0.1, n_starts=n_starts)
            assert values[k] == value and np.array_equal(sigmas[k], sigma)

    def test_zero_column_start_is_skipped_per_window(self):
        # column 0 of the second factor is zero, so it has no start 1 while
        # the first factor has one; that start's sign vector, all ones,
        # would ascend to a larger value than the factor's own start
        C = np.random.default_rng(4).integers(-2, 3, size=(2, 8, 3)).astype(float)
        C[1, :, 0] = 0.0
        values, sigmas = rank_box_max(C, 1.0, n_starts=2)
        for k in range(2):
            value, sigma = rank_box_max(C[k], 1.0, n_starts=2)
            assert values[k] == value and np.array_equal(sigmas[k], sigma)
        unskipped, _ = _ascend(C[1], np.einsum("ij,ij->i", C[1], C[1]), np.ones(8))
        assert unskipped > values[1]

    @pytest.mark.parametrize("n_starts", [1, 5])
    def test_stack_of_one_gives_the_one_window_bits(self, canonical, n_starts):
        y, u, cfg = canonical_window(canonical, h=4, t=5, seed=5)
        alpha, lead = invert_window(y, u, cfg)
        delta = 0.05
        J, w_star, p_star = window_deviation(alpha[None], lead[None, 0], cfg.h, cfg.t, delta,
                                             n_starts=n_starts)
        J_1, w_1, p_1 = window_deviation(alpha, lead[0], cfg.h, cfg.t, delta,
                                         n_starts=n_starts)
        assert J.shape == (1,) and J[0] == J_1 > 0.0
        assert np.array_equal(w_star[0], w_1) and np.array_equal(p_star[0], p_1)
        C1, C2 = window_quadratic_factors(alpha, lead, cfg.h, cfg.t)
        for C in (C1, C2):
            values, sigmas = rank_box_max(C[None], 2.0 * delta, n_starts=n_starts)
            value, sigma = rank_box_max(C, 2.0 * delta, n_starts=n_starts)
            assert values.shape == (1,) and values[0] == value > 0.0
            assert np.array_equal(sigmas[0], sigma)


class TestJ2Hessian:
    """The data-noise quadratic H2 = C2 C2^T of the factor builder."""

    def small_instance(self, canonical, seed=5):
        y, u, cfg = canonical_window(canonical, h=4, t=5, seed=seed)
        alpha, lead = invert_window(y, u, cfg)
        return alpha, lead, cfg

    def test_zero_outputs_give_zero(self, canonical):
        alpha, lead, cfg = self.small_instance(canonical)
        H2 = j2_form(alpha, np.zeros_like(lead), cfg)
        assert np.all(H2 == 0.0)

    def test_quadratic_scaling_in_lead(self, canonical):
        alpha, lead, cfg = self.small_instance(canonical)
        H2 = j2_form(alpha, lead, cfg)
        H2_scaled = j2_form(alpha, 3.0 * lead, cfg)
        assert np.allclose(H2_scaled, 9.0 * H2)

    def test_psd(self, canonical):
        alpha, lead, cfg = self.small_instance(canonical)
        H2 = j2_form(alpha, lead, cfg)
        assert np.linalg.eigvalsh(H2).min() >= -1e-12

    def test_finite_difference_oracle_small_toy(self):
        # SISO h=1, t=1 instance: s = 3, r = 1.  The objective
        # f(P) = sum_j ( lead . (-alpha dL(P) alpha) )_j^2 over the selected
        # column; its Hessian equals 2*H2 (f = P^T H2 P).
        rng = np.random.default_rng(6)
        cfg = EstimatorConfig(h=1, t=1)
        y = rng.normal(size=12)
        u = rng.normal(size=12)
        alpha, lead = invert_window(y, u, cfg)
        H2 = j2_form(alpha, lead, cfg)
        s, r = len(alpha), cfg.t
        nw, ne = cfg.h + s - 1, cfg.h + cfg.t + s - 1

        def f(P):
            w_samples, e_samples = P[:nw], P[nw:]
            dL = np.vstack(
                [
                    oracle_hankel(w_samples, 0, cfg.h, s),
                    oracle_hankel(e_samples, 0, cfg.h + cfg.t, s),
                ]
            )
            inner = lead @ (-alpha @ dL @ alpha)
            return float(np.sum(inner[:, s - r :] ** 2))

        dim = nw + ne
        eps = 1e-5
        H_fd = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                P = np.zeros(dim)
                P[i] += eps
                P[j] += eps
                fpp = f(P)
                P = np.zeros(dim)
                P[i] += eps
                P[j] -= eps
                fpm = f(P)
                P = np.zeros(dim)
                P[i] -= eps
                P[j] += eps
                fmp = f(P)
                P = np.zeros(dim)
                P[i] -= eps
                P[j] -= eps
                fmm = f(P)
                H_fd[i, j] = (fpp - fpm - fmp + fmm) / (4 * eps**2)
        assert np.allclose(H_fd, 2.0 * H2, rtol=1e-6, atol=1e-9)


class TestSolveJ2:
    """The J2 box QP goes through solve_box_qp, like J1."""

    def test_zero(self):
        value, _, gap, method = solve_box_qp(np.zeros((4, 4)), delta=0.1)
        assert value == 0.0

    def test_diagonal(self):
        H2 = np.diag([1.0, 2.0, 0.5])
        value, _, _, method = solve_box_qp(H2, delta=0.25)
        assert method == "exact"
        assert value == pytest.approx(3.5 * (2 * 0.25) ** 2)

    def test_small_matches_enumeration(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5))
        H2 = A @ A.T
        value, p_star, _, _ = solve_box_qp(H2, delta=0.2)
        ref, _ = brute_force_box_max(H2, 0.2)
        assert value == pytest.approx(ref)

    def test_large_dimension_uses_relaxed(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(25, 5))
        H2 = A @ A.T
        value, p_star, gap, method = solve_box_qp(H2, delta=0.1)
        assert method == "relaxed"
        assert np.abs(p_star).max() <= 0.2 + 1e-12
        assert value <= value + gap  # relaxed bound above rounded value


class TestMaxDeviation:
    def test_zero_delta_gives_zero(self, canonical):
        y, u, cfg = canonical_window(canonical)
        res = max_deviation(y, u, cfg, delta=0.0)
        assert res.J == 0.0

    def test_delta_scaling_exact_factor_two(self, canonical):
        # both sub-problems are quadratic in the box half-width
        y, u, cfg = canonical_window(canonical)
        res1 = max_deviation(y, u, cfg, delta=0.05)
        res2 = max_deviation(y, u, cfg, delta=0.10)
        assert res2.J == pytest.approx(2.0 * res1.J, rel=1e-9)

    def test_worst_case_vectors_feasible(self, canonical):
        y, u, cfg = canonical_window(canonical)
        res = max_deviation(y, u, cfg, delta=0.05)
        assert np.abs(res.w_star).max() <= 0.1 + 1e-12
        assert np.abs(res.p_star).max() <= 0.1 + 1e-12

    def test_composition(self, canonical):
        y, u, cfg = canonical_window(canonical)
        res = max_deviation(y, u, cfg, delta=0.05)
        assert res.J == pytest.approx(np.sqrt(res.J1 + res.J2))
        assert res.J1 >= 0 and res.J2 >= 0

    @pytest.mark.parametrize("delta", [np.inf, 1e308, -1.0, np.nan])
    def test_bound_outside_the_float_range_is_refused(self, canonical, delta):
        y, u, cfg = canonical_window(canonical)
        with pytest.raises(ConfigurationError, match="noise bound delta must be in"):
            max_deviation(y, u, cfg, delta=delta)

    def test_overflowing_J_is_a_numeric_error(self, canonical):
        y, u, cfg = canonical_window(canonical)
        with pytest.raises(NumericOverflowError, match="J overflowed"):
            max_deviation(y, u, cfg, delta=1e200)

    @pytest.mark.parametrize("amp, above_one", [(10.0, False), (0.05, True)])
    def test_amplification_flags_the_first_order_regime(self, canonical, amp, above_one):
        y, u, cfg = canonical_window(canonical, amp=amp)
        res = max_deviation(y, u, cfg, delta=0.05)
        alpha = np.linalg.inv(build_L(y, u, 0, cfg.h, cfg.t))
        expected = 2 * 0.05 * cfg.s(1, 1) * np.abs(alpha).max()
        assert res.amplification == pytest.approx(expected, rel=1e-9)
        assert (res.amplification > 1.0) == above_one
        assert res.J == pytest.approx(np.sqrt(res.J1 + res.J2))


class TestLinearizationRegime:
    def test_beta_linearization_error_small_on_conditioned_window(self, canonical):
        # first-order inverse perturbation accurate for delta = 0.05 on a
        # strongly excited window; tolerance is the default design epsilon
        y, u, cfg = canonical_window(canonical)
        L = build_L(y, u, 0, cfg.h, cfg.t)
        alpha = np.linalg.inv(L)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            dL = rng.uniform(-0.1, 0.1, size=L.shape)
            exact = np.linalg.inv(L + dL)
            lin = alpha - alpha @ dL @ alpha
            worst = max(worst, np.abs(exact - lin).max())
        assert worst < 1e-2
