"""Maximum identification deviation via box-constrained quadratic programs.

Two independent sub-problems bound the worst-case gap between two estimates
produced under admissible bounded noise: one over the output noise entering
the lead matrix, one over the noise entering the data matrix through the
first-order perturbation of its inverse (beta = -alpha dL alpha).  Both are
maximizations of PSD quadratic forms over a box, solved exactly by split
vertex enumeration in low dimension and by spectral rounding with a greedy
sign-flip refinement otherwise.

Index conventions: r = t*p columns are selected for G(t), so the deviation
quadratics sum over the last r columns of alpha and over every row the noise
multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, EstimationError
from .lti_core import DEFAULT_COND_LIMIT, _as_2d, build_L, lead_outputs
from .subspace_id import EstimatorConfig, invert_windows


ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class AlphaMatrix:
    """Inverse data matrix with its selection geometry and conditioning."""

    alpha: np.ndarray
    r: int
    s: int
    condition_number: float

    def __post_init__(self):
        if self.alpha.shape != (self.s, self.s):
            raise ConfigurationError(
                f"alpha must be {self.s}x{self.s}, got {self.alpha.shape}"
            )
        if not 0 < self.r < self.s:
            raise ConfigurationError(f"need 0 < r < s, got r={self.r}, s={self.s}")


@dataclass(frozen=True)
class DeviationResult:
    """Worst-case deviation and the noise vertices achieving the sub-maxima.

    J is a first-order figure: it bounds the deviation only while the
    inverse perturbation converges.  `amplification` = 2 delta s max|alpha|
    is the gauge the closed loop uses for that regime; J means little once
    it reaches 1.
    """

    J: float
    J1: float
    J2: float
    w_star: np.ndarray
    p_star: np.ndarray
    relaxation_gap: float
    method: str
    amplification: float


def invert_data_matrix(L: np.ndarray, r: int,
                       cond_limit: float = DEFAULT_COND_LIMIT) -> AlphaMatrix:
    """Inverse of a square data matrix, under the skip rule of `invert_windows`."""
    L = np.asarray(L, dtype=float)
    cond, ok, alpha = invert_windows(L[None], cond_limit)
    cond = float(cond[0])
    if not ok[0]:
        raise EstimationError(
            f"data matrix numerically singular (cond={cond:.3e})", condition_number=cond
        )
    return AlphaMatrix(alpha=alpha[0], r=r, s=L.shape[0], condition_number=cond)


def alpha_matrix(y_star, u_star, cfg: EstimatorConfig, k: Optional[int] = None) -> AlphaMatrix:
    """Inverse of L[y*, u*] at window start k (default cfg.k)."""
    ya, ua = _as_2d(y_star), _as_2d(u_star)
    n, p = ya.shape[1], ua.shape[1]
    k = cfg.k if k is None else k
    L = build_L(ya, ua, k, cfg.h, cfg.t)
    al = invert_data_matrix(L, cfg.r(p), cfg.cond_limit)
    if al.s != cfg.s(n, p):
        raise ConfigurationError("window size mismatch")
    return al


def lead_noise_hessian(alpha: AlphaMatrix) -> np.ndarray:
    """Quadratic form over the s lead-window noise samples (per output row).

    The lead noise multiplies every row of alpha; only the last r columns
    reach the estimate, so H = A_sel A_sel^T with A_sel = alpha[:, s-r:].
    """
    A_sel = alpha.alpha[:, alpha.s - alpha.r :]
    return A_sel @ A_sel.T


def _symmetrize_psd(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    return 0.5 * (H + H.T)


def _greedy_vertex(H: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Single-coordinate sign-flip ascent to a local vertex optimum of s^T H s."""
    sigma = sigma.copy()
    Hs = H @ sigma
    improved = True
    while improved:
        improved = False
        for i in range(len(sigma)):
            gain = -4.0 * sigma[i] * Hs[i] + 4.0 * H[i, i]
            if gain > 1e-15:
                sigma[i] = -sigma[i]
                Hs += 2.0 * sigma[i] * H[:, i]
                improved = True
    return sigma


def _pairwise_refine(H: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Two-coordinate sign-flip ascent (escapes some 1-flip local optima)."""
    d = len(sigma)
    sigma = sigma.copy()
    improved = True
    while improved:
        improved = False
        Hs = H @ sigma
        diag = np.diag(H)
        for i in range(d):
            # flipping i and j changes the value by
            # -4 s_i Hs_i - 4 s_j Hs_j + 4 H_ii + 4 H_jj + 8 s_i s_j H_ij
            base_i = -4.0 * sigma[i] * Hs[i] + 4.0 * diag[i]
            gains = (
                base_i
                - 4.0 * sigma * Hs
                + 4.0 * diag
                + 8.0 * sigma[i] * sigma * H[i]
            )
            gains[i] = -np.inf
            j = int(np.argmax(gains))
            if gains[j] > 1e-12:
                sigma[i] = -sigma[i]
                sigma[j] = -sigma[j]
                sigma = _greedy_vertex(H, sigma)
                Hs = H @ sigma
                improved = True
    return sigma


def _sign_table(bits: int) -> np.ndarray:
    """All 2^bits sign vectors; row `code` has +1 where bit b of code is set."""
    codes = np.arange(1 << bits)
    return np.where((codes[:, None] >> np.arange(bits)) & 1, 1.0, -1.0)


def solve_j1_exact(H: np.ndarray, delta: float):
    """Exact box maximum of w^T H w over w in {-2*delta, +2*delta}^d.

    Covers all 2^d sign patterns by split enumeration; refuses dimensions
    above 20.  sigma and -sigma give the same value, so the last coordinate
    is fixed at -1.  With sigma = (lo, hi) split after a = d//2 coordinates,
    the value of every pair is the table
    V[j, i] = q_hi[j] + q_lo[i] + 2 (S_hi H[a:, :a] S_lo^T)[j, i],
    one matrix product.  Rows index hi, so the row-major argmax is the
    smallest vertex code among exact ties.  The returned value is recomputed
    at the chosen vertex, which therefore attains it.
    """
    H = _symmetrize_psd(H)
    d = H.shape[0]
    if d > ENUMERATION_LIMIT:
        raise ConfigurationError(
            f"enumeration over 2^{d} vertices refused (limit d <= {ENUMERATION_LIMIT})"
        )
    bound = 2.0 * delta
    if delta == 0 or d == 0:
        return 0.0, np.zeros(d)
    a = d // 2
    S_lo = _sign_table(a)
    S_hi = np.hstack([_sign_table(d - a - 1), -np.ones((1 << (d - a - 1), 1))])
    q_lo = np.einsum("ij,jk,ik->i", S_lo, H[:a, :a], S_lo)
    q_hi = np.einsum("ij,jk,ik->i", S_hi, H[a:, a:], S_hi)
    V = (2.0 * S_hi @ H[a:, :a]) @ S_lo.T
    V += q_hi[:, None]
    V += q_lo[None, :]
    j, i = divmod(int(np.argmax(V)), V.shape[1])
    sigma = np.concatenate([S_lo[i], S_hi[j]])
    return bound * bound * float(sigma @ H @ sigma), bound * sigma


def solve_j1_relaxed(H: np.ndarray, delta: float):
    """Spectral rounding with a certified upper bound for the box maximum.

    The upper bound min(4 delta^2 sum|H_ij|, 4 delta^2 d lambda_max) dominates
    every vertex value; the candidate comes from the sign pattern of the
    dominant eigenvector (ties broken toward +) refined by greedy single
    flips.  Returns (rounded value, w, relaxed - rounded gap).
    """
    H = _symmetrize_psd(H)
    d = H.shape[0]
    bound = 2.0 * delta
    if delta == 0 or not np.any(H):
        return 0.0, np.zeros(d), 0.0
    evals, evecs = np.linalg.eigh(H)
    lam_max = max(float(evals[-1]), 0.0)
    relaxed = bound * bound * min(float(np.abs(H).sum()), d * lam_max)
    starts = [np.where(evecs[:, -1] >= 0, 1.0, -1.0), np.ones(d)]
    for k in (2, 3):
        if d >= k:
            starts.append(np.where(evecs[:, -k] >= 0, 1.0, -1.0))
    best_sigma, best_val = None, -np.inf
    for s0 in starts:
        sigma = _greedy_vertex(H, s0)
        val = float(sigma @ H @ sigma)
        if val > best_val:
            best_sigma, best_val = sigma, val
    best_sigma = _pairwise_refine(H, best_sigma)
    best_val = float(best_sigma @ H @ best_sigma)
    rounded = bound * bound * best_val
    return rounded, bound * best_sigma, max(relaxed - rounded, 0.0)


def solve_box_qp(H: np.ndarray, delta: float):
    """Dispatch on dimension: exact enumeration when feasible, else relaxed."""
    if H.shape[0] <= ENUMERATION_LIMIT:
        value, w = solve_j1_exact(H, delta)
        return value, w, 0.0, "exact"
    value, w, gap = solve_j1_relaxed(H, delta)
    return value, w, gap, "relaxed"


def noise_sample_counts(cfg: EstimatorConfig, n: int, p: int):
    """Distinct (w, e) scalar samples generating the data-matrix perturbation."""
    s = cfg.s(n, p)
    nw = n * (cfg.h + s - 1)
    ne = p * (cfg.h + cfg.t + s - 1)
    return nw, ne


def j2_hessian(alpha: AlphaMatrix, y_star_lead: np.ndarray, cfg: EstimatorConfig,
               n: Optional[int] = None, p: Optional[int] = None) -> np.ndarray:
    """Quadratic form of the inverse-perturbation term over the noise samples.

    The objective sum_j ( y_lead . (-alpha dL alpha) )_j^2 over the selected
    columns is quadratic in the distinct noise samples that generate the
    Hankel perturbation dL = L[w, e]; this returns its PSD form matrix.  The
    parameterization uses the distinct samples rather than the s^2 matrix
    entries so every feasible point is a realizable noise pattern.
    """
    lead = np.atleast_2d(np.asarray(y_star_lead, dtype=float))
    s, r = alpha.s, alpha.r
    if lead.shape[1] != s:
        raise ConfigurationError(f"lead must have s={s} columns, got {lead.shape}")
    if n is None:
        n = lead.shape[0]
    if p is None:
        p = r // cfg.t
    al = alpha.alpha
    A_sel = al[:, s - r :]
    nw, ne = noise_sample_counts(cfg, n, p)
    H2 = np.zeros((nw + ne, nw + ne))
    for a in range(lead.shape[0]):
        g = al.T @ lead[a]
        C = np.zeros((r, nw + ne))
        for comp in range(n):
            for q in range(cfg.h + s - 1):
                acc = np.zeros(r)
                for br in range(max(0, q - s + 1), min(cfg.h, q + 1)):
                    acc += g[comp + n * br] * A_sel[q - br]
                C[:, comp * (cfg.h + s - 1) + q] = -acc
        for comp in range(p):
            for q in range(cfg.h + cfg.t + s - 1):
                acc = np.zeros(r)
                for br in range(max(0, q - s + 1), min(cfg.h + cfg.t, q + 1)):
                    acc += g[n * cfg.h + comp + p * br] * A_sel[q - br]
                C[:, nw + comp * (cfg.h + cfg.t + s - 1) + q] = -acc
        H2 += C.T @ C
    return H2


def max_deviation(y_star, u_star, cfg: EstimatorConfig, delta: float,
                  k: Optional[int] = None) -> DeviationResult:
    """Maximum identification deviation J for one data window.

    J = sqrt(J1 + J2): J1 maximizes the lead-noise term (summed over the n
    output channels, which decouple), J2 the inverse-perturbation term; both
    noise boxes have half-width 2*delta (difference of two admissible
    realizations).  Sub-solvers are exact up to the enumeration limit and
    relaxed-with-rounding beyond it.
    """
    ya, ua = _as_2d(y_star), _as_2d(u_star)
    n, p = ya.shape[1], ua.shape[1]
    k = cfg.k if k is None else k
    al = alpha_matrix(ya, ua, cfg, k=k)
    lead = lead_outputs(ya, k, cfg.h, cfg.t, al.s)

    H1 = lead_noise_hessian(al)
    J1_row, w_row, gap1, method1 = solve_box_qp(H1, delta)
    J1 = n * J1_row
    w_star = np.tile(w_row, (n, 1))

    H2 = j2_hessian(al, lead, cfg, n=n, p=p)
    J2, p_star, gap2, method2 = solve_box_qp(H2, delta)

    method = "exact" if method1 == method2 == "exact" else "relaxed"
    return DeviationResult(
        J=float(np.sqrt(J1 + J2)),
        J1=float(J1),
        J2=float(J2),
        w_star=w_star,
        p_star=p_star,
        relaxation_gap=float(gap1 + gap2),
        method=method,
        amplification=2.0 * delta * al.s * float(np.abs(al.alpha).max()),
    )


def sample_variance(G_list) -> float:
    """mu = sum of squared Frobenius deviations from the mean estimate."""
    mats = [np.asarray(getattr(G, "G", G), dtype=float) for G in G_list]
    if len(mats) < 2:
        raise ConfigurationError("need at least 2 estimates for a sample variance")
    mean = sum(mats) / len(mats)
    return float(sum(np.sum((M - mean) ** 2) for M in mats))
