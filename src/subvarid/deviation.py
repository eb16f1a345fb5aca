"""Maximum identification deviation via box-constrained quadratic programs.

Two independent sub-problems bound the worst-case gap between two estimates
produced under admissible bounded noise: one over the output noise entering
the lead matrix, one over the noise entering the data matrix through the
first-order perturbation of its inverse (beta = -alpha dL alpha).  Both are
maximizations of PSD quadratic forms over a box.  This module is the one
deviation engine: `window_quadratic_factors` builds both forms as factors,
H = C C^T, for any n outputs and p inputs, and one vertex ascent in factor
space (`rank_box_max`) serves both the closed loop's `window_deviation` and
`max_deviation`.  `max_deviation` solves exactly by split vertex enumeration
up to 20 variables and, above, by that ascent on an eigen-factor of H plus a
two-flip step.

Index conventions: r = t*p columns are selected for G(t), so the deviation
quadratics sum over the last r columns of alpha and over every row the noise
multiplies.
"""

from __future__ import annotations

import functools
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


def _symmetrize_psd(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    return 0.5 * (H + H.T)


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


def _ascend(C: np.ndarray, row_norms: np.ndarray, sigma: np.ndarray):
    """Best-single-flip ascent of ||C^T sigma||^2, in place; returns (value, sigma)."""
    resid = C.T @ sigma
    for _ in range(8 * C.shape[0]):
        # best single flip: gain_i = -4 sigma_i (C_i . resid) + 4 |C_i|^2
        gains = -4.0 * sigma * (C @ resid) + 4.0 * row_norms
        i = int(np.argmax(gains))
        if gains[i] <= 1e-15:
            break
        sigma[i] = -sigma[i]
        resid += 2.0 * sigma[i] * C[i]
    return float(resid @ resid), sigma


def rank_box_max(C: np.ndarray, bound: float, n_starts: int = 5):
    """Greedy vertex maximum of ||C^T sigma||^2 * bound^2 over sign vectors.

    C has one row per box variable and one column per residual; the quadratic
    form C C^T is maximized over the box by spectral sign rounding plus
    single-flip ascent, all in the rank-(columns) factorization.  The starts
    are the sign of a three-step power iteration from C's column sum and the
    signs of C's first n_starts - 1 nonzero columns.
    """
    nq = C.shape[0]
    if nq == 0 or bound == 0 or not np.any(C):
        return 0.0, np.zeros(nq)
    v = C.sum(axis=0)
    if not np.any(v):
        v = C[0].copy()
    for _ in range(3):
        sigma = np.where(C @ v >= 0, 1.0, -1.0)
        v = C.T @ sigma
    row_norms = np.einsum("ij,ij->i", C, C)
    starts = [np.where(C @ v >= 0, 1.0, -1.0)]
    for j in range(min(C.shape[1], max(n_starts - 1, 0))):
        col = C[:, j]
        if np.any(col):
            starts.append(np.where(col >= 0, 1.0, -1.0))
    best_val, best_sigma = -np.inf, starts[0]
    for s0 in starts:
        val, sig = _ascend(C, row_norms, s0.copy())
        if val > best_val:
            best_val, best_sigma = val, sig
    return float(bound * bound * best_val), bound * best_sigma


def _two_flip(H: np.ndarray, C: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Two-coordinate sign-flip ascent of sigma^T H sigma, H = C C^T.

    Each round takes the best pair from one d x d gain table
    g_i + g_j + 8 sigma_i sigma_j H_ij (g the single-flip gains), flips it,
    re-ascends with single flips, and keeps the result only if it raises the
    value on H, so the rounds end.  Escapes some single-flip local optima.
    """
    row_norms = np.einsum("ij,ij->i", C, C)
    diag4 = 4.0 * np.diag(H)
    value = float(sigma @ H @ sigma)
    while True:
        g = diag4 - 4.0 * sigma * (H @ sigma)
        gains = g[:, None] + g[None, :] + 8.0 * np.outer(sigma, sigma) * H
        np.fill_diagonal(gains, -np.inf)
        i, j = divmod(int(np.argmax(gains)), len(sigma))
        if gains[i, j] <= 1e-12:
            return sigma
        trial = sigma.copy()
        trial[[i, j]] *= -1.0
        _, trial = _ascend(C, row_norms, trial)
        trial_value = float(trial @ H @ trial)
        if trial_value <= value:
            return sigma
        sigma, value = trial, trial_value


def solve_j1_relaxed(H: np.ndarray, delta: float):
    """Factor-space rounding with a certified upper bound for the box maximum.

    The upper bound min(4 delta^2 sum|H_ij|, 4 delta^2 d lambda_max) dominates
    every vertex value.  The candidate runs on the factor C = V sqrt(lambda)
    of H (columns in descending lambda): `rank_box_max`'s single-flip ascent,
    then `_two_flip`.  Returns (rounded value, w, relaxed - rounded gap).
    """
    H = _symmetrize_psd(H)
    d = H.shape[0]
    bound = 2.0 * delta
    if delta == 0 or not np.any(H):
        return 0.0, np.zeros(d), 0.0
    evals, evecs = np.linalg.eigh(H)
    lam_max = max(float(evals[-1]), 0.0)
    relaxed = bound * bound * min(float(np.abs(H).sum()), d * lam_max)
    C = (evecs * np.sqrt(np.maximum(evals, 0.0)))[:, ::-1]
    _, sigma = rank_box_max(C, 1.0)
    # an all-zero factor (H with no positive eigenvalue) returns no vertex
    sigma = _two_flip(H, C, np.where(sigma < 0, -1.0, 1.0))
    rounded = bound * bound * float(sigma @ H @ sigma)
    return rounded, bound * sigma, max(relaxed - rounded, 0.0)


def solve_box_qp(H: np.ndarray, delta: float):
    """Dispatch on dimension: exact enumeration when feasible, else relaxed."""
    if H.shape[0] <= ENUMERATION_LIMIT:
        value, w = solve_j1_exact(H, delta)
        return value, w, 0.0, "exact"
    value, w, gap = solve_j1_relaxed(H, delta)
    return value, w, gap, "relaxed"


@functools.lru_cache(maxsize=None)
def _noise_band(n: int, p: int, h: int, t: int):
    """Where each distinct data-noise sample (w then e) sits in a window's L.

    With s = n h + p (h + t), output noise component comp fills L rows
    comp + n br (br < h) with samples comp (h+s-1) + br + col, and input
    noise component comp fills rows n h + comp + p br (br < h + t) with
    samples n (h+s-1) + comp (h+t+s-1) + br + col, col < s.  Returns
    (sample, L row, L column) index arrays, one entry per L entry.
    """
    s = n * h + p * (h + t)
    nw, ne = h + s - 1, h + t + s - 1
    br_w, col_w = np.divmod(np.arange(h * s), s)
    br_e, col_e = np.divmod(np.arange((h + t) * s), s)
    comp_w, comp_e = np.arange(n)[:, None], np.arange(p)[:, None]
    sample = np.concatenate([(comp_w * nw + br_w + col_w).ravel(),
                             (n * nw + comp_e * ne + br_e + col_e).ravel()])
    row = np.concatenate([(comp_w + n * br_w).ravel(), (n * h + comp_e + p * br_e).ravel()])
    col = np.concatenate([np.tile(col_w, n), np.tile(col_e, p)])
    for index in (sample, row, col):
        index.flags.writeable = False  # shared by every caller of the cache
    return sample, row, col


def window_quadratic_factors(alpha: np.ndarray, lead: np.ndarray, h: int, t: int):
    """Factors of the two deviation quadratics for one window.

    lead holds the n lead output rows (a 1-D lead is one row); the input
    count p follows from s = n h + p (h + t).  Returns (C1, C2): C1 = A_sel
    maps the s lead-noise samples of one output row, C2 the distinct data
    noise samples (w then e), into the r = t p selected residual columns,
    one block of r columns per output row: C2 = -M A_sel, where
    M[sample, col] = g[row] over the noise band and g = alpha^T lead_row.
    The quadratics are H1 = C1 C1^T and H2 = C2 C2^T.
    """
    lead = np.atleast_2d(lead)
    s = alpha.shape[0]
    n = lead.shape[0]
    p = (s - n * h) // (h + t)
    if lead.shape[1] != s or p < 1 or n * h + p * (h + t) != s:
        raise ConfigurationError(
            f"lead of shape {lead.shape} does not fit a {s}x{s} window at h={h}, t={t}"
        )
    A_sel = alpha[:, s - t * p :]
    sample, row, col = _noise_band(n, p, h, t)
    blocks = []
    for a in range(n):
        g = alpha.T @ lead[a]
        M = np.zeros((n * (h + s - 1) + p * (h + t + s - 1), s))
        M[sample, col] = g[row]
        blocks.append(-(M @ A_sel))
    return A_sel, np.concatenate(blocks, axis=1)


def window_deviation(alpha: np.ndarray, lead: np.ndarray, h: int, t: int, delta: float,
                     n_starts: int = 5):
    """Fast J = sqrt(J1 + J2) for one SISO window via greedy rounding."""
    C1, C2 = window_quadratic_factors(alpha, lead, h, t)
    J1, w_star = rank_box_max(C1, 2.0 * delta, n_starts=n_starts)
    J2, p_star = rank_box_max(C2, 2.0 * delta, n_starts=n_starts)
    return float(np.sqrt(J1 + J2)), w_star, p_star


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
    n = ya.shape[1]
    k = cfg.k if k is None else k
    al = alpha_matrix(ya, ua, cfg, k=k)
    lead = lead_outputs(ya, k, cfg.h, cfg.t, al.s)

    C1, C2 = window_quadratic_factors(al.alpha, lead, cfg.h, cfg.t)
    J1_row, w_row, gap1, method1 = solve_box_qp(C1 @ C1.T, delta)
    J1 = n * J1_row
    w_star = np.tile(w_row, (n, 1))

    J2, p_star, gap2, method2 = solve_box_qp(C2 @ C2.T, delta)

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
