"""Maximum identification deviation via box-constrained quadratic programs.

Two independent sub-problems bound the worst-case gap between two estimates
produced under admissible bounded noise: one over the output noise entering
the lead matrix, one over the noise entering the data matrix through the
first-order perturbation of its inverse (beta = -alpha dL alpha).  Both are
maximizations of PSD quadratic forms over a box.  This module is the one
deviation engine: `window_quadratic_factors` builds both forms as factors,
H = C C^T, for any n outputs and p inputs, and one vertex ascent in factor
space, `rank_box_max`, serves every caller.  Each entry takes one window or
a stack and picks its kernel from the shape, one-window or stacked (the
same bits; at one window the first is over twice as cheap, on a stack the
second takes under half the time of a per-window loop): `window_deviation`
gives the design stage's scenarios and the J of every regime batch the
loop's fold kept.  `max_deviation` solves exactly by split vertex
enumeration up to 20 variables and, above, by the ascent on an
eigen-factor of H plus a two-flip step.

Index conventions: r = t*p columns are selected for G(t), so the deviation
quadratics sum over the last r columns of alpha and over every row the noise
multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericOverflowError
from .lti_core import check_bound, window_gather
from .subspace_id import EstimatorConfig, invert_window


ENUMERATION_LIMIT = 20


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
    norms4 = 4.0 * row_norms
    neg4_sigma = -4.0 * sigma  # flipped with sigma
    for _ in range(8 * C.shape[0]):
        # best single flip: gain_i = -4 sigma_i (C_i . resid) + 4 |C_i|^2
        gains = neg4_sigma * (C @ resid)
        gains += norms4
        i = gains.argmax()
        if gains[i] <= 1e-15:
            break
        sigma[i] = -sigma[i]
        neg4_sigma[i] = -neg4_sigma[i]
        resid += 2.0 * sigma[i] * C[i]
    return float(resid @ resid), sigma


def rank_box_max(C: np.ndarray, bound: float, n_starts: int = 5):
    """Greedy vertex maximum of ||C^T sigma||^2 * bound^2 over sign vectors.

    C is one factor (d, r), one row per box variable and one column per
    residual, or a (B, d, r) stack of them, which `_rank_box_max_stack` runs
    at once, bit for bit.  C C^T is maximized over the box by single-flip
    ascent in factor space: start 0 is the sign of a three-step power
    iteration from C's column sum, and start j+1, for j < n_starts - 1, the
    sign of column j, skipped where that column is zero; the first start of
    greatest value wins.
    """
    if C.ndim == 3:
        return _rank_box_max_stack(C, bound, n_starts)
    nq = C.shape[0]
    if nq == 0 or bound == 0 or not C.any():
        return 0.0, np.zeros(nq)
    v = C.sum(axis=0)
    if not v.any():
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


def _ascend_stack(C: np.ndarray, norms4: np.ndarray, sigma: np.ndarray, active: np.ndarray):
    """`_ascend` on every window of a (B, d, r) factor stack where `active`.

    sigma (B, d) and active (B,) are updated in place.  One pass computes
    every window's gains, flips the best coordinate of each window still
    improving, and drops a window at its first pass without a gain above
    1e-15, where `_ascend` breaks; no window runs more than 8 d passes.
    Returns the (B,) values ||C^T sigma||^2 and sigma.
    """
    rows = np.arange(len(C))
    resid = (np.swapaxes(C, 1, 2) @ sigma[..., None])[..., 0]
    for _ in range(8 * C.shape[1]):
        if not active.any():
            break
        # -4 sigma is exactly `_ascend`'s flipped -4 sigma array
        gains = -4.0 * sigma * (C @ resid[..., None])[..., 0]
        gains += norms4
        i = gains.argmax(axis=1)
        active &= ~(gains[rows, i] <= 1e-15)
        b = np.flatnonzero(active)
        i = i[b]
        sigma[b, i] = -sigma[b, i]
        resid[b] += (2.0 * sigma[b, i])[:, None] * C[b, i]
    return (resid[:, None, :] @ resid[..., None])[:, 0, 0], sigma


def _rank_box_max_stack(C: np.ndarray, bound: float, n_starts: int):
    """`rank_box_max`'s steps on the whole stack: each start is masked off
    for the windows that skip it, and runs as one `_ascend_stack`."""
    B, d, r = C.shape
    live = C.any(axis=(1, 2)) if bound != 0 else np.zeros(B, dtype=bool)
    v = C.sum(axis=1)
    flat = ~v.any(axis=1)
    v[flat] = C[flat, 0]
    v = v[..., None]
    for _ in range(3):
        sigma = np.where(C @ v >= 0, 1.0, -1.0)
        v = np.swapaxes(C, 1, 2) @ sigma
    starts = [(np.where(C @ v >= 0, 1.0, -1.0)[..., 0], live)]
    for j in range(min(r, max(n_starts - 1, 0))):
        col = C[:, :, j]
        starts.append((np.where(col >= 0, 1.0, -1.0), live & col.any(axis=1)))
    norms4 = 4.0 * np.einsum("bij,bij->bi", C, C)
    best_val, best_sigma = np.full(B, -np.inf), starts[0][0].copy()
    for s0, has in starts:
        val, sig = _ascend_stack(C, norms4, s0, has.copy())
        better = has & (val > best_val)
        best_val[better] = val[better]
        best_sigma[better] = sig[better]
    values, sigmas = np.zeros(B), np.zeros((B, d))
    values[live] = bound * bound * best_val[live]
    sigmas[live] = bound * best_sigma[live]
    return values, sigmas


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


def window_quadratic_factors(alpha: np.ndarray, lead: np.ndarray, h: int, t: int):
    """Factors of the two deviation quadratics for one window, or a stack.

    alpha is one (s, s) window inverse or a (B, s, s) stack of them; lead
    holds the n lead output rows of each window, (n, s) or (B, n, s), and
    a lead with one dimension fewer than alpha is one row.  The input count
    p follows from s = n h + p (h + t).  Returns (C1, C2): C1 = A_sel maps
    the s lead-noise samples of one output row, C2 the distinct data noise
    samples (w then e), into the r = t p selected residual columns, one
    block of r columns per output row: C2 = -M A_sel, where
    M[G[row, col], col] = g[row] over the window's gather table G
    (`window_gather`) and g = alpha^T lead_row.  The quadratics are
    H1 = C1 C1^T and H2 = C2 C2^T.  A stack runs each product as one
    stacked matmul, which makes the same BLAS call per window.
    """
    lead = np.asarray(lead)
    if lead.ndim < alpha.ndim:
        lead = lead[..., None, :]
    s = alpha.shape[-1]
    n = lead.shape[-2]
    p = (s - n * h) // (h + t)
    if lead.shape[-1] != s or p < 1 or n * h + p * (h + t) != s:
        raise ConfigurationError(
            f"lead of shape {lead.shape} does not fit a {s}x{s} window at h={h}, t={t}"
        )
    A_sel = alpha[..., s - t * p :]
    alpha_T = np.swapaxes(alpha, -1, -2)
    G = window_gather(n, p, h, t)
    cols = np.arange(s)
    blocks = []
    for a in range(n):
        g = alpha_T @ lead[..., a, :, None]
        M = np.zeros(alpha.shape[:-2] + (G[-1, -1] + 1, s))
        M[..., G, cols] = g
        blocks.append(-(M @ A_sel))
    return A_sel, blocks[0] if n == 1 else np.concatenate(blocks, axis=-1)


def window_deviation(alpha: np.ndarray, lead: np.ndarray, h: int, t: int, delta: float,
                     n_starts: int = 5):
    """J = sqrt(J1 + J2) via greedy rounding, for one window or a stack.

    alpha and lead are those of `window_quadratic_factors`; a stacked
    window's values are those of the window alone, bit for bit.  J1 and
    w_star cover the lead noise of one output row, which is all of it for a
    single output; `max_deviation` scales J1 by the n rows.
    """
    C1, C2 = window_quadratic_factors(alpha, lead, h, t)
    J1, w_star = rank_box_max(C1, 2.0 * delta, n_starts=n_starts)
    J2, p_star = rank_box_max(C2, 2.0 * delta, n_starts=n_starts)
    return np.sqrt(J1 + J2), w_star, p_star


def max_deviation(y_star, u_star, cfg: EstimatorConfig, delta: float) -> DeviationResult:
    """Maximum identification deviation J for the data window at start 0.

    J = sqrt(J1 + J2): J1 maximizes the lead-noise term (summed over the n
    output channels, which decouple), J2 the inverse-perturbation term; both
    noise boxes have half-width 2*delta (difference of two admissible
    realizations).  Sub-solvers are exact up to the enumeration limit and
    relaxed-with-rounding beyond it.  A J that overflows a float raises
    NumericOverflowError.
    """
    check_bound(delta, "noise bound delta")
    alpha, lead = invert_window(y_star, u_star, cfg)
    n, s = lead.shape

    C1, C2 = window_quadratic_factors(alpha, lead, cfg.h, cfg.t)
    J1_row, w_row, gap1, method1 = solve_box_qp(C1 @ C1.T, delta)
    J1 = n * J1_row
    w_star = np.tile(w_row, (n, 1))

    J2, p_star, gap2, method2 = solve_box_qp(C2 @ C2.T, delta)

    method = "exact" if method1 == method2 == "exact" else "relaxed"
    J = float(np.sqrt(J1 + J2))
    if not np.isfinite(J):
        raise NumericOverflowError(f"the deviation J overflowed at noise bound delta {delta}")
    return DeviationResult(
        J=J,
        J1=float(J1),
        J2=float(J2),
        w_star=w_star,
        p_star=p_star,
        relaxation_gap=float(gap1 + gap2),
        method=method,
        amplification=2.0 * delta * s * float(np.abs(alpha).max()),
    )
