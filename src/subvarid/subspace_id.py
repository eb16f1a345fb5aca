"""Closed-form Markov-parameter estimation and Ho-Kalman realization.

The estimator reads G(t) off the last t*p columns of Y(k+h+t;s) L^{-1}[y,u]
and averages the per-batch estimates, batch i starting at k = s*i; at N = 1
it is the single-window closed form.  Every estimator window is gathered,
inverted and skipped in one function, `batch_terms`, under one skip rule;
`invert_window` is its raising one-window form.  The estimator and the
closed loop's batch average both fold `batch_terms`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EstimationError, OrderDeficiencyError
from .lti_core import (
    DEFAULT_COND_LIMIT,
    MarkovMatrix,
    StateSpaceModel,
    _as_2d,
    build_L,
    lead_outputs,
    markov_true,
    window_size,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Window geometry for the subspace estimator.

    h block rows of outputs (h*n = model order for exactness; on noise-free
    data a larger h leaves L singular), t Markov blocks to identify, N
    batches starting at 0, s, 2s, ...  The derived window width is
    s = h*n + (h+t)*p and one batch consumes the data range
    [start, start + s + h + t - 1].
    """

    h: int
    t: int
    N: int = 1

    def __post_init__(self):
        if self.h < 1 or self.t < 1:
            raise ConfigurationError("h and t must be >= 1")
        if self.N < 1:
            raise ConfigurationError("batch count N must be >= 1")

    def s(self, n: int, p: int) -> int:
        return window_size(self.h, self.t, n, p)

    def samples_needed(self, n: int, p: int) -> int:
        """Data length covering all N batches (y up to the last lead window)."""
        return self.s(n, p) * self.N + self.h + self.t


@dataclass(frozen=True)
class Realization:
    """State-space realization recovered from Markov parameters.

    The matrices are one representative of the similarity class; only the
    Markov products C A^i B are identifiable.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    singular_values: np.ndarray

    def markov(self, t: int) -> MarkovMatrix:
        return markov_true(StateSpaceModel(self.A_hat, self.B_hat, self.C_hat), t)


# windows inverted per batched call; bounds memory at O(BATCH_CHUNK s^2)
BATCH_CHUNK = 256
# ho_kalman refuses a Hankel whose m-th singular value is at most RANK_TOL times the first
RANK_TOL = 1e-9
# a batch window whose noise amplification amp_scale * max|alpha| is larger is skipped
AMPLIFICATION_LIMIT = 5.0


def batch_terms(y, u, starts: np.ndarray, h: int, t: int, cond_limit: float,
                amp_scale: float = 0.0):
    """The estimator's windows at a 1-D array of starts: gathered, inverted, skipped.

    Gathers the stack of data matrices L[y, u] (`build_L`) and the lead
    outputs Y(k+h+t; s) (`lead_outputs`), takes one stacked condition number
    and one stacked LU inverse.  A window is skipped for "cond" when its
    2-norm condition number is not finite or passes cond_limit (np.linalg.cond
    reads a NaN as inf), and for "amplification" when its noise amplification
    amp_scale * max|alpha| exceeds AMPLIFICATION_LIMIT; the others are
    "used".  The estimator passes amp_scale 0, the closed loop 2 delta s.
    Returns (cond, reason, amp, alpha, lead, term): the condition number and
    reason of every window, then the amplification, inverse (c, s, s), lead
    outputs (c, n, s) and term lead @ alpha[:, :, s - t p:] of the used
    windows only, in start order.
    """
    L = build_L(y, u, starts, h, t)
    cond = np.linalg.cond(L)
    ok = np.isfinite(cond) & (cond <= cond_limit)
    alpha = np.linalg.inv(L[ok])
    lead = lead_outputs(y, starts, h, t, L.shape[-1])[ok]
    amp = amp_scale * np.abs(alpha).max(axis=(1, 2))
    keep = amp <= AMPLIFICATION_LIMIT
    reason = np.where(ok, "amplification", "cond")
    reason[np.flatnonzero(ok)[keep]] = "used"
    alpha, lead, r = alpha[keep], lead[keep], t * _as_2d(u).shape[1]
    return cond, reason, amp[keep], alpha, lead, lead @ alpha[:, :, -r:]


def invert_window(y, u, cfg: EstimatorConfig):
    """(alpha, lead) of the window at start 0, by `batch_terms`.

    Raises EstimationError (carrying the condition number) when the skip
    rule drops the window.
    """
    cond, reason, _, alpha, lead, _ = batch_terms(y, u, np.array([0]), cfg.h, cfg.t,
                                                  DEFAULT_COND_LIMIT)
    if reason[0] != "used":
        raise EstimationError(f"data matrix at k=0 is numerically singular "
                              f"(cond={cond[0]:.3e})", condition_number=float(cond[0]))
    return alpha[0], lead[0]


@dataclass(frozen=True)
class BatchedMarkov(MarkovMatrix):
    """A batch-averaged G(t) with the condition number and reason of every batch."""

    cond: np.ndarray
    reason: np.ndarray


def estimate_markov_batched(y, u, cfg: EstimatorConfig) -> BatchedMarkov:
    """Average of per-batch estimates lead L^{-1} over N batches.

    At N = 1 this is the single-window closed form, exact on noise-free data.
    The windows are stacked, BATCH_CHUNK at a time, and go through
    `batch_terms`: one stacked condition number and one stacked LU inverse.
    Windows beyond DEFAULT_COND_LIMIT are skipped with reason "cond" and the
    average renormalized; if every batch degenerates an EstimationError is
    raised, carrying the largest condition number.
    """
    ya, ua = _as_2d(y), _as_2d(u)
    n, p = ya.shape[1], ua.shape[1]
    if len(ya) < cfg.samples_needed(n, p):
        raise ConfigurationError(
            f"need {cfg.samples_needed(n, p)} samples for {cfg.N} batches, got {len(ya)}"
        )
    total, parts = np.zeros((n, cfg.t * p)), []
    for first in range(0, cfg.N, BATCH_CHUNK):
        starts = cfg.s(n, p) * np.arange(first, min(first + BATCH_CHUNK, cfg.N))
        cond, reason, _, _, _, term = batch_terms(ya, ua, starts, cfg.h, cfg.t,
                                                  DEFAULT_COND_LIMIT)
        total += term.sum(axis=0)
        parts.append((cond, reason))
    cond, reason = map(np.concatenate, zip(*parts))
    used = int((reason == "used").sum())
    if used == 0:
        raise EstimationError(f"all {cfg.N} batches numerically degenerate",
                              condition_number=float(cond.max()))
    return BatchedMarkov(G=total / used, t=cfg.t, cond=cond, reason=reason)


@functools.lru_cache(maxsize=None)
def _hankel_gather(n: int, p: int, m: int, t: int):
    """Read-only (rows, cols) with G.G[rows, cols] = [H, H_shift], shape (2, m n, m p).

    Block (a, b) of H is g[a + b] and of H_shift g[a + b + 1], where
    g[i] = C A^i B is block t - 1 - i of G(t); needs t >= 2m.
    """
    a, i = np.divmod(np.arange(m * n), n)
    b, j = np.divmod(np.arange(m * p), p)
    lag = a[:, None] + b
    rows, cols = i[:, None], (t - 1 - np.stack([lag, lag + 1])) * p + j
    rows.flags.writeable = cols.flags.writeable = False  # shared by every caller
    return rows, cols


def ho_kalman(G: MarkovMatrix, m: int) -> Realization:
    """Balanced realization of order m from the Markov blocks of G.

    Needs t >= 2m so the shifted Hankel is available.  The singular-value
    split uses the symmetric square root; rank deficiency below order m
    raises OrderDeficiencyError with the singular values attached.
    """
    if m < 1:
        raise ConfigurationError("order m must be >= 1")
    if G.t < 2 * m:
        raise ConfigurationError(f"need t >= 2m = {2 * m} Markov blocks, got t = {G.t}")
    n, p = G.n, G.p
    rows, cols = _hankel_gather(n, p, m, G.t)
    H, H_shift = G.G[rows, cols]
    U, sv, Vt = np.linalg.svd(H)
    if sv[0] <= 0 or sv[m - 1] <= RANK_TOL * sv[0]:
        raise OrderDeficiencyError(
            f"Markov Hankel has numerical rank < {m}", singular_values=sv
        )
    sq = np.sqrt(sv[:m])
    obs = U[:, :m] * sq
    ctr = sq[:, None] * Vt[:m]
    A_hat = np.linalg.pinv(obs) @ H_shift @ np.linalg.pinv(ctr)
    B_hat = ctr[:, :p]
    C_hat = obs[:n, :]
    return Realization(A_hat=A_hat, B_hat=B_hat, C_hat=C_hat, singular_values=sv)


def identification_error(G_hat: MarkovMatrix, G_star: MarkovMatrix) -> float:
    """Squared Frobenius norm of the estimation error."""
    if G_hat.G.shape != G_star.G.shape:
        raise ConfigurationError(
            f"shape mismatch: {G_hat.G.shape} vs {G_star.G.shape}"
        )
    return float(np.sum((G_hat.G - G_star.G) ** 2))
