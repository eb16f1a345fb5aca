"""Closed-loop input design minimizing the maximum identification deviation.

Each iteration designs the newest input sample, which sits at the bottom-right
corner of the current data window's L matrix.  The bordered-inverse identity
makes every entry of L^{-1} affine in u2 = (u - u0^T Y^{-1} y)^{-1}, and the
deviation cost becomes a max of convex parabolas in u2.  That max is minimized
exactly over vertex and crossing candidates (the limit point of the paper's
diminishing-step gradient descent); the result is mapped back to u and
projected into the feasible set built from the safety bounds, the
one-window-ahead output prediction, and the conditioning constraints.

Input design is single-input (the corner of L is a scalar); identification of
multi-output data is supported elsewhere but not designed for.
"""

from __future__ import annotations

import functools
import subprocess
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    DesignFailureError,
    EstimationError,
    NearSingularError,
    PlantProtocolError,
    SubvaridError,
)
from .lti_core import (
    MarkovMatrix,
    NoiseSpec,
    StateSpaceModel,
    extended_controllability,
    extended_observability,
    toeplitz_T,
)
from .subspace_id import EstimatorConfig, Realization, ho_kalman
from . import deviation as dev


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class DesignConfig:
    """Bounds and tolerances for the input-design loop.

    The conditioning bound alpha_M and the linearization tolerance epsilon are
    tied by delta * alpha_M**2 <= epsilon; when alpha_M is omitted it defaults
    to sqrt(epsilon / delta).
    """

    delta: float = 0.05
    y_M: float = 100.0
    u_M: float = 10.0
    epsilon: float = 0.01
    alpha_M: Optional[float] = None
    horizon: Optional[int] = None
    kappa: float = 0.9
    cond_limit: float = 1e8
    batch_amplification_limit: float = 5.0
    validation_tol: float = 0.3
    white_amplitude: float = 1.0

    def __post_init__(self):
        if self.delta < 0 or self.y_M <= 0 or self.u_M <= 0:
            raise ConfigurationError("delta >= 0 and positive y_M, u_M required")
        if not 0 < self.kappa <= 1:
            raise ConfigurationError("margin kappa must be in (0, 1]")
        if self.alpha_M is None:
            self.alpha_M = float(np.sqrt(self.epsilon / self.delta)) if self.delta > 0 else np.inf
        if self.delta > 0 and self.delta * self.alpha_M**2 > self.epsilon * (1 + 1e-9):
            raise ConfigurationError(
                "constraint delta * alpha_M^2 <= epsilon is not satisfiable"
            )


# ---------------------------------------------------------------------------
# bordered inverse
# ---------------------------------------------------------------------------


@dataclass
class BorderedPartition:
    """Partition [[Y, y], [u0^T, u]] of a data window with the corner free.

    Caches Y^{-1} products so the inverse for any corner value costs a rank-1
    update: alpha(u2) = base + u2 * outer(R1, R2) with u2 = 1/(u - c0).
    """

    Y: np.ndarray
    y: np.ndarray
    u0: np.ndarray
    r: int
    Y_inv: np.ndarray = field(init=False)
    y1: np.ndarray = field(init=False)
    w0: np.ndarray = field(init=False)
    c0: float = field(init=False)
    R1: np.ndarray = field(init=False)
    R2: np.ndarray = field(init=False)
    base: np.ndarray = field(init=False)

    def __post_init__(self):
        k = self.Y.shape[0]
        if self.Y.shape != (k, k) or self.y.shape != (k,) or self.u0.shape != (k,):
            raise ConfigurationError("partition blocks have inconsistent shapes")
        self.Y_inv = np.linalg.inv(self.Y)
        self.y1 = self.Y_inv @ self.y
        self.w0 = self.u0 @ self.Y_inv
        self.c0 = float(self.u0 @ self.y1)
        self.R1 = np.concatenate([self.y1, [-1.0]])
        self.R2 = np.concatenate([self.w0, [-1.0]])
        self.base = np.zeros((k + 1, k + 1))
        self.base[:k, :k] = self.Y_inv

    @property
    def s(self) -> int:
        return self.Y.shape[0] + 1

    def u2_of(self, u: float) -> float:
        denom = u - self.c0
        if abs(denom) < 1e-12 * max(1.0, abs(self.c0)):
            raise NearSingularError(
                f"corner value {u} makes the Schur complement vanish (c0={self.c0})"
            )
        return 1.0 / denom

    def alpha_of(self, u: float) -> np.ndarray:
        return self.base + self.u2_of(u) * np.outer(self.R1, self.R2)


def partition_from_L(L: np.ndarray, r: int) -> BorderedPartition:
    L = np.asarray(L, dtype=float)
    k = L.shape[0] - 1
    return BorderedPartition(Y=L[:k, :k], y=L[:k, k], u0=L[k, :k], r=r)


def bordered_inverse_update(partition: BorderedPartition, u_new: float) -> dev.AlphaMatrix:
    """Inverse for a new corner value from the cached partition."""
    alpha = partition.alpha_of(u_new)
    L = np.zeros((partition.s, partition.s))
    L[:-1, :-1] = partition.Y
    L[:-1, -1] = partition.y
    L[-1, :-1] = partition.u0
    L[-1, -1] = u_new
    cond = float(np.linalg.cond(L))
    return dev.AlphaMatrix(alpha=alpha, r=partition.r, s=partition.s, condition_number=cond)


# ---------------------------------------------------------------------------
# rank-factored box maximization (fast path used inside the loop)
# ---------------------------------------------------------------------------


def rank_box_max(C: np.ndarray, bound: float, iters: int = 3, n_starts: int = 5):
    """Greedy vertex maximum of ||C^T sigma||^2 * bound^2 over sign vectors.

    C has one row per box variable and one column per residual; the quadratic
    form C C^T is maximized over the box by spectral sign rounding plus
    single-flip ascent, all in the rank-(columns) factorization.
    """
    nq = C.shape[0]
    if nq == 0 or bound == 0 or not np.any(C):
        return 0.0, np.zeros(nq)
    v = C.sum(axis=0)
    if not np.any(v):
        v = C[0].copy()
    for _ in range(iters):
        sigma = np.where(C @ v >= 0, 1.0, -1.0)
        v = C.T @ sigma
    row_norms = np.einsum("ij,ij->i", C, C)

    def ascend(sigma):
        resid = C.T @ sigma
        for _ in range(8 * nq):
            # best single flip: gain_i = -4 sigma_i (C_i . resid) + 4 |C_i|^2
            gains = -4.0 * sigma * (C @ resid) + 4.0 * row_norms
            i = int(np.argmax(gains))
            if gains[i] <= 1e-15:
                break
            sigma[i] = -sigma[i]
            resid += 2.0 * sigma[i] * C[i]
        return float(resid @ resid), sigma

    starts = [np.where(C @ v >= 0, 1.0, -1.0)]
    for j in range(min(C.shape[1], max(n_starts - 1, 0))):
        col = C[:, j]
        if np.any(col):
            starts.append(np.where(col >= 0, 1.0, -1.0))
    best_val, best_sigma = -np.inf, starts[0]
    for s0 in starts:
        val, sig = ascend(s0.copy())
        if val > best_val:
            best_val, best_sigma = val, sig
    return float(bound * bound * best_val), bound * best_sigma


@functools.lru_cache(maxsize=None)
def _noise_band(h: int, t: int, s: int):
    """Where each distinct data-noise sample (w then e) sits in a window's L.

    Row br of the output block holds w(br .. br+s-1) and row h+br of the
    input block holds e(br .. br+s-1); returns (sample, L row, L column)
    index arrays, one entry per L entry.
    """
    nw = h + s - 1
    br_w, col_w = np.divmod(np.arange(h * s), s)
    br_e, col_e = np.divmod(np.arange((h + t) * s), s)
    sample = np.concatenate([br_w + col_w, nw + br_e + col_e])
    row = np.concatenate([br_w, h + br_e])
    col = np.concatenate([col_w, col_e])
    for index in (sample, row, col):
        index.flags.writeable = False  # shared by every caller of the cache
    return sample, row, col


def window_quadratic_factors(alpha: np.ndarray, lead: np.ndarray, h: int, t: int):
    """Factors of the two deviation quadratics for a SISO window.

    Returns (C1, C2): C1 maps the s lead-noise samples, C2 the distinct data
    noise samples (w then e), each into the r selected residual columns.
    C2 = -M A_sel, where M[sample, col] = g[row] over the noise band.
    """
    s = alpha.shape[0]
    r = t
    A_sel = alpha[:, s - r :]
    g = alpha.T @ lead
    sample, row, col = _noise_band(h, t, s)
    M = np.zeros((2 * h + t + 2 * s - 2, s))
    M[sample, col] = g[row]
    return A_sel, -(M @ A_sel)


def window_deviation(alpha: np.ndarray, lead: np.ndarray, h: int, t: int, delta: float,
                     n_starts: int = 5):
    """Fast J = sqrt(J1 + J2) for one SISO window via greedy rounding."""
    C1, C2 = window_quadratic_factors(alpha, lead, h, t)
    J1, w_star = rank_box_max(C1, 2.0 * delta, n_starts=n_starts)
    J2, p_star = rank_box_max(C2, 2.0 * delta, n_starts=n_starts)
    return float(np.sqrt(J1 + J2)), w_star, p_star


# ---------------------------------------------------------------------------
# output prediction
# ---------------------------------------------------------------------------


class OutputPredictor:
    """Multi-step output predictor with the per-model work done once.

    The (h+t)-step-ahead row maps are
    y(k+h+t) = CA^t [F1 Y(k;h) + F2 U(k;h)] + G(t) U(k+h;t), with
    F1 = A^h O_c^L(h) and F2 = O_b(h) - A^h O_c^L(h) T(h).  Running that
    recursion q steps is linear in the last h+t outputs, the last h+t-1
    inputs and the q future inputs, so it is folded into one matrix per
    horizon length q, built on first use.  The model's eigen-decomposition
    and the state estimator's pinv(O_c) and T are kept for the safety
    interval, which the loop evaluates at every sample while the model
    changes only once per batch.
    """

    def __init__(self, A_hat, B_hat, C_hat, G_hat: MarkovMatrix, h: Optional[int] = None):
        A_hat = np.atleast_2d(np.asarray(A_hat, dtype=float))
        self.h = A_hat.shape[0] if h is None else h
        self.t = G_hat.t
        self.G = G_hat.G.flatten()
        self.model = model = StateSpaceModel(A=A_hat, B=B_hat, C=C_hat)
        Oc = extended_observability(model, self.h)
        if np.linalg.matrix_rank(Oc, tol=1e-10) < model.m:
            raise EstimationError("estimated observability map is rank deficient")
        self.Oc_left = np.linalg.pinv(Oc)
        self.T = toeplitz_T(model, self.h)
        Ah = np.linalg.matrix_power(model.A, self.h)
        F1 = Ah @ self.Oc_left
        F2 = extended_controllability(model, self.h) - F1 @ self.T
        CAt = model.C @ np.linalg.matrix_power(model.A, self.t)
        self.rowY = (CAt @ F1).flatten()
        self.rowU = (CAt @ F2).flatten()
        self.evals, V = np.linalg.eig(model.A)
        self.unstable = np.abs(self.evals) >= 1.0
        self.W = np.linalg.inv(V) if self.unstable.any() else None
        self._maps = {}

    def prediction_map(self, q: int) -> np.ndarray:
        """Read-only map from [y(T-h-t+1..T), u(T-h-t+1..T-1), u(T..T+q-1)] to y(T+1..T+q)."""
        P = self._maps.get(q)
        if P is None:
            h, n = self.h, self.h + self.t
            cols = 2 * n - 1 + q
            Y = np.zeros((n + q, cols))
            Y[:n, :n] = np.eye(n)
            U = np.zeros((n - 1 + q, cols))
            U[:, n:] = np.eye(n - 1 + q)
            for j in range(q):
                Y[n + j] = (
                    self.rowY @ Y[j : j + h]
                    + self.rowU @ U[j : j + h]
                    + self.G @ U[j + h : j + n]
                )
            P = self._maps[q] = Y[n:]
            P.flags.writeable = False
        return P

    def impulse(self, q: int) -> np.ndarray:
        """Response of the q predicted outputs to a unit first future input."""
        return self.prediction_map(q)[:, 2 * (self.h + self.t) - 1]

    def predict(self, y_history, u_history, u_next) -> np.ndarray:
        """y_history holds y(0..T); u_history holds u(0..T-1); u_next starts at u(T)."""
        n = self.h + self.t
        yw = np.asarray(y_history, dtype=float).flatten()
        un = np.asarray(u_next, dtype=float).flatten()
        uh = np.asarray(u_history, dtype=float).flatten()
        if len(uh) != len(yw) - 1:
            raise ConfigurationError(
                "u_history must lag y_history by exactly one sample"
            )
        if len(yw) < n + 1:
            raise ConfigurationError(f"windows must hold at least h+t+1={n + 1} outputs")
        z = np.concatenate([yw[-n:], uh[len(uh) - (n - 1) :], un])
        return self.prediction_map(len(un)) @ z

    def estimate_state(self, y_hist, u_hist) -> np.ndarray:
        """x(now) from the last h outputs and inputs via the observability map."""
        h, model = self.h, self.model
        yw = np.asarray(y_hist[-h:], dtype=float).flatten()
        uw = np.concatenate([np.asarray(u_hist[-(h - 1):], dtype=float).flatten(), [0.0]]) if h > 1 else np.zeros(1)
        x = self.Oc_left @ (yw - self.T @ uw)
        for j in range(h - 1):
            x = model.A @ x + model.B @ np.atleast_1d(uw[j])
        return x


def predict_output(
    A_hat,
    B_hat,
    C_hat,
    G_hat: MarkovMatrix,
    Y_window,
    U_window,
    U_next,
    h: Optional[int] = None,
) -> np.ndarray:
    """Predict the outputs following the recorded window, one per U_next entry.

    Y_window and U_window are the most recent aligned samples (at least h + t
    of them); U_next holds the future inputs to predict through.  Predictions
    recurse: later steps consume earlier predicted outputs.
    """
    predictor = OutputPredictor(A_hat, B_hat, C_hat, G_hat, h=h)
    return predictor.predict(Y_window, U_window, U_next)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


@dataclass
class FeasibilityContext:
    """Everything the constraint families need at one design instant."""

    realization: Realization
    G_hat: MarkovMatrix
    y_history: np.ndarray
    u_history: np.ndarray
    partition: Optional[BorderedPartition]
    cfg: DesignConfig
    h: int
    predictor: Optional["OutputPredictor"] = None

    def get_predictor(self) -> "OutputPredictor":
        if self.predictor is None:
            self.predictor = OutputPredictor(
                self.realization.A_hat, self.realization.B_hat,
                self.realization.C_hat, self.G_hat, h=self.h,
            )
        return self.predictor


@dataclass
class FeasibilityReport:
    feasible: bool
    margins: dict
    violated: list


def _alpha_tilde(alpha_maxabs: float, delta: float, s: int) -> float:
    """First-order worst-case inflation of |alpha| under bounded perturbation."""
    return alpha_maxabs * (1.0 + 2.0 * delta * s * alpha_maxabs)


def feasible_set_check(u_candidate_sequence, context: FeasibilityContext) -> FeasibilityReport:
    """Evaluate all four constraint families for a candidate input sequence.

    The sequence covers the predictive horizon; only its first element would
    be applied.  Returns the margins (positive = satisfied) per family rather
    than raising: an infeasible candidate is a result, not an error.
    """
    u_seq = np.asarray(u_candidate_sequence, dtype=float).flatten()
    cfg = context.cfg
    margins = {}
    violated = []

    margins["input_bound"] = float(cfg.u_M - np.abs(u_seq).max())
    if margins["input_bound"] < 0:
        violated.append("input_bound")

    try:
        y_pred = context.get_predictor().predict(
            context.y_history, context.u_history, u_seq
        )
        margins["output_bound"] = float(cfg.kappa * cfg.y_M - np.abs(y_pred).max())
    except (EstimationError, ConfigurationError):
        y_pred = None
        margins["output_bound"] = -np.inf
    if margins["output_bound"] < 0:
        violated.append("output_bound")

    if context.partition is not None:
        try:
            alpha = context.partition.alpha_of(float(u_seq[0]))
            a_tilde = _alpha_tilde(float(np.abs(alpha).max()), cfg.delta, context.partition.s)
            margins["alpha_bound"] = float(cfg.alpha_M - a_tilde)
            margins["epsilon_bound"] = float(cfg.epsilon - cfg.delta * a_tilde**2)
        except NearSingularError:
            margins["alpha_bound"] = -np.inf
            margins["epsilon_bound"] = -np.inf
    else:
        margins["alpha_bound"] = margins["epsilon_bound"] = np.nan
    if margins.get("alpha_bound", 0) < 0:
        violated.append("alpha_bound")
    if margins.get("epsilon_bound", 0) < 0:
        violated.append("epsilon_bound")

    return FeasibilityReport(feasible=not violated, margins=margins, violated=violated)


def _interval_intersect(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def _affine_interval(a: float, b: float, bound: float, current):
    """Intersect current interval with {u : |a + b u| <= bound}."""
    if current is None:
        return None
    if abs(b) < 1e-14:
        return current if abs(a) <= bound else None
    lo, hi = sorted(((-bound - a) / b, (bound - a) / b))
    return _interval_intersect(current, (lo, hi))


def safety_interval(context: FeasibilityContext, horizon: int):
    """Interval of next inputs keeping predicted outputs within the margin.

    Uses a zero continuation after the designed sample (sufficient condition;
    the estimated model is stable in normal operation) plus holdability of any
    unstable estimated modes, so the set stays recursively feasible.
    """
    cfg = context.cfg
    interval = (-cfg.u_M, cfg.u_M)

    try:
        pred = context.get_predictor()
        base = pred.predict(context.y_history, context.u_history, np.zeros(1 + horizon))
    except (EstimationError, ConfigurationError):
        return interval
    slope = pred.impulse(1 + horizon)
    for j in range(len(base)):
        interval = _affine_interval(base[j], slope[j], cfg.kappa * cfg.y_M, interval)
        if interval is None:
            return None

    interval = _unstable_mode_interval(context, interval)
    return interval


def _unstable_mode_interval(context: FeasibilityContext, interval):
    """Shrink the input interval so unstable estimated modes stay holdable."""
    if interval is None:
        return None
    pred = context.get_predictor()
    if not pred.unstable.any():
        return interval
    cfg = context.cfg
    A, B = pred.model.A, pred.model.B
    W = pred.W[pred.unstable]
    x_now = pred.estimate_state(context.y_history, context.u_history)
    za = W @ (A @ x_now)
    zb = (W @ B).flatten()
    z_now = np.abs(W @ x_now)
    for aa, bb, zn, lam in zip(za, zb, z_now, pred.evals[pred.unstable]):
        gain = abs(bb)
        hold_radius = gain * cfg.u_M / max(abs(lam) - 1.0, 1e-6)
        bound = max(0.4 * hold_radius, 0.95 * zn)
        A2 = abs(bb) ** 2
        B2 = 2.0 * float(np.real(np.conj(aa) * bb))
        C2 = abs(aa) ** 2 - bound**2
        if A2 < 1e-14:
            if C2 > 0:
                return None
            continue
        disc = B2 * B2 - 4 * A2 * C2
        if disc < 0:
            return None
        root = np.sqrt(disc)
        interval = _interval_intersect(interval, ((-B2 - root) / (2 * A2), (-B2 + root) / (2 * A2)))
        if interval is None:
            return None
    return interval


def conditioning_u_sets(partition: BorderedPartition, cfg: DesignConfig):
    """Input sets where the worst-case inverse stays within the alpha bound.

    The entries of alpha are affine in u2, so the bound produces a u2
    interval, mapped back through u = c0 + 1/u2 into at most two u intervals.
    """
    a_lim = cfg.alpha_M
    if not np.isfinite(a_lim):
        return [(-np.inf, np.inf)]
    # invert the inflation a * (1 + 2 delta s a) <= a_lim for the raw bound
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
    # map u2 interval [lo, hi] back to u
    c0 = partition.c0
    out = []
    if lo <= 0.0 <= hi:
        if hi > 0:
            out.append((c0 + 1.0 / hi, np.inf))
        if lo < 0:
            out.append((-np.inf, c0 + 1.0 / lo))
        if lo == 0 and hi == 0:
            return []
    elif lo > 0:
        out.append((c0 + 1.0 / hi, c0 + 1.0 / lo))
    else:
        out.append((c0 + 1.0 / hi, c0 + 1.0 / lo))
    return out


# ---------------------------------------------------------------------------
# deviation cost in the u2 parameterization
# ---------------------------------------------------------------------------


@dataclass
class CostAffineForm:
    """Per-scenario affine residuals: J0(u2) = max_k sum_j (F_kj u2 + c_kj)^2.

    Summing the squared residuals collapses each scenario to one parabola
    a u2^2 + b u2 + d; the coefficients are cached for fast evaluation.
    """

    F_terms: np.ndarray  # (n_scenarios, r)
    c_terms: np.ndarray  # (n_scenarios, r)

    def __post_init__(self):
        self._a = np.einsum("ij,ij->i", self.F_terms, self.F_terms)
        self._b = 2.0 * np.einsum("ij,ij->i", self.F_terms, self.c_terms)
        self._d = np.einsum("ij,ij->i", self.c_terms, self.c_terms)

    def residuals(self, u2: float) -> np.ndarray:
        return self.F_terms * u2 + self.c_terms

    def value(self, u2: float) -> float:
        return float(np.max((self._a * u2 + self._b) * u2 + self._d))

    def minimizer(self) -> float:
        """Exact argmin of J0 over u2.

        The max of convex parabolas is minimized at a vertex of one parabola
        or where two of them cross; every such candidate is evaluated at
        once.  With every a_k = 0 the cost is constant and 0.0 is returned.
        """
        a, b, d = self._a, self._b, self._d
        curved = a > 0
        if not curved.any():
            return 0.0
        i, j = _pairs(len(a))
        da, db, dd = a[i] - a[j], b[i] - b[j], d[i] - d[j]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # crossings: roots of da u^2 + db u + dd in the cancellation-free
            # form q / da, dd / q; da = 0 leaves only the linear root -dd / db
            disc = db * db - 4.0 * da * dd
            q = -0.5 * (db + np.copysign(np.sqrt(np.maximum(disc, 0.0)), db))
            crossings = np.concatenate([q / da, dd / q])[np.tile(disc >= 0, 2)]
            cand = np.concatenate([-b[curved] / (2.0 * a[curved]), crossings])
            cand = cand[np.isfinite(cand)]
            vals = ((a[:, None] * cand + b[:, None]) * cand + d[:, None]).max(axis=0)
        return float(cand[np.argmin(vals)])


@functools.lru_cache(maxsize=None)
def _pairs(n: int):
    """Index pairs i < j of n scenarios."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False  # shared by every caller of the cache
    return pairs


def cost_j0(u2: float, form: CostAffineForm) -> float:
    """Worst-case quadratic cost over the stored noise scenarios."""
    return form.value(u2)


def _lead_noise_terms(partition: BorderedPartition, w_lead: np.ndarray, sel: slice):
    """Lead-noise part of the scenario residual: w_lead^T alpha[:, sel] in u2."""
    return float(w_lead @ partition.R1) * partition.R2[sel], w_lead @ partition.base[:, sel]


def _data_noise_terms(partition: BorderedPartition, lead: np.ndarray, dL: np.ndarray,
                      sel: slice):
    """Data-noise part lead^T (alpha dL alpha)[:, sel] in u2, as (F1, F2, c).

    F = F1 + F2; the two are kept apart so callers subtract them in the
    order that makes sign-flipped scenarios exact negations.
    """
    base, R1, R2 = partition.base, partition.R1, partition.R2
    g_inf = base.T @ lead
    F1 = float(lead @ R1) * (R2 @ dL @ base)[sel]
    F2 = float(g_inf @ dL @ R1) * R2[sel]
    return F1, F2, (g_inf @ dL @ base)[sel]


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
    """
    sel = slice(partition.s - r, partition.s)
    Fw, cw = _lead_noise_terms(partition, w_lead, sel)
    F1, F2, cd = _data_noise_terms(partition, lead, dL, sel)
    return Fw - F1 - F2, cw - cd


def build_scenarios(
    partition: BorderedPartition,
    lead: np.ndarray,
    h: int,
    t: int,
    delta: float,
    u_probe: float,
) -> CostAffineForm:
    """Worst-case noise scenarios at the probe input, as affine u2 terms.

    The scenario vectors are the solutions of the two deviation sub-problems
    evaluated at the probe corner value; their negations are included.
    """
    s = partition.s
    alpha = partition.alpha_of(u_probe)
    _, w_star, p_star = window_deviation(alpha, lead, h, t, delta, n_starts=1)
    sample, row, col = _noise_band(h, t, s)
    dL = np.zeros((s, s))
    dL[row, col] = p_star[sample]
    sel = slice(s - t, s)
    Fw, cw = _lead_noise_terms(partition, w_star, sel)
    F1, F2, cd = _data_noise_terms(partition, lead, dL, sel)
    # scenarios (+-w_star, +-dL): negation is exact, so each row equals
    # scenario_affine_terms of the signed noise bit for bit
    sw = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    sp = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    return CostAffineForm(F_terms=sw * Fw - sp * F1 - sp * F2, c_terms=sw * cw - sp * cd)


# ---------------------------------------------------------------------------
# design step
# ---------------------------------------------------------------------------


@dataclass
class DesignState:
    """Inputs to one design step (current window, estimates, feasible sets)."""

    partition: BorderedPartition
    lead: np.ndarray
    u_intervals: list
    form: CostAffineForm


def design_input_step(state: DesignState) -> float:
    """Design the next input: minimize J0 in u2, map back, project to feasible.

    The projection evaluates the cost at the feasible interval endpoints and
    at the unconstrained optimum when it lies inside, returning the best
    feasible candidate.
    """
    intervals = [iv for iv in state.u_intervals if iv is not None]
    if not intervals:
        raise DesignFailureError("empty feasible set handed to design_input_step")
    form = state.form
    u2_opt = form.minimizer()

    candidates = []
    c0 = state.partition.c0
    if u2_opt != 0.0:
        u_free = c0 + 1.0 / u2_opt
        for lo, hi in intervals:
            if lo - 1e-12 <= u_free <= hi + 1e-12:
                candidates.append(min(max(u_free, lo), hi))
    for lo, hi in intervals:
        for edge in (lo, hi):
            if np.isfinite(edge):
                candidates.append(edge)
    if not candidates:
        raise DesignFailureError("feasible set contains no finite candidate")

    best_u, best_f = None, np.inf
    for u in candidates:
        try:
            f = cost_j0(state.partition.u2_of(u), form)
        except NearSingularError:
            continue
        if f < best_f:
            best_u, best_f = float(u), f
    if best_u is None:
        raise DesignFailureError("all candidates hit the singular corner value")
    return best_u


# ---------------------------------------------------------------------------
# plants
# ---------------------------------------------------------------------------


class SimulatedPlant:
    """Internal plant: x+ = A x + B (u - e), y = C x + w.

    Process noise is injected at the input (the equivalent-noise form used by
    the deviation analysis); both channels share the bound of `noise`.
    """

    def __init__(self, model: StateSpaceModel, noise: NoiseSpec,
                 rng: np.random.Generator, x0=None):
        self.model = model
        self.noise = noise
        self.rng = rng
        self.x0 = np.zeros(model.m) if x0 is None else np.asarray(x0, dtype=float)
        self.x = self.x0.copy()

    def reset(self) -> float:
        self.x = self.x0.copy()
        y = self.model.C @ self.x + self.noise.sample(self.rng, (self.model.n,))
        return float(y[0])

    def step(self, u: float) -> float:
        e = self.noise.sample(self.rng, (self.model.p,))
        self.x = self.model.A @ self.x + self.model.B @ (np.atleast_1d(u) - e)
        w = self.noise.sample(self.rng, (self.model.n,))
        y = self.model.C @ self.x + w
        return float(y[0])


class LineProtocolPlant:
    """External plant speaking one line per step: send u, receive y.

    Accepts either an existing subprocess.Popen with text pipes or a command
    to spawn.  The first line read (before any input is sent) is y(0).  A
    plant that exits or answers with anything but one finite number raises
    PlantProtocolError.  close() ends the input and waits CLOSE_TIMEOUT_S
    seconds for the plant to exit, then kills it.
    """

    CLOSE_TIMEOUT_S = 10.0

    def __init__(self, command=None, proc: Optional[subprocess.Popen] = None):
        if proc is None:
            if command is None:
                raise ConfigurationError("need a command or a running process")
            proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )
        self.proc = proc

    def _read(self) -> float:
        line = self.proc.stdout.readline()
        if not line:
            raise PlantProtocolError("plant closed its output (process exited)")
        try:
            y = float(line)
        except ValueError:
            raise PlantProtocolError(f"plant sent a non-numeric line {line!r}") from None
        if not np.isfinite(y):
            raise PlantProtocolError(f"plant sent a non-finite value {line!r}")
        return y

    def reset(self) -> float:
        return self._read()

    def step(self, u: float) -> float:
        try:
            self.proc.stdin.write(f"{u:.17g}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise PlantProtocolError("plant closed its input (process exited)") from None
        return self._read()

    def close(self):
        try:
            if self.proc.stdin:
                self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the plant already exited with input still buffered
        try:
            self.proc.wait(timeout=self.CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


@dataclass
class IterationRecord:
    index: int
    u: float
    y: float
    y_pred: float
    J: float
    dG: float
    feasible: bool


@dataclass
class BatchRecord:
    index: int
    G: np.ndarray
    J: float
    condition_number: float
    used: bool
    regime: bool = True


@dataclass
class IdentificationRun:
    """Complete record of one closed-loop identification run."""

    iterations: list
    batches: list
    y: np.ndarray
    u: np.ndarray
    G_hat: Optional[MarkovMatrix]
    realization: Optional[Realization]
    infeasible_events: int
    violations: int
    design_fallbacks: int
    init_len: int

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "u", "y", "yhat", "J", "dG", "feasible"])
            for rec in self.iterations:
                writer.writerow(
                    [
                        rec.index,
                        format(rec.u, ".17g"),
                        format(rec.y, ".17g"),
                        format(rec.y_pred, ".17g"),
                        format(rec.J, ".17g"),
                        format(rec.dG, ".17g"),
                        int(rec.feasible),
                    ]
                )


def multitone_dither(length: int, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Random-phase multitone excitation normalized to the given amplitude."""
    freqs = np.array([0.031, 0.073, 0.107, 0.149, 0.285, 0.331, 0.389, 0.433, 0.471])
    phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
    k = np.arange(length)
    u = np.cos(2.0 * np.pi * freqs[:, None] * k[None, :] + phases[:, None]).sum(axis=0)
    peak = np.abs(u).max()
    return amplitude * u / peak if peak > 0 else u


def _validate_model(pred: OutputPredictor, y, u, n_check: int = 12) -> float:
    """Relative one-step prediction error of a candidate model's predictor."""
    model, h, T, Oc_left = pred.model, pred.h, pred.T, pred.Oc_left
    errs = []
    scale = max(float(np.abs(y[-(n_check + h + 1):]).max()), 1.0)
    for k0 in range(len(y) - n_check - h, len(y) - h):
        yw = y[k0 : k0 + h]
        uw = u[k0 : k0 + h]
        x = Oc_left @ (yw - T @ uw)
        for j in range(h - 1):
            x = model.A @ x + model.B @ np.atleast_1d(uw[j])
        # x is now x(k0+h-1); advance once more with u(k0+h-1)
        y_next = (model.C @ (model.A @ x + model.B @ np.atleast_1d(uw[-1])))[0]
        errs.append(abs(float(y_next) - float(y[k0 + h])))
    return float(np.mean(errs)) / scale


def run_closed_loop(
    plant,
    cfg: DesignConfig,
    est_cfg: EstimatorConfig,
    n_iterations: int,
    order: int,
    mode: str = "designed",
    rng: Optional[np.random.Generator] = None,
    G_star: Optional[MarkovMatrix] = None,
    init_inputs: Optional[np.ndarray] = None,
    dither_amplitude: float = 8.0,
) -> IdentificationRun:
    """Run Algorithm-1 style closed-loop identification for n_iterations.

    Per iteration: re-estimate G (batch average) when a new batch completes,
    realize (A, B, C), build the feasible set for the next input, design it
    (or draw it uniformly in `white` mode), apply it to the plant, and record
    everything.  The initial sequence is either supplied or generated as
    multitone dither.
    """
    if mode not in ("designed", "white"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng()
    h, t = est_cfg.h, est_cfg.t
    s = est_cfg.s(1, 1)
    window = s + h + t
    r = t
    if init_inputs is None:
        init_inputs = multitone_dither(window - 1, dither_amplitude, rng)
    init_len = len(init_inputs)
    if init_len < window - 1:
        raise ConfigurationError(f"initial sequence must hold >= {window - 1} inputs")
    horizon = cfg.horizon if cfg.horizon is not None else order

    capacity = init_len + n_iterations + 2
    y_buf = np.empty(capacity)
    u_buf = np.zeros(capacity)
    y_buf[0] = plant.reset()
    n_y, n_u = 1, 0
    for u0 in init_inputs:
        u_buf[n_u] = float(u0)
        n_u += 1
        y_buf[n_y] = plant.step(float(u0))
        n_y += 1

    G_sum = np.zeros(r)
    n_used = 0
    next_batch = 0
    batches: list = []
    iterations: list = []
    G_hat: Optional[MarkovMatrix] = None
    accepted: Optional[Realization] = None
    predictor: Optional[OutputPredictor] = None
    latest_J = 0.0
    infeasible_events = violations = fallbacks = 0
    idxH = np.arange(h)[:, None] + np.arange(s)[None, :]
    idxU = np.arange(h + t)[:, None] + np.arange(s)[None, :]

    for it in range(n_iterations):
        tau = n_u  # time index of the input being designed
        ya = y_buf[:n_y]
        ua = u_buf[: n_u + 1]  # one placeholder slot for u(tau)

        # fold in completed batches: batch i needs y up to i*s + window - 1
        while next_batch * s + window - 1 <= tau:
            k0 = next_batch * s
            L = np.vstack([ya[k0 + idxH], ua[k0 + idxU]])
            cond = float(np.linalg.cond(L))
            used = bool(np.isfinite(cond) and cond < cfg.cond_limit)
            J_b = np.nan
            regime = False
            if used:
                alpha = np.linalg.inv(L)
                amp = 2.0 * cfg.delta * s * float(np.abs(alpha).max())
                # skip windows whose noise amplification swamps the estimate
                used = amp <= cfg.batch_amplification_limit
            if used:
                lead = ya[k0 + h + t : k0 + h + t + s]
                G_sum += (lead @ alpha)[s - r :]
                n_used += 1
                # deviation statistics only where the first-order inverse
                # perturbation converges (Neumann-series validity)
                regime = amp <= 0.9
                if regime:
                    J_b, _, _ = window_deviation(alpha, lead, h, t, cfg.delta)
                    latest_J = J_b
            batches.append(
                BatchRecord(index=next_batch, G=G_sum / max(n_used, 1), J=J_b,
                            condition_number=cond, used=used, regime=regime)
            )
            next_batch += 1
            if n_used:
                G_hat = MarkovMatrix(G=(G_sum / n_used)[None, :], t=t)
                try:
                    cand = ho_kalman(G_hat, order)
                    cand_pred = OutputPredictor(
                        cand.A_hat, cand.B_hat, cand.C_hat, G_hat, h=h
                    )
                    if _validate_model(cand_pred, ya, ua) < cfg.validation_tol:
                        accepted, predictor = cand, cand_pred
                except (SubvaridError, np.linalg.LinAlgError):
                    pass

        y_now = float(y_buf[n_y - 1])
        if abs(y_now) > cfg.y_M:
            violations += 1

        # safety interval from the validated model; before one exists the
        # loop stays within the running system's own operating range
        interval = (-cfg.u_M, cfg.u_M)
        feasible = accepted is not None
        if accepted is not None and G_hat is not None:
            context = FeasibilityContext(
                realization=accepted, G_hat=G_hat,
                y_history=ya, u_history=u_buf[:n_u],
                partition=None, cfg=cfg, h=h, predictor=predictor,
            )
            interval = safety_interval(context, horizon)
            if interval is None:
                infeasible_events += 1
                feasible = False
                interval = (-cfg.u_M, cfg.u_M)

        if mode == "white":
            draw = rng.uniform(-cfg.white_amplitude * cfg.u_M,
                               cfg.white_amplitude * cfg.u_M)
            u_tau = float(min(max(draw, interval[0]), interval[1]))
        else:
            k0 = tau - (h + t + s - 2)
            u_tau = None
            if k0 >= 0:
                # the deviation analysis is defined on the noise-free output;
                # once a model exists, design against its predicted window so
                # the designed input does not chase the realized noise
                y_design = None
                if predictor is not None and k0 >= h + t:
                    try:
                        future = np.concatenate([u_buf[k0:n_u], [0.0]])
                        y_pred_win = predictor.predict(
                            y_buf[: k0 + 1], u_buf[:k0], future
                        )
                        y_design = np.concatenate([y_buf[: k0 + 1], y_pred_win])
                    except (EstimationError, ConfigurationError):
                        y_design = None
                if y_design is None:
                    y_design = ya
                Lc = np.vstack([y_design[k0 + idxH], ua[k0 + idxU]])
                try:
                    part = partition_from_L(Lc, r)
                    if len(y_design) >= k0 + h + t + s:
                        lead = y_design[k0 + h + t : k0 + h + t + s]
                    else:
                        lead_known = y_design[k0 + h + t : k0 + h + t + s - 1]
                        if predictor is not None:
                            pred_last = predictor.predict(ya, u_buf[:n_u], [0.0])
                        else:
                            pred_last = lead_known[-1:]
                        lead = np.concatenate([lead_known, pred_last])
                    cond_sets = conditioning_u_sets(part, cfg)
                    u_sets = [
                        iv
                        for cs in cond_sets
                        for iv in [_interval_intersect(cs, interval)]
                        if iv is not None
                    ]
                    if u_sets:
                        probe = u_sets[0][1] if np.isfinite(u_sets[0][1]) else u_sets[0][0]
                        form = build_scenarios(part, lead, h, t, cfg.delta, probe)
                        state = DesignState(
                            partition=part, lead=lead,
                            u_intervals=u_sets, form=form,
                        )
                        u_tau = design_input_step(state)
                except (NearSingularError, EstimationError, np.linalg.LinAlgError,
                        DesignFailureError):
                    u_tau = None
            if u_tau is None:
                # no conditioning-feasible corner (often a degenerate window):
                # fall back to a random safe input so excitation recovers
                fallbacks += 1
                u_tau = float(rng.uniform(interval[0], interval[1]))

        y_pred = 0.0
        if predictor is not None:
            try:
                y_pred = float(predictor.predict(ya, u_buf[:n_u], [u_tau])[0])
            except (EstimationError, ConfigurationError):
                y_pred = 0.0

        u_buf[n_u] = float(u_tau)
        n_u += 1
        y_buf[n_y] = plant.step(float(u_tau))
        n_y += 1

        dG = np.nan
        if G_star is not None and G_hat is not None:
            dG = float(np.sum((G_hat.G - G_star.G) ** 2))
        iterations.append(
            IterationRecord(index=it, u=float(u_tau), y=float(y_buf[n_y - 1]),
                            y_pred=y_pred, J=latest_J, dG=dG, feasible=feasible)
        )

    return IdentificationRun(
        iterations=iterations,
        batches=batches,
        y=y_buf[:n_y].copy(),
        u=u_buf[:n_u].copy(),
        G_hat=G_hat,
        realization=accepted,
        infeasible_events=infeasible_events,
        violations=violations,
        design_fallbacks=fallbacks,
        init_len=init_len,
    )
