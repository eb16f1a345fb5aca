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

from .deviation import _noise_band, window_deviation
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
from .subspace_id import (
    EstimatorConfig,
    Realization,
    ho_kalman,
    identification_error,
    invert_windows,
)


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
    and the state observer's pinv(O_c) and T are kept for the safety
    interval, which the loop evaluates at every sample while the model
    changes only once per batch, and for the model validation.
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


# ---------------------------------------------------------------------------
# safety filter
# ---------------------------------------------------------------------------


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


def safety_interval(pred: OutputPredictor, cfg: DesignConfig, horizon: int,
                    y_history, u_history):
    """Interval of next inputs keeping predicted outputs within the margin.

    This is the loop's one safety filter.  It uses a zero continuation after
    the designed sample (sufficient condition; the estimated model is stable
    in normal operation) plus holdability of any unstable estimated modes, so
    the set stays recursively feasible.  Returns None when no input is safe;
    histories too short to predict from raise ConfigurationError.
    """
    interval = (-cfg.u_M, cfg.u_M)
    base = pred.predict(y_history, u_history, np.zeros(1 + horizon))
    slope = pred.impulse(1 + horizon)
    for j in range(len(base)):
        interval = _affine_interval(base[j], slope[j], cfg.kappa * cfg.y_M, interval)
        if interval is None:
            return None
    if not pred.unstable.any():
        return interval
    return _unstable_mode_interval(pred, cfg, pred.estimate_state(y_history, u_history),
                                   interval)


def _unstable_mode_interval(pred: OutputPredictor, cfg: DesignConfig, x_now, interval):
    """Shrink the input interval so unstable estimated modes stay holdable."""
    A, B = pred.model.A, pred.model.B
    W = pred.W[pred.unstable]
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
    sample, row, col = _noise_band(1, 1, h, t)
    dL = np.zeros((s, s))
    dL[row, col] = p_star[sample]
    sel = slice(s - t, s)
    Fw, cw = _lead_noise_terms(partition, w_star, sel)
    F1, F2, cd = _data_noise_terms(partition, lead, dL, sel)
    # scenarios (+-w_star, +-dL): negation is exact, so each row equals the
    # terms of the signed noise, formed on their own, bit for bit
    sw = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    sp = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    return CostAffineForm(F_terms=sw * Fw - sp * F1 - sp * F2, c_terms=sw * cw - sp * cd)


# ---------------------------------------------------------------------------
# design step
# ---------------------------------------------------------------------------


def design_input_step(partition: BorderedPartition, u_intervals: list,
                      form: CostAffineForm) -> float:
    """Design the next input: minimize J0 in u2, map back, project to feasible.

    The projection evaluates the cost at the feasible interval endpoints and
    at the unconstrained optimum when it lies inside, returning the best
    feasible candidate.
    """
    intervals = [iv for iv in u_intervals if iv is not None]
    if not intervals:
        raise DesignFailureError("empty feasible set handed to design_input_step")
    u2_opt = form.minimizer()

    candidates = []
    c0 = partition.c0
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
            f = cost_j0(partition.u2_of(u), form)
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
    """Relative one-step prediction error of a candidate model's predictor.

    Checks the last n_check one-step predictions, or as many as a short
    history holds (the earliest state window starts at y(0)).
    """
    model, h = pred.model, pred.h
    errs = []
    scale = max(float(np.abs(y[-(n_check + h + 1):]).max()), 1.0)
    for k0 in range(max(len(y) - n_check - h, 0), len(y) - h):
        # x(k0+h-1) from y(k0 .. k0+h-1); advance once more with u(k0+h-1)
        x = pred.estimate_state(y[: k0 + h], u[: k0 + h - 1])
        y_next = (model.C @ (model.A @ x + model.B @ np.atleast_1d(u[k0 + h - 1])))[0]
        errs.append(abs(float(y_next) - float(y[k0 + h])))
    return float(np.mean(errs)) / scale


@functools.lru_cache(maxsize=None)
def _window_rows(h: int, t: int, s: int):
    """Index arrays that cut the output and input blocks of a SISO L from y, u."""
    rows = (np.arange(h)[:, None] + np.arange(s), np.arange(h + t)[:, None] + np.arange(s))
    for index in rows:
        index.flags.writeable = False  # shared by every caller of the cache
    return rows


def _loop_window(y, u, k0: int, h: int, t: int, s: int) -> np.ndarray:
    """L[y, u] of the SISO window starting at k0."""
    rows_y, rows_u = _window_rows(h, t, s)
    return np.vstack([y[k0 + rows_y], u[k0 + rows_u]])


class _BatchFold:
    """The loop's running batch average and the model validated on it.

    Batch i is the window starting at i*s; it is folded in once its lead
    outputs exist.  A window is skipped when `invert_windows` drops it at the
    loop's cond_limit, or when its noise amplification 2 delta s max|alpha|
    exceeds batch_amplification_limit.
    """

    def __init__(self, cfg: DesignConfig, h: int, t: int, s: int, order: int):
        self.cfg, self.h, self.t, self.s, self.order = cfg, h, t, s, order
        self.G_sum = np.zeros(t)
        self.n_used = 0
        self.batches: list = []
        self.G_hat: Optional[MarkovMatrix] = None
        self.accepted: Optional[Realization] = None
        self.predictor: Optional[OutputPredictor] = None
        self.latest_J = 0.0

    def catch_up(self, ya, ua):
        """Fold in every batch whose window the outputs ya complete."""
        h, t, s = self.h, self.t, self.s
        while len(self.batches) * s + s + h + t <= len(ya):
            self._fold(ya, ua, len(self.batches) * s)

    def _fold(self, ya, ua, k0: int):
        cfg, h, t, s = self.cfg, self.h, self.t, self.s
        cond, ok, alpha = invert_windows(_loop_window(ya, ua, k0, h, t, s)[None], cfg.cond_limit)
        used, regime, J_b = bool(ok[0]), False, np.nan
        if used:
            alpha = alpha[0]
            amp = 2.0 * cfg.delta * s * float(np.abs(alpha).max())
            # skip windows whose noise amplification swamps the estimate
            used = amp <= cfg.batch_amplification_limit
        if used:
            lead = ya[k0 + h + t : k0 + h + t + s]
            self.G_sum += (lead @ alpha)[s - t :]
            self.n_used += 1
            # deviation statistics only where the first-order inverse
            # perturbation converges (Neumann-series validity)
            regime = amp <= 0.9
            if regime:
                J_b, _, _ = window_deviation(alpha, lead, h, t, cfg.delta)
                self.latest_J = J_b
        self.batches.append(
            BatchRecord(index=len(self.batches), G=self.G_sum / max(self.n_used, 1), J=J_b,
                        condition_number=float(cond[0]), used=used, regime=regime)
        )
        if not self.n_used:
            return
        self.G_hat = MarkovMatrix(G=(self.G_sum / self.n_used)[None, :], t=t)
        try:
            cand = ho_kalman(self.G_hat, self.order)
            pred = OutputPredictor(cand.A_hat, cand.B_hat, cand.C_hat, self.G_hat, h=h)
            if _validate_model(pred, ya, ua) < cfg.validation_tol:
                self.accepted, self.predictor = cand, pred
        except (SubvaridError, np.linalg.LinAlgError):
            pass


def _designed_input(cfg: DesignConfig, predictor: Optional[OutputPredictor], ya, ua,
                    interval, h: int, t: int, s: int) -> Optional[float]:
    """Designed u(tau), tau = len(ua) - 1, or None when the loop must fall back.

    u(tau) is the corner of the window starting at k0 = tau - (h+t+s-2), and
    ua[tau] holds its placeholder.  The deviation analysis is defined on the
    noise-free output; once a model exists, the design runs against its
    predicted window so the designed input does not chase the realized noise.
    """
    tau = len(ua) - 1
    k0 = tau - (h + t + s - 2)
    if k0 < 0:
        return None
    y_design = ya
    if predictor is not None and k0 >= h + t:
        future = np.concatenate([ua[k0:tau], [0.0]])
        y_design = np.concatenate([ya[: k0 + 1], predictor.predict(ya[: k0 + 1], ua[:k0], future)])
    try:
        part = partition_from_L(_loop_window(y_design, ua, k0, h, t, s), t)
        lead = y_design[k0 + h + t : k0 + h + t + s]
        if len(lead) < s:
            # y(tau+1) is still ahead: predict it, or repeat the last output
            last = predictor.predict(ya, ua[:tau], [0.0]) if predictor is not None else lead[-1:]
            lead = np.concatenate([lead, last])
        u_sets = [
            iv
            for cs in conditioning_u_sets(part, cfg)
            for iv in [_interval_intersect(cs, interval)]
            if iv is not None
        ]
        if not u_sets:
            return None
        probe = u_sets[0][1] if np.isfinite(u_sets[0][1]) else u_sets[0][0]
        form = build_scenarios(part, lead, h, t, cfg.delta, probe)
        return design_input_step(part, u_sets, form)
    except (NearSingularError, EstimationError, np.linalg.LinAlgError, DesignFailureError):
        return None


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

    Per iteration: fold in completed batches (re-estimating G and realizing
    (A, B, C)), bound the next input by the safety interval, design it (or
    draw it uniformly in `white` mode), apply it to the plant, and record
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
    if init_inputs is None:
        init_inputs = multitone_dither(window - 1, dither_amplitude, rng)
    init_len = len(init_inputs)
    if init_len < window - 1:
        raise ConfigurationError(f"initial sequence must hold >= {window - 1} inputs")
    horizon = cfg.horizon if cfg.horizon is not None else order

    # y(0..T) and u(0..T-1); u(T), the input being designed, is a 0.0 slot
    y_buf = np.empty(init_len + n_iterations + 1)
    u_buf = np.zeros(init_len + n_iterations + 1)
    y_buf[0] = plant.reset()
    for k, u0 in enumerate(init_inputs):
        u_buf[k] = float(u0)
        y_buf[k + 1] = plant.step(float(u0))

    fold = _BatchFold(cfg, h, t, s, order)
    iterations: list = []
    infeasible_events = violations = fallbacks = 0
    for it in range(n_iterations):
        tau = init_len + it  # time index of the input being designed
        ya, ua, u_hist = y_buf[: tau + 1], u_buf[: tau + 1], u_buf[:tau]
        fold.catch_up(ya, ua)
        predictor = fold.predictor
        violations += int(abs(float(ya[-1])) > cfg.y_M)

        # safety interval from the validated model; before one exists the
        # loop stays within the running system's own operating range
        interval, feasible = (-cfg.u_M, cfg.u_M), predictor is not None
        if predictor is not None:
            interval = safety_interval(predictor, cfg, horizon, ya, u_hist)
            if interval is None:
                infeasible_events += 1
                interval, feasible = (-cfg.u_M, cfg.u_M), False

        if mode == "white":
            draw = rng.uniform(-cfg.white_amplitude * cfg.u_M, cfg.white_amplitude * cfg.u_M)
            u_tau = float(min(max(draw, interval[0]), interval[1]))
        else:
            u_tau = _designed_input(cfg, predictor, ya, ua, interval, h, t, s)
            if u_tau is None:
                # no conditioning-feasible corner (often a degenerate window):
                # fall back to a random safe input so excitation recovers
                fallbacks += 1
                u_tau = float(rng.uniform(interval[0], interval[1]))

        y_pred = 0.0 if predictor is None else float(predictor.predict(ya, u_hist, [u_tau])[0])
        u_buf[tau] = u_tau
        y_buf[tau + 1] = plant.step(u_tau)
        dG = np.nan
        if G_star is not None and fold.G_hat is not None:
            dG = identification_error(fold.G_hat, G_star)
        iterations.append(
            IterationRecord(index=it, u=u_tau, y=float(y_buf[tau + 1]), y_pred=y_pred,
                            J=fold.latest_J, dG=dG, feasible=feasible)
        )

    end = init_len + n_iterations
    return IdentificationRun(
        iterations=iterations,
        batches=fold.batches,
        y=y_buf[: end + 1].copy(),
        u=u_buf[:end].copy(),
        G_hat=fold.G_hat,
        realization=fold.accepted,
        infeasible_events=infeasible_events,
        violations=violations,
        design_fallbacks=fallbacks,
        init_len=init_len,
    )
