"""Closed-loop input design minimizing the maximum identification deviation.

Each iteration designs the newest input sample, which sits at the bottom-right
corner of the current data window's L matrix.  The bordered-inverse identity
makes every entry of L^{-1} affine in u2 = (u - u0^T Y^{-1} y)^{-1}, where
L = [[Y, y], [u0^T, u]]; `BorderedPartition(L)` forms that affine map once per
window.  The deviation cost becomes a max of convex parabolas in u2.  That max
is minimized exactly over vertex and crossing candidates (the limit point of
the paper's diminishing-step gradient descent); the result is mapped back to u
and projected into the feasible set built from the safety bounds, the
one-window-ahead output prediction, and the conditioning constraints.

Input design is single-input (the corner of L is a scalar); identification of
multi-output data is supported elsewhere but not designed for.
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .deviation import window_deviation
from .errors import (
    ConfigurationError,
    DesignFailureError,
    EstimationError,
    NearSingularError,
    NumericOverflowError,
    PlantProtocolError,
    SubvaridError,
)
from .lti_core import (
    MarkovMatrix,
    NoiseSpec,
    StateSpaceModel,
    _as_2d,
    build_L,
    check_bound,
    extended_controllability,
    extended_observability,
    format_number,
    lead_outputs,
    parse_number,
    toeplitz_T,
    window_gather,
    write_csv,
)
from .subspace_id import (
    EstimatorConfig,
    batch_terms,
    ho_kalman,
    identification_error,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# the safety filter keeps every predicted |y| within KAPPA * y_M
KAPPA = 0.9
# a batch window whose L has a larger 2-norm condition number is skipped
LOOP_COND_LIMIT = 1e8
# a realized model is accepted below this relative one-step prediction error,
# taken over the last VALIDATION_STEPS one-step predictions
VALIDATION_TOL = 0.3
VALIDATION_STEPS = 12
# peak |u| of the multitone dither that fills the first window, as a share of u_M
DITHER_SHARE = 0.8
# an output beyond this multiple of y_M (or not finite) ends the loop as diverged
DIVERGENCE_FACTOR = 1e3


@dataclass
class DesignConfig:
    """The paper's bounds for the input-design loop.

    delta bounds the noise, y_M and u_M the outputs and inputs, and epsilon
    is the linearization tolerance.  The conditioning bound alpha_M is
    derived: sqrt(epsilon / delta) (inf at delta 0), the largest value that
    the linearization condition delta * alpha_M**2 <= epsilon allows.
    """

    delta: float = 0.05
    y_M: float = 100.0
    u_M: float = 10.0
    epsilon: float = 0.01

    def __post_init__(self):
        check_bound(self.delta, "noise bound delta")
        if not (0 < self.y_M < math.inf and 0 < self.u_M < math.inf):
            raise ConfigurationError(
                f"finite y_M, u_M above 0 required, got y_M {self.y_M} and u_M {self.u_M}")
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be finite and above 0, got {self.epsilon}")
        self.alpha_M = float(np.sqrt(self.epsilon / self.delta)) if self.delta > 0 else np.inf


# ---------------------------------------------------------------------------
# bordered inverse
# ---------------------------------------------------------------------------


class BorderedPartition:
    """Partition [[Y, y], [u0^T, u]] of a data window L with the corner free.

    Caches Y^{-1} products so the inverse for any corner value costs a rank-1
    update: alpha(u2) = base + u2 * outer with outer = np.outer(R1, R2), the
    rank-1 direction formed once, and u2 = 1/(u - c0).
    """

    def __init__(self, L):
        L = np.asarray(L, dtype=float)
        k = L.shape[0] - 1
        if L.shape != (k + 1, k + 1):
            raise ConfigurationError(f"a data window must be square, got shape {L.shape}")
        self.s = k + 1
        self.Y_inv = np.linalg.inv(L[:k, :k])
        y1 = self.Y_inv @ L[:k, k]
        w0 = L[k, :k] @ self.Y_inv
        self.c0 = float(L[k, :k] @ y1)
        self.R1 = np.concatenate([y1, [-1.0]])
        self.R2 = np.concatenate([w0, [-1.0]])
        self.base = np.zeros((k + 1, k + 1))
        self.base[:k, :k] = self.Y_inv
        self.outer = np.outer(self.R1, self.R2)

    def u2_of(self, u: float) -> float:
        denom = u - self.c0
        if abs(denom) < 1e-12 * max(1.0, abs(self.c0)):
            raise NearSingularError(
                f"corner value {u} makes the Schur complement vanish (c0={self.c0})"
            )
        return 1.0 / denom

    def alpha_of(self, u: float) -> np.ndarray:
        return self.base + self.u2_of(u) * self.outer


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

    def __init__(self, A_hat, B_hat, C_hat, G_hat: MarkovMatrix, h: int):
        self.h = h
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
        yw = np.asarray(y_history, dtype=float).ravel()
        un = np.asarray(u_next, dtype=float).ravel()
        uh = np.asarray(u_history, dtype=float).ravel()
        if len(uh) != len(yw) - 1:
            raise ConfigurationError(
                "u_history must lag y_history by exactly one sample"
            )
        if len(yw) < n + 1:
            raise ConfigurationError(f"windows must hold at least h+t+1={n + 1} outputs")
        z = np.concatenate([yw[-n:], uh[len(uh) - (n - 1) :], un])
        return self.prediction_map(len(un)) @ z

    def estimate_state(self, y, u, ends) -> np.ndarray:
        """States x(e-1), one row per window end e of the 1-D array ends.

        Each state is observed from the outputs y(e-h..e-1) through the
        observability map, less the inputs u(e-h..e-2) through T, and carried
        h-1 steps forward with those inputs.  All ends share one stacked
        product and one h-1 step recursion over the stack.
        """
        h, model = self.h, self.model
        ends = np.asarray(ends)
        if np.any(ends < h):
            raise ConfigurationError(f"a state window needs h={h} outputs before its end")
        ya, ua = _as_2d(y), _as_2d(u)
        c, r = len(ends), (h - 1) * ua.shape[1]
        steps = ends[:, None] + np.arange(-h, 0)
        Y = ya[steps].reshape(c, h * ya.shape[1])
        U = ua[steps[:, :-1]]
        X = (Y - U.reshape(c, r) @ self.T[:, :r].T) @ self.Oc_left.T
        for j in range(h - 1):
            X = X @ model.A.T + U[:, j] @ model.B.T
        return X


# ---------------------------------------------------------------------------
# safety filter
# ---------------------------------------------------------------------------


def _interval_intersect(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def _affine_interval(a: float, b: float, bound: float, current):
    """Intersect current interval with {u : |a + b u| <= bound}."""
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
    bound = KAPPA * cfg.y_M
    for a, b in zip(base.tolist(), slope.tolist()):
        interval = _affine_interval(a, b, bound, interval)
        if interval is None:
            return None
    if not pred.unstable.any():
        return interval
    x_now = pred.estimate_state(y_history, u_history, [len(y_history)])[0]
    return _unstable_mode_interval(pred, cfg, x_now, interval)


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
    if not math.isfinite(ds):
        return []  # the raw bound tends to 0 as ds grows: no inverse is within it
    # ds > 0 here: alpha_M is finite only at a delta above 0
    raw = (-1.0 + np.sqrt(1.0 + 4.0 * ds * a_lim)) / (2.0 * ds)
    # base is Y^{-1} bordered by zeros, so its largest |entry| is Y^{-1}'s
    if np.abs(partition.Y_inv).max() > raw:
        return []
    # the mask holds outer's corner entry R1[-1] R2[-1] = 1
    d = partition.outer.ravel()
    mask = np.abs(d) >= 1e-15
    b, d = partition.base.ravel()[mask], d[mask]
    lower, upper = (-raw - b) / d, (raw - b) / d
    lo = float(np.minimum(lower, upper).max())
    hi = float(np.maximum(lower, upper).min())
    if lo > hi:
        return []
    # map u2 interval [lo, hi] back to u
    c0 = partition.c0
    out = []
    if lo <= 0.0 <= hi:
        if hi > 0:
            out.append((c0 + 1.0 / hi, np.inf))
        if lo < 0:
            out.append((-np.inf, c0 + 1.0 / lo))
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
    a u2^2 + b u2 + d.  The coefficients are cached as arrays and once more
    as a list of (a, b, d) Python floats, on which the envelope runs: with a
    handful of scenarios, per-call numpy overhead would dominate.  The float
    envelope performs numpy's operations in numpy's order, so its values and
    its minimizer are those of the array form, bit for bit.
    """

    F_terms: np.ndarray  # (n_scenarios, r)
    c_terms: np.ndarray  # (n_scenarios, r)

    def __post_init__(self):
        self._a = np.einsum("ij,ij->i", self.F_terms, self.F_terms)
        self._b = 2.0 * np.einsum("ij,ij->i", self.F_terms, self.c_terms)
        self._d = np.einsum("ij,ij->i", self.c_terms, self.c_terms)
        self._abd = list(zip(self._a.tolist(), self._b.tolist(), self._d.tolist()))

    def value(self, u2: float) -> float:
        """max_k (a_k u2 + b_k) u2 + d_k; a NaN parabola makes it NaN, as np.max does."""
        top = -math.inf
        for a, b, d in self._abd:
            v = (a * u2 + b) * u2 + d
            if v > top:
                top = v
            elif v != v:
                return v
        return top

    def minimizer(self) -> float:
        """Exact argmin of J0 over u2.

        The max of convex parabolas is minimized at a vertex of one parabola
        or where two of them cross.  The candidates are the vertices of the
        curved rows, then every q / da and then every dd / q over the row
        pairs i < j in row-major order (the cancellation-free roots of
        da u^2 + db u + dd; da = 0 leaves the linear root -dd / db, which
        is dd / q); zero divisors and non-finite candidates are dropped.
        The first candidate of least value wins, and a NaN value wins at
        once, as with np.argmin.  With every a_k = 0 the cost is constant
        and 0.0 is returned.  When no candidate is finite (coefficients
        near 1e154 overflow), DesignFailureError: the loop falls back.
        """
        abd = self._abd
        cand = [-b / (2.0 * a) for a, b, _ in abd if a > 0]
        if not cand:
            return 0.0
        roots, recip = [], []
        for i, (ai, bi, di) in enumerate(abd):
            for aj, bj, dj in abd[i + 1:]:
                da, db, dd = ai - aj, bi - bj, di - dj
                disc = db * db - 4.0 * da * dd
                if disc >= 0:
                    q = -0.5 * (db + math.copysign(math.sqrt(disc), db))
                    if da != 0:
                        roots.append(q / da)
                    if q != 0:
                        recip.append(dd / q)
        best, best_v = None, math.inf
        for c in cand + roots + recip:
            if not math.isfinite(c):
                continue
            v = self.value(c)
            if v != v:
                return c
            if best is None or v < best_v:
                best, best_v = c, v
        if best is None:
            raise DesignFailureError("no finite candidate for the minimizer of J0")
        return best


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
    g_dL = (base.T @ lead) @ dL
    F1 = float(lead @ R1) * (R2 @ dL @ base)[sel]
    F2 = float(g_dL @ R1) * R2[sel]
    return F1, F2, (g_dL @ base)[sel]


# signs of dL in the two scenarios (w_star, +-dL)
_SCENARIO_SP = np.array([[1.0], [-1.0]])
_SCENARIO_SP.flags.writeable = False


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
    evaluated at the probe corner value: (w_star, dL) and (w_star, -dL).  Their
    negations give the same parabolas bit for bit and are left out.
    """
    s = partition.s
    alpha = partition.alpha_of(u_probe)
    _, w_star, p_star = window_deviation(alpha, lead, h, t, delta, n_starts=1)
    dL = p_star[window_gather(1, 1, h, t)]
    sel = slice(s - t, s)
    Fw, cw = _lead_noise_terms(partition, w_star, sel)
    F1, F2, cd = _data_noise_terms(partition, lead, dL, sel)
    # negation is exact, so each row equals the terms of the signed noise,
    # formed on their own, bit for bit
    sp = _SCENARIO_SP
    return CostAffineForm(F_terms=Fw - sp * F1 - sp * F2, c_terms=cw - sp * cd)


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
    if not u_intervals:
        raise DesignFailureError("empty feasible set handed to design_input_step")
    u2_opt = form.minimizer()

    candidates = []
    c0 = partition.c0
    if u2_opt != 0.0:
        u_free = c0 + 1.0 / u2_opt
        for lo, hi in u_intervals:
            if lo - 1e-12 <= u_free <= hi + 1e-12:
                candidates.append(min(max(u_free, lo), hi))
    for lo, hi in u_intervals:
        for edge in (lo, hi):
            if math.isfinite(edge):
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

    Process noise is injected at the input: for a controllable model an input
    perturbation reproduces the process noise's effect at the ends of each
    m-step window, which is all the window analysis sees.  Both channels
    share the bound of `noise`.  The state starts at zero, also at `reset`.
    """

    def __init__(self, model: StateSpaceModel, noise: NoiseSpec, rng: np.random.Generator):
        self.model = model
        self.noise = noise
        self.rng = rng
        self.x = np.zeros(model.m)

    def reset(self) -> float:
        self.x = np.zeros(self.model.m)
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

    Spawns `command` with its input and output on pipes.  The first line
    read (before any input is sent) is y(0).  A plant that exits, answers
    with anything but one finite number, or sends no line within
    READ_TIMEOUT_S seconds raises PlantProtocolError; a plant that timed out
    is killed and reaped first.  The output is read from the pipe's file
    descriptor into the object's own line buffer, so a line already buffered
    is returned without waiting on the descriptor.  close() ends the input
    and waits CLOSE_TIMEOUT_S seconds for the plant to exit, then kills it.
    """

    READ_TIMEOUT_S = 30.0
    CLOSE_TIMEOUT_S = 10.0

    def __init__(self, command):
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self._pending = b""  # bytes read from the plant past the last line returned

    def _readline(self) -> bytes:
        """Next line of the plant's output, or what is left of it at its end."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + self.READ_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    self.proc.kill()
                    self.proc.wait()
                    raise PlantProtocolError(
                        f"plant sent no line within {self.READ_TIMEOUT_S:g} s (process killed)"
                    )
                chunk = os.read(fd, 65536)
                if not chunk:
                    line, self._pending = self._pending, b""
                    return line
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line + b"\n"

    def _read(self) -> float:
        line = self._readline().decode(errors="replace")
        if not line:
            raise PlantProtocolError("plant closed its output (process exited)")
        y = parse_number(line)
        if y is None:
            raise PlantProtocolError(f"plant sent a non-numeric line {line!r}")
        if not math.isfinite(y):
            raise PlantProtocolError(f"plant sent a non-finite value {line!r}")
        return y

    def reset(self) -> float:
        return self._read()

    def step(self, u: float) -> float:
        try:
            self.proc.stdin.write(format_number(u) + "\n")
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
class BatchRecord:
    G: np.ndarray
    J: float
    condition_number: float
    used: bool
    regime: bool = True


@dataclass
class IdentificationRun:
    """Complete record of one closed-loop identification run.

    `y` holds y(0..T) and `u` holds u(0..T-1), with T = init_len + n and n
    iterations.  Iteration i applies u(init_len+i) and observes
    y(init_len+i+1); its one-step prediction (0.0 without a model), the J
    of the last regime batch folded before it, the running dG and whether
    its safety interval came from a model are entry i of `y_pred`, `J`, `dG`
    and `feasible`.
    `violations` counts the outputs of the loop's own inputs with |y| > y_M.
    """

    batches: list
    y: np.ndarray
    u: np.ndarray
    y_pred: np.ndarray
    J: np.ndarray
    dG: np.ndarray
    feasible: np.ndarray
    infeasible_events: int
    violations: int
    design_fallbacks: int
    init_len: int

    def to_csv(self, path) -> None:
        k = self.init_len
        write_csv(path, ["iter", "u", "y", "yhat", "J", "dG", "feasible"],
                  ([i, self.u[k + i], self.y[k + i + 1], self.y_pred[i], self.J[i],
                    self.dG[i], int(self.feasible[i])] for i in range(len(self.J))))


def multitone_dither(length: int, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Random-phase multitone excitation normalized to the given amplitude."""
    freqs = np.array([0.031, 0.073, 0.107, 0.149, 0.285, 0.331, 0.389, 0.433, 0.471])
    phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
    k = np.arange(length)
    u = np.cos(2.0 * np.pi * freqs[:, None] * k[None, :] + phases[:, None]).sum(axis=0)
    peak = np.abs(u).max()
    return amplitude * u / peak if peak > 0 else u


def _validate_model(pred: OutputPredictor, y, u) -> float:
    """Relative one-step prediction error of a candidate model's predictor.

    Checks the last VALIDATION_STEPS one-step predictions, or as many as a
    short history holds (the earliest state window starts at y(0)).  One stacked
    `estimate_state` call gives x(e-1) at every checked end e; each state
    is advanced once more with u(e-1) to predict y(e).
    """
    model, h = pred.model, pred.h
    scale = max(float(np.abs(y[-(VALIDATION_STEPS + h + 1):]).max()), 1.0)
    ends = np.arange(max(len(y) - VALIDATION_STEPS, h), len(y))
    X = pred.estimate_state(y, u, ends)
    y_next = (X @ model.A.T + _as_2d(u)[ends - 1] @ model.B.T) @ model.C[0]
    return float(np.mean(np.abs(y_next - _as_2d(y)[ends, 0]))) / scale


class _BatchFold:
    """The loop's running batch average and the model validated on it.

    Batch i is the window starting at i*s; it is folded in once its lead
    outputs exist.  `batch_terms` skips a window beyond the loop's
    LOOP_COND_LIMIT, or whose noise amplification 2 delta s max|alpha| is too
    large.  The loop never reads a batch's deviation J, so the fold keeps
    each regime batch's window and `regime_deviations` solves them all in one
    stack once the loop ends.
    """

    def __init__(self, cfg: DesignConfig, h: int, t: int, s: int, order: int):
        self.cfg, self.h, self.t, self.s, self.order = cfg, h, t, s, order
        self.G_sum = np.zeros(t)
        self.n_used = 0
        self.batches: list = []
        self.G_hat: Optional[MarkovMatrix] = None
        self.predictor: Optional[OutputPredictor] = None
        self.regime_windows: list = []  # (BatchRecord, alpha, lead) of each regime batch

    def catch_up(self, ya, ua):
        """Fold in every batch whose window the outputs ya complete."""
        h, t, s = self.h, self.t, self.s
        while len(self.batches) * s + s + h + t <= len(ya):
            self._fold(ya, ua, len(self.batches) * s)

    def _fold(self, ya, ua, k0: int):
        h, t, s = self.h, self.t, self.s
        cond, reason, amp, alpha, lead, term = batch_terms(
            ya, ua, np.array([k0]), h, t, LOOP_COND_LIMIT, 2.0 * self.cfg.delta * s)
        used = bool(reason[0] == "used")
        if used:
            self.G_sum += term[0, 0]
            self.n_used += 1
        # deviation statistics only where the first-order inverse
        # perturbation converges (Neumann-series validity)
        regime = used and bool(amp[0] <= 0.9)
        record = BatchRecord(G=self.G_sum / max(self.n_used, 1), J=np.nan,
                             condition_number=float(cond[0]), used=used, regime=regime)
        self.batches.append(record)
        if regime:
            self.regime_windows.append((record, alpha[0], lead[0, 0]))
        if not self.n_used:
            return
        self.G_hat = MarkovMatrix(G=(self.G_sum / self.n_used)[None, :], t=t)
        try:
            cand = ho_kalman(self.G_hat, self.order)
            pred = OutputPredictor(cand.A_hat, cand.B_hat, cand.C_hat, self.G_hat, h=h)
            if _validate_model(pred, ya, ua) < VALIDATION_TOL:
                self.predictor = pred
        except (SubvaridError, np.linalg.LinAlgError):
            pass

    def regime_deviations(self) -> list:
        """J of each regime batch in fold order, also written to its BatchRecord.

        One five-start `window_deviation` call over the stack of kept
        windows gives each window's J, bit for bit as on the window alone.
        """
        if not self.regime_windows:
            return []
        records, alphas, leads = zip(*self.regime_windows)
        J, _, _ = window_deviation(np.stack(alphas), np.stack(leads), self.h, self.t,
                                   self.cfg.delta)
        J = J.tolist()
        for record, J_b in zip(records, J):
            record.J = J_b
        return J


def _designed_input(cfg: DesignConfig, predictor: Optional[OutputPredictor], ya, ua,
                    interval, h: int, t: int, s: int) -> Optional[float]:
    """Designed u(tau), tau = len(ua) - 1, or None when the loop must fall back.

    u(tau) is the corner of the window starting at k0 = tau - (h+t+s-2), and
    ua[tau] holds its placeholder.  The deviation analysis is defined on the
    noise-free output; once a model exists, the design runs against its
    predicted window so the designed input does not chase the realized noise.
    """
    tau = len(ua) - 1
    k0 = tau - (h + t + s - 2)  # >= 1: the loop designs from tau = init_len = s + h + t - 1
    y_design = ya
    if predictor is not None and k0 >= h + t:
        future = np.concatenate([ua[k0:tau], [0.0]])
        y_design = np.concatenate([ya[: k0 + 1], predictor.predict(ya[: k0 + 1], ua[:k0], future)])
    try:
        if len(y_design) == tau + 1:
            # the lead ends at y(tau+1), still ahead: predict it, or repeat the last output
            last = predictor.predict(ya, ua[:tau], [0.0]) if predictor is not None else ya[-1:]
            y_design = np.concatenate([ya, last])
        part = BorderedPartition(build_L(y_design, ua, k0, h, t))
        lead = lead_outputs(y_design, k0, h, t, s)[0]
        u_sets = [iv for cs in conditioning_u_sets(part, cfg)
                  if (iv := _interval_intersect(cs, interval)) is not None]
        if not u_sets:
            return None
        probe = u_sets[0][1] if math.isfinite(u_sets[0][1]) else u_sets[0][0]
        form = build_scenarios(part, lead, h, t, cfg.delta, probe)
        return design_input_step(part, u_sets, form)
    except (NearSingularError, np.linalg.LinAlgError, DesignFailureError):
        return None


def run_closed_loop(
    plant,
    cfg: DesignConfig,
    est_cfg: EstimatorConfig,
    n_iterations: int,
    order: int,
    mode: str = "designed",
    *,
    rng: np.random.Generator,
    G_star: Optional[MarkovMatrix] = None,
    dither_rng: Optional[np.random.Generator] = None,
) -> IdentificationRun:
    """Run Algorithm-1 style closed-loop identification for n_iterations.

    Per iteration: fold in completed batches (re-estimating G and realizing
    (A, B, C)), bound the next input by the safety interval, design it (or
    draw it uniformly in `white` mode), apply it to the plant, and fill the
    iteration's columns of the run.  The first window, window - 1 inputs, is
    a multitone dither of peak DITHER_SHARE * u_M drawn from dither_rng (rng
    when None), so every applied input keeps |u| <= u_M.  The settings are
    checked before the plant is driven: the realization needs order >= 1 and
    t >= 2 order Markov blocks.  An output that is not finite or passes
    DIVERGENCE_FACTOR * y_M raises NumericOverflowError.  Each regime
    batch's J is solved once the loop ends, and the violations are counted
    over y(init_len+1) ... y(T), the outputs of the loop's own inputs.  dG
    stays nan without G_star.
    """
    if mode not in ("designed", "white"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if order < 1 or est_cfg.t < 2 * order:
        raise ConfigurationError(f"the realization needs 1 <= order and t >= 2 order "
                                 f"Markov blocks, got order {order} and t = {est_cfg.t}")
    if n_iterations < 0:
        raise ConfigurationError(f"iteration count must be >= 0, got {n_iterations}")
    h, t = est_cfg.h, est_cfg.t
    s = est_cfg.s(1, 1)
    init_len = s + h + t - 1  # the first window's inputs
    dither = multitone_dither(init_len, DITHER_SHARE * cfg.u_M, dither_rng or rng)

    # y(0..T) and u(0..T-1); u(T), the input being designed, is a 0.0 slot
    y_buf = np.empty(init_len + n_iterations + 1)
    u_buf = np.zeros(init_len + n_iterations + 1)
    y_buf[0] = plant.reset()
    for k, u0 in enumerate(dither):
        u_buf[k] = float(u0)
        y_buf[k + 1] = plant.step(float(u0))

    y_limit = DIVERGENCE_FACTOR * cfg.y_M
    fold = _BatchFold(cfg, h, t, s, order)
    dG_of = None  # dG changes only when a fold replaces G_hat
    y_pred, dG = np.zeros(n_iterations), np.full(n_iterations, np.nan)
    feasible = np.zeros(n_iterations, dtype=bool)
    n_regime = np.zeros(n_iterations, dtype=int)  # regime batches folded before each iteration
    infeasible_events = fallbacks = 0
    for it in range(n_iterations):
        tau = init_len + it  # time index of the input being designed
        ya, ua, u_hist = y_buf[: tau + 1], u_buf[: tau + 1], u_buf[:tau]
        fold.catch_up(ya, ua)
        n_regime[it] = len(fold.regime_windows)
        predictor = fold.predictor

        # safety interval from the validated model; before one exists the
        # loop stays within the running system's own operating range
        interval, feasible[it] = (-cfg.u_M, cfg.u_M), predictor is not None
        if predictor is not None:
            interval = safety_interval(predictor, cfg, order, ya, u_hist)
            if interval is None:
                infeasible_events += 1
                interval, feasible[it] = (-cfg.u_M, cfg.u_M), False

        if mode == "white":
            draw = rng.uniform(-cfg.u_M, cfg.u_M)
            u_tau = float(min(max(draw, interval[0]), interval[1]))
        else:
            u_tau = _designed_input(cfg, predictor, ya, ua, interval, h, t, s)
            if u_tau is None:
                # no conditioning-feasible corner (often a degenerate window):
                # fall back to a random safe input so excitation recovers
                fallbacks += 1
                u_tau = float(rng.uniform(interval[0], interval[1]))

        if predictor is not None:
            y_pred[it] = predictor.predict(ya, u_hist, [u_tau])[0]
        u_buf[tau] = u_tau
        y_buf[tau + 1] = plant.step(u_tau)
        if not abs(y_buf[tau + 1]) <= y_limit:  # also refuses nan
            raise NumericOverflowError(
                f"the loop diverged: the output at iteration {it}, {y_buf[tau + 1]:.4g}, is "
                f"not within {DIVERGENCE_FACTOR:g} y_M = {y_limit:.4g}")
        if G_star is not None and fold.G_hat is not dG_of:
            dG_of = fold.G_hat
            dG[it:] = identification_error(dG_of, G_star)

    return IdentificationRun(
        batches=fold.batches,
        y=y_buf,
        u=u_buf[: init_len + n_iterations],
        y_pred=y_pred,
        # each iteration reports the J of the last regime batch folded before it
        J=np.array([0.0, *fold.regime_deviations()])[n_regime],
        dG=dG,
        feasible=feasible,
        infeasible_events=infeasible_events,
        violations=int(np.count_nonzero(np.abs(y_buf[init_len + 1:]) > cfg.y_M)),
        design_fallbacks=fallbacks,
        init_len=init_len,
    )
