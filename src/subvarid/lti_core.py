"""State-space models, simulation, and block-Hankel constructions.

Everything downstream (estimation, deviation analysis, input design) is built
on the windows and structured matrices defined here.  Time indexing is 0-based
throughout; the 1-based block formulas from the literature are translated in
`build_hankel` and `build_L`.  Three index-arithmetic copies of the same L
layout exist for speed and must change with it: `subspace_id._stacked_windows`
(stacked windows of the batched estimator), `input_design._loop_window` (the
closed loop's SISO window) and `deviation._noise_band` (where each noise
sample sits in L).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    NumericOverflowError,
    OutOfRangeError,
)

DEFAULT_COND_LIMIT = 1e12


def _as_2d(signal: np.ndarray) -> np.ndarray:
    """Normalize a signal to shape (T, dim); 1-D input becomes (T, 1)."""
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ConfigurationError(f"signal must be 1-D or 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete LTI model x(k+1) = A x(k) + B u(k) + v(k), y(k) = C x(k) + w(k)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if B.shape[0] != A.shape[0] and B.shape[1] == A.shape[0]:
            B = B.T
        if C.shape[1] != A.shape[0] and C.shape[0] == A.shape[0]:
            C = C.T
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        if A.shape[0] != A.shape[1]:
            raise ConfigurationError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ConfigurationError(f"B rows {B.shape[0]} != state dim {A.shape[0]}")
        if C.shape[1] != A.shape[0]:
            raise ConfigurationError(f"C cols {C.shape[1]} != state dim {A.shape[0]}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def n(self) -> int:
        return self.C.shape[0]

    def controllability_matrix(self) -> np.ndarray:
        """[B, AB, ..., A^{m-1}B], shape (m, m*p)."""
        blocks = []
        Ak = np.eye(self.m)
        for _ in range(self.m):
            blocks.append(Ak @ self.B)
            Ak = self.A @ Ak
        return np.hstack(blocks)

    def observability_matrix(self) -> np.ndarray:
        """[C; CA; ...; CA^{m-1}], shape (m*n, m)."""
        return extended_observability(self, self.m)

    def is_minimal(self, tol: float = 1e-9) -> bool:
        rc = np.linalg.matrix_rank(self.controllability_matrix(), tol=tol)
        ro = np.linalg.matrix_rank(self.observability_matrix(), tol=tol)
        return rc == self.m and ro == self.m

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "m": self.m,
            "n": self.n,
            "p": self.p,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StateSpaceModel":
        return cls(
            A=np.asarray(data["A"], dtype=float),
            B=np.asarray(data["B"], dtype=float),
            C=np.asarray(data["C"], dtype=float),
        )

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source) -> "StateSpaceModel":
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            text = str(source)
            if text.lstrip().startswith("{"):
                data = json.loads(text)
            else:
                with open(text) as fh:
                    data = json.load(fh)
        return cls.from_dict(data)


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded zero-mean i.i.d. noise description.

    `delta` bounds every component in infinity norm.  `kind` selects uniform
    on [-delta, delta] or a zero-mean Gaussian truncated to the same box
    (sigma = delta/2, symmetric rejection so the mean stays zero).
    """

    delta: float
    kind: str = "uniform"

    def __post_init__(self):
        if self.delta < 0:
            raise ConfigurationError("noise bound delta must be >= 0")
        if self.kind not in ("uniform", "gaussian-truncated"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.delta == 0:
            return np.zeros(shape)
        if self.kind == "uniform":
            return rng.uniform(-self.delta, self.delta, size=shape)
        sigma = self.delta / 2.0
        out = rng.normal(0.0, sigma, size=shape)
        bad = np.abs(out) > self.delta
        while bad.any():
            out[bad] = rng.normal(0.0, sigma, size=int(bad.sum()))
            bad = np.abs(out) > self.delta
        return out


@dataclass
class SignalLog:
    """Aligned input/output (and optionally state and noise) sequences.

    y[k] is the output produced by the model recursion under u[0..k-1]; x has
    one extra row holding the terminal state.
    """

    u: np.ndarray
    y: np.ndarray
    x: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    t0: int = 0

    def __post_init__(self):
        self.u = _as_2d(self.u)
        self.y = _as_2d(self.y)
        if len(self.u) != len(self.y):
            raise ConfigurationError("u and y must have the same length")
        for name in ("u", "y", "x", "v", "w"):
            val = getattr(self, name)
            if val is not None and not np.all(np.isfinite(val)):
                raise ConfigurationError(f"non-finite values in {name}")

    def __len__(self) -> int:
        return len(self.u)

    def to_csv(self, path) -> None:
        """Write `k,u_1..u_p,y_1..y_n` rows."""
        p = self.u.shape[1]
        n = self.y.shape[1]
        header = ["k"] + [f"u_{i+1}" for i in range(p)] + [f"y_{i+1}" for i in range(n)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(len(self)):
                writer.writerow(
                    [self.t0 + k]
                    + [format(v, ".17g") for v in self.u[k]]
                    + [format(v, ".17g") for v in self.y[k]]
                )

    @classmethod
    def from_csv(cls, path) -> "SignalLog":
        """Read k,u_*,y_* rows; a missing or non-numeric cell is a ConfigurationError."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigurationError(f"{path}: empty file, expected a k,u_*,y_* header")
            p = sum(1 for h in header if h.startswith("u_"))
            n = sum(1 for h in header if h.startswith("y_"))
            rows = [(reader.line_num, row) for row in reader if row]
        if not rows:
            return cls(u=np.zeros((0, p)), y=np.zeros((0, n)))
        width = 1 + p + n
        try:
            data = np.array([[float(v) for v in row[:width]] for _, row in rows])
        except ValueError:
            raise ConfigurationError(_bad_csv_cell(path, header[:width], rows)) from None
        return cls(u=data[:, 1 : 1 + p].copy(), y=data[:, 1 + p :].copy(), t0=int(data[0, 0]))


def _bad_csv_cell(path, columns, rows) -> str:
    """Name the first short row or non-numeric cell of a signal CSV."""
    for line, row in rows:
        if len(row) < len(columns):
            return f"{path}: line {line} has {len(row)} cells, expected {len(columns)}"
        for column, cell in zip(columns, row):
            try:
                float(cell)
            except ValueError:
                return f"{path}: line {line}, column {column!r}: non-numeric value {cell!r}"
    return f"{path}: unreadable signal rows"


@dataclass(frozen=True)
class HankelBlock:
    """Block Hankel matrix with its defining window parameters."""

    data: np.ndarray
    k: int
    h: int
    s: int


@dataclass(frozen=True)
class MarkovMatrix:
    """Extended Markov parameter matrix G(t) = [CA^{t-1}B, ..., CAB, CB]."""

    G: np.ndarray
    t: int

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        object.__setattr__(self, "G", G)
        if self.t < 1 or G.shape[1] % self.t != 0:
            raise ConfigurationError(
                f"G with {G.shape[1]} columns cannot hold {self.t} equal blocks"
            )

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[1] // self.t

    def block(self, j: int) -> np.ndarray:
        """Block j (0-based from the left), i.e. C A^{t-1-j} B."""
        if not 0 <= j < self.t:
            raise OutOfRangeError(f"block index {j} outside 0..{self.t - 1}")
        return self.G[:, j * self.p : (j + 1) * self.p]

    def markov_parameter(self, i: int) -> np.ndarray:
        """C A^{i-1} B for i = 1..t (impulse-response ordering)."""
        return self.block(self.t - i)


def simulate(
    model: StateSpaceModel,
    x0,
    U,
    noise: Optional[NoiseSpec] = None,
    V=None,
    W=None,
    rng: Optional[np.random.Generator] = None,
    keep_state: bool = True,
) -> SignalLog:
    """Simulate the model forward under inputs U.

    Parameters
    ----------
    x0 : initial state, length m.
    U : input sequence, shape (T, p) or (T,) for single-input models.
    noise : NoiseSpec to sample v, w from; mutually exclusive with V/W.
    V, W : explicit process/output noise sequences (T, m) and (T, n).
    rng : generator used when `noise` is given.

    Returns a SignalLog with y[k] = C x(k) + w(k) for k = 0..T-1; the state
    trajectory (including the terminal state) is retained when requested.
    """
    U = _as_2d(U)
    T = len(U)
    if T < 1:
        raise ConfigurationError("input sequence must contain at least one sample")
    if U.shape[1] != model.p:
        raise ConfigurationError(f"input dim {U.shape[1]} != model p {model.p}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.m:
        raise ConfigurationError(f"x0 length {x0.shape[0]} != model m {model.m}")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("x0 must be finite")

    if noise is not None and (V is not None or W is not None):
        raise ConfigurationError("pass either a NoiseSpec or explicit V/W, not both")
    if noise is not None:
        if rng is None:
            rng = np.random.default_rng()
        V = noise.sample(rng, (T, model.m))
        W = noise.sample(rng, (T, model.n))
    else:
        V = np.zeros((T, model.m)) if V is None else _as_2d(V)
        W = np.zeros((T, model.n)) if W is None else _as_2d(W)
    if V.shape != (T, model.m) or W.shape != (T, model.n):
        raise ConfigurationError("noise sequences must match (T, m) and (T, n)")

    xs = np.empty((T + 1, model.m))
    ys = np.empty((T, model.n))
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            xs[k] = x
            ys[k] = model.C @ x + W[k]
            x = model.A @ x + model.B @ U[k] + V[k]
        xs[T] = x
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise NumericOverflowError(
            "simulation produced non-finite values (unstable plant with unbounded input?)"
        )
    return SignalLog(u=U, y=ys, x=xs if keep_state else None, v=V, w=W)


def build_hankel(signal, k: int, h: int, s: int) -> HankelBlock:
    """Block Hankel matrix of `h` block rows and `s` columns starting at k.

    Block (i, j), 0-based, holds the signal value at time k + i + j, so the
    data must cover indices k .. k+h+s-2.
    """
    sig = _as_2d(signal)
    if h < 1 or s < 1:
        raise ConfigurationError("h and s must be positive")
    if k < 0 or k + h + s - 1 > len(sig):
        raise OutOfRangeError(
            f"signal of length {len(sig)} does not cover window {k}..{k + h + s - 2}"
        )
    dim = sig.shape[1]
    data = np.empty((h * dim, s))
    for i in range(h):
        data[i * dim : (i + 1) * dim, :] = sig[k + i : k + i + s].T
    return HankelBlock(data=data, k=k, h=h, s=s)


def build_L(y, u, k: int, h: int, t: int) -> np.ndarray:
    """Square data matrix stacking H_y(k;h;s) over H_u(k;h+t;s), s = h*n+(h+t)*p."""
    ya = _as_2d(y)
    ua = _as_2d(u)
    n, p = ya.shape[1], ua.shape[1]
    s = h * n + (h + t) * p
    Hy = build_hankel(ya, k, h, s).data
    Hu = build_hankel(ua, k, h + t, s).data
    return np.vstack([Hy, Hu])


def window_size(h: int, t: int, n: int, p: int) -> int:
    """s = h*n + (h+t)*p."""
    return h * n + (h + t) * p


def lead_outputs(y, k: int, h: int, t: int, s: int) -> np.ndarray:
    """Output matrix Y(k+h+t; s): columns y(k+h+t) .. y(k+h+t+s-1), shape (n, s)."""
    ya = _as_2d(y)
    start = k + h + t
    if start + s > len(ya):
        raise OutOfRangeError(
            f"signal of length {len(ya)} does not cover lead window {start}..{start + s - 1}"
        )
    return ya[start : start + s].T


def markov_true(model: StateSpaceModel, t: int) -> MarkovMatrix:
    """Exact G(t) = [CA^{t-1}B, ..., CAB, CB] from the model matrices."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    blocks = []
    CAk = model.C
    for _ in range(t):
        blocks.append(CAk @ model.B)
        CAk = CAk @ model.A
    return MarkovMatrix(G=np.hstack(blocks[::-1]), t=t)


def extended_observability(model: StateSpaceModel, h: int) -> np.ndarray:
    """O_c(h) = [C; CA; ...; CA^{h-1}], shape (h*n, m)."""
    if h < 1:
        raise ConfigurationError("h must be >= 1")
    rows = []
    CAk = model.C
    for _ in range(h):
        rows.append(CAk)
        CAk = CAk @ model.A
    return np.vstack(rows)


def extended_controllability(model: StateSpaceModel, h: int) -> np.ndarray:
    """O_b(h) = [A^{h-1}B, ..., AB, B], shape (m, h*p)."""
    if h < 1:
        raise ConfigurationError("h must be >= 1")
    blocks = []
    AkB = model.B
    for _ in range(h):
        blocks.append(AkB)
        AkB = model.A @ AkB
    return np.hstack(blocks[::-1])


def toeplitz_T(model: StateSpaceModel, h: int) -> np.ndarray:
    """Lower block-triangular T(h) with zero diagonal blocks, (h*n, h*p).

    Block (i, j) for i > j equals C A^{i-j-1} B, so that
    Y(k;h) = O_c(h) x(k) + T(h) U(k;h) for noise-free data.
    """
    if h < 1:
        raise ConfigurationError("h must be >= 1")
    n, p = model.n, model.p
    markov = []
    CAk = model.C
    for _ in range(max(h - 1, 0)):
        markov.append(CAk @ model.B)
        CAk = CAk @ model.A
    T = np.zeros((h * n, h * p))
    for i in range(h):
        for j in range(i):
            T[i * n : (i + 1) * n, j * p : (j + 1) * p] = markov[i - j - 1]
    return T

