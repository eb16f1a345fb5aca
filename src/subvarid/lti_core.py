"""State-space models, simulation, and the data-window layout.

Everything downstream (estimation, deviation analysis, input design) is built
on the windows and structured matrices defined here.  Time indexing is 0-based
throughout; the 1-based block formulas from the literature are translated in
`window_gather`.  That table is the one record of where each sample of a
window's sample vector sits in L[y, u]: `build_L` (one window, the closed
loop's window, or the batched estimator's stack of windows) and the
deviation engine's noise band all gather through it.  The package's text
format for numbers lives here too: `write_csv` and `format_number` out,
`parse_number` in.
"""

from __future__ import annotations

import csv
import functools
import json
import reprlib
import warnings
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

    def is_minimal(self, tol: float = 1e-9) -> bool:
        rc = np.linalg.matrix_rank(extended_controllability(self, self.m), tol=tol)
        ro = np.linalg.matrix_rank(extended_observability(self, self.m), tol=tol)
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
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a model must be a JSON object with keys A, B and C, got {type(data).__name__}"
            )
        missing = [key for key in "ABC" if key not in data]
        if missing:
            raise ConfigurationError(f"model lacks {' and '.join(missing)}")
        matrices = {}
        for key in "ABC":
            try:
                matrices[key] = value = np.asarray(data[key], dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(
                    f"model matrix {key} is not a rectangular array of numbers: {exc}"
                ) from exc
            if value.ndim > 2 or not np.all(np.isfinite(value)):
                raise ConfigurationError(
                    f"model matrix {key} must be finite with at most 2 dimensions, "
                    f"got shape {value.shape}"
                )
            # dtype=float also reads the text "1_0" as 10 and a JSON true as 1
            bad = [e for e in np.asarray(data[key], dtype=object).flat
                   if type(e) not in (int, float)]
            if bad:
                raise ConfigurationError(
                    f"model matrix {key} holds {reprlib.repr(bad[0])}, not a JSON number")
        return cls(**matrices)

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, path) -> "StateSpaceModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


BOUND_MAX = np.finfo(float).max / 2  # a box [-b, b] of this half-width has a finite range


def check_bound(value, name: str) -> None:
    """Refuse a bound that is not a number in [0, BOUND_MAX]; name is its flag or setting."""
    if not 0 <= value <= BOUND_MAX:  # also refuses nan
        raise ConfigurationError(f"{name} must be in [0, {BOUND_MAX:.4g}], got {value}")


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
        check_bound(self.delta, "noise bound delta")
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


def format_number(value) -> str:
    """The text the package writes for a float: 17 significant digits, which
    `parse_number` reads back to the same float; nan and inf as such."""
    return format(value, ".17g")


def parse_number(text: str) -> Optional[float]:
    """The float one CSV cell or plant line holds, or None: the grammar of
    `np.loadtxt`, Python's `float` of the stripped text without digit-group
    underscores (`1_5`) and non-ASCII digits."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def write_csv(path, header, rows) -> None:
    """Write a header and rows; float cells (float or np.floating) as `format_number`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_number(v) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


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
        p, n = self.u.shape[1], self.y.shape[1]
        header = ["k"] + [f"u_{i+1}" for i in range(p)] + [f"y_{i+1}" for i in range(n)]
        write_csv(path, header, ([self.t0 + k, *self.u[k], *self.y[k]] for k in range(len(self))))

    @classmethod
    def from_csv(cls, path) -> "SignalLog":
        """Read the `k,u_1..u_p,y_1..y_n` rows that `to_csv` writes.

        The header is csv-parsed and its u_*/y_* columns counted; its first
        1+p+n cells must then read exactly k,u_1..u_p,y_1..y_n, since the
        columns are read by position.  The data rows are parsed in one
        `np.loadtxt` call, which skips blank lines, honours quoted cells and
        ignores cells past y_n.  A header without u_* or y_* columns or out of
        that order, a short row, a cell that `parse_number` refuses and a
        non-finite cell are ConfigurationErrors.
        """
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header is None:
            raise ConfigurationError(f"{path}: empty file, expected a k,u_*,y_* header")
        p = sum(1 for h in header if h.startswith("u_"))
        n = sum(1 for h in header if h.startswith("y_"))
        expected = ["k"] + [f"u_{i + 1}" for i in range(p)] + [f"y_{i + 1}" for i in range(n)]
        width = len(expected)
        if p == 0 or n == 0 or header[:width] != expected:
            want = ",".join(expected) if p and n else "k,u_1..u_p,y_1..y_n with p, n >= 1"
            raise ConfigurationError(
                f"{path}: header {','.join(header)!r} has {p} u_* and {n} y_* columns, "
                f"expected it to begin {want}"
            )
        try:
            with warnings.catch_warnings():
                # a header-only file is an empty log, not a warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                                  usecols=range(width), ndmin=2, quotechar='"')
        except ValueError:
            data = None
        if data is None or not np.isfinite(data).all():
            raise ConfigurationError(_bad_csv_cell(path, header[:width]))
        if len(data) == 0:
            return cls(u=np.zeros((0, p)), y=np.zeros((0, n)))
        return cls(u=data[:, 1 : 1 + p].copy(), y=data[:, 1 + p :].copy(), t0=int(data[0, 0]))


def _bad_csv_cell(path, columns) -> str:
    """Name the first short row, refused cell or non-finite cell of a signal CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) < len(columns):
                return f"{where} has {len(row)} cells, expected {len(columns)}"
            for column, cell in zip(columns, row):
                value = parse_number(cell)
                if value is None:
                    return f"{where}, column {column!r}: non-numeric value {cell!r}"
                if not np.isfinite(value):
                    return f"{where}, column {column!r}: non-finite value {cell!r}"
    return f"{path}: unreadable signal rows"


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
    rng: Optional[np.random.Generator] = None,
) -> SignalLog:
    """Simulate the model forward under inputs U.

    Parameters
    ----------
    x0 : initial state, length m.
    U : input sequence, shape (T, p) or (T,) for single-input models.
    noise : NoiseSpec to sample the process and output noise v, w from;
        without it both are zero.
    rng : generator to draw the noise from; required when `noise` is given.

    Returns a SignalLog with y[k] = C x(k) + w(k) for k = 0..T-1 and the
    state trajectory, including the terminal state.
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

    if noise is None:
        V, W = np.zeros((T, model.m)), np.zeros((T, model.n))
    else:
        if rng is None:
            raise ConfigurationError("a noise draw needs a seeded generator rng")
        V = noise.sample(rng, (T, model.m))
        W = noise.sample(rng, (T, model.n))

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
    return SignalLog(u=U, y=ys, x=xs, v=V, w=W)


def window_size(h: int, t: int, n: int, p: int) -> int:
    """s = h*n + (h+t)*p."""
    return h * n + (h + t) * p


@functools.lru_cache(maxsize=None)
def window_gather(n: int, p: int, h: int, t: int) -> np.ndarray:
    """Read-only (s, s) table G with L[y, u] = z[G] for one window.

    z is the window's sample vector
    [y_1(k..k+h+s-2), ..., y_n(...), u_1(k..k+h+t+s-2), ..., u_p(...)].
    L stacks the h block rows of outputs over the h+t block rows of inputs;
    block row br, component comp, column col holds the sample at time
    k + br + col.  Every sample of z appears in G, and G[-1, -1] is the
    last one, so a window holds G[-1, -1] + 1 samples.
    """
    if h < 1 or t < 0:
        raise ConfigurationError(f"need h >= 1 and t >= 0, got h={h}, t={t}")
    s = window_size(h, t, n, p)
    col = np.arange(s)
    br_y, comp_y = np.divmod(np.arange(h * n), n)
    br_u, comp_u = np.divmod(np.arange((h + t) * p), p)
    G = np.vstack([
        (comp_y * (h + s - 1) + br_y)[:, None] + col,
        (n * (h + s - 1) + comp_u * (h + t + s - 1) + br_u)[:, None] + col,
    ])
    G.flags.writeable = False  # shared by every caller of the cache
    return G


def build_L(y, u, k, h: int, t: int) -> np.ndarray:
    """Square data matrix stacking H_y(k;h;s) over H_u(k;h+t;s), s = h*n+(h+t)*p.

    Block (i, j), 0-based, of each Hankel block holds the signal at time
    k + i + j.  k is one start, or a 1-D integer array of starts for a
    stack of windows of shape (len(k), s, s).  Each window is its sample
    vector z gathered through `window_gather`.
    """
    ya, ua = _as_2d(y), _as_2d(u)
    n, p = ya.shape[1], ua.shape[1]
    s = window_size(h, t, n, p)
    ny, nu = h + s - 1, h + t + s - 1
    stack = getattr(k, "ndim", 0) > 0
    first, last = (int(k.min()), int(k.max())) if stack else (k, k)
    if first < 0 or len(ya) < last + ny or len(ua) < last + nu:
        raise OutOfRangeError(
            f"window at k={first if first < 0 else last} needs {last + ny} output"
            f" and {last + nu} input samples, got {len(ya)} and {len(ua)}"
        )
    G = window_gather(n, p, h, t)
    # one window is cut by slices, a stack by one fancy index: each is the
    # faster cut on its side (the closed loop's windows, the batched estimator)
    if not stack:
        return np.concatenate([ya[k : k + ny].T.ravel(), ua[k : k + nu].T.ravel()])[G]
    z = np.concatenate(
        [np.swapaxes(sig[k[:, None] + np.arange(m)], 1, 2).reshape(len(k), -1)
         for sig, m in ((ya, ny), (ua, nu))],
        axis=1,
    )
    return z[:, G]


def lead_outputs(y, k, h: int, t: int, s: int) -> np.ndarray:
    """Output matrix Y(k+h+t; s): columns y(k+h+t) .. y(k+h+t+s-1), shape (n, s).

    k is one start, or a 1-D integer array of starts for a stack of lead
    windows of shape (len(k), n, s), as in `build_L`.
    """
    ya = _as_2d(y)
    stack = getattr(k, "ndim", 0) > 0
    start = (int(k.max()) if stack else k) + h + t
    if start + s > len(ya):
        raise OutOfRangeError(
            f"signal of length {len(ya)} does not cover lead window {start}..{start + s - 1}"
        )
    if not stack:
        return ya[start : start + s].T
    return ya[k[:, None] + h + t + np.arange(s)].transpose(0, 2, 1)


def _CA_powers(model: StateSpaceModel, count: int) -> list:
    """[C, CA, ..., CA^{count-1}], each from the one before by one product with A."""
    powers = [model.C]
    for _ in range(count - 1):
        powers.append(powers[-1] @ model.A)
    return powers


def markov_true(model: StateSpaceModel, t: int) -> MarkovMatrix:
    """Exact G(t) = [CA^{t-1}B, ..., CAB, CB] from the model matrices."""
    if t < 1:
        raise ConfigurationError("t must be >= 1")
    return MarkovMatrix(G=np.hstack([CAk @ model.B for CAk in _CA_powers(model, t)][::-1]), t=t)


def extended_observability(model: StateSpaceModel, h: int) -> np.ndarray:
    """O_c(h) = [C; CA; ...; CA^{h-1}], shape (h*n, m)."""
    if h < 1:
        raise ConfigurationError("h must be >= 1")
    return np.vstack(_CA_powers(model, h))


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
    # row block i holds the last i blocks of G(h), C A^{i-1} B .. C B
    G = markov_true(model, h).G
    T = np.zeros((h * n, h * p))
    for i in range(1, h):
        T[i * n : (i + 1) * n, : i * p] = G[:, (h - i) * p :]
    return T
