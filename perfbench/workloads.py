"""The three workloads: inputs made from the seed, one round of operations,
and checks of the program's outputs against computations made here.

A workload object is built once per set-up repetition (that is the input
generation), warmed up once, then asked for rounds.  A round is a list of
operations; every round of a run is the same list, so a run always attempts
whole rounds and the outputs of later rounds must equal the first round's.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json

import numpy as np

from subvarid import cli, experiments

# The published 4th-order SISO benchmark plant, open-loop unstable, and its
# noise bound.  The closed-loop workloads identify it under its LQR regulator.
PLANT_A = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [-1.23, -2.17, -1.42, -1.21],
])
PLANT_B = np.array([[0.0], [0.0], [0.0], [1.0]])
PLANT_C = np.array([[0.82, 0.17, -0.28, 0.27]])
DELTA = 0.05

CAMPAIGN_SEED = 20240515          # the criteria-5/6 campaign key
SCHEDULE = (10, 20, 40)           # prefix of the campaign's N schedule
TRIALS_PER_ROUND = 16
TINY_TRIALS = 3

RECORDS_PER_ROUND = 6             # one noise-free record, then noisy ones
BATCHES = 80                      # identify --batches
TINY_RECORDS = 2
TINY_BATCHES = 10
H, T_IDENTIFY, ORDER = 4, 9, 4
DEVIATION_T = (5, 9)
VERTEX_SAMPLES = 2000             # random sign vertices per deviation check


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent reference computations
# ---------------------------------------------------------------------------


def running_plant():
    """(A - B K, B, C) with K the LQR gain (Q = I, R = I), found by iterating
    the discrete Riccati recursion to its fixed point."""
    A, B = PLANT_A, PLANT_B
    P = np.eye(4)
    for _ in range(100000):
        K = np.linalg.solve(B.T @ P @ B + np.eye(1), B.T @ P @ A)
        P_next = np.eye(4) + A.T @ P @ (A - B @ K)
        if np.abs(P_next - P).max() <= 1e-14 * np.abs(P_next).max():
            break
        P = P_next
    else:
        raise CheckFailed("Riccati recursion did not converge")
    K = np.linalg.solve(B.T @ P_next @ B + np.eye(1), B.T @ P_next @ A)
    return A - B @ K, B, PLANT_C


def markov_blocks(A, B, C, t):
    """[C A^{t-1} B, ..., C A B, C B] as a flat vector (SISO)."""
    return np.array([(C @ np.linalg.matrix_power(A, i) @ B).item()
                     for i in reversed(range(t))])


def hankel_window(y, u, k, h, t):
    """L[y, u] at window start k and the lead outputs Y(k+h+t; s)."""
    s = 2 * h + t
    idx_y = k + np.arange(h)[:, None] + np.arange(s)[None, :]
    idx_u = k + np.arange(h + t)[:, None] + np.arange(s)[None, :]
    return np.vstack([y[idx_y], u[idx_u]]), y[k + h + t: k + h + t + s]


def batched_estimate(y, u, h, t, n_batches, cond_limit=1e12):
    """Mean over batches k = 0, s, 2s, ... of lead @ pinv(L), last t columns."""
    s = 2 * h + t
    total, used = np.zeros(t), 0
    for i in range(n_batches):
        L, lead = hankel_window(y, u, i * s, h, t)
        if np.linalg.cond(L) > cond_limit:
            continue
        total += (lead @ np.linalg.pinv(L))[s - t:]
        used += 1
    return total / used


def perturbation_term(g, alpha_sel, noise, h, t):
    """First-order change g^T dL alpha_sel for each row of `noise`, where a
    row holds the output-noise samples of the h Hankel rows, then the
    input-noise samples of the h + t Hankel rows."""
    s = 2 * h + t
    nw = h + s - 1
    idx_y = np.arange(h)[:, None] + np.arange(s)[None, :]
    idx_u = np.arange(h + t)[:, None] + np.arange(s)[None, :]
    dL = np.concatenate([noise[:, :nw][:, idx_y], noise[:, nw:][:, idx_u]], axis=1)
    return np.einsum("i,vij->vj", g, dL) @ alpha_sel


def vertex_maximum(alpha_sel, bound):
    """max over sign vectors sigma of ||bound * sigma^T alpha_sel||^2, by
    enumerating every vertex in chunks."""
    d = alpha_sel.shape[0]
    best = 0.0
    bits = np.arange(d)
    for start in range(0, 1 << d, 4096):
        codes = np.arange(start, min(start + 4096, 1 << d))
        signs = np.where((codes[:, None] >> bits) & 1, bound, -bound)
        best = max(best, float(np.max(np.sum((signs @ alpha_sel) ** 2, axis=1))))
    return best


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# closed-loop workloads
# ---------------------------------------------------------------------------


class ClosedLoop:
    """Trials of the criteria-5/6 campaign; one operation is one run_trial.

    The seed picks the block of trial indices seed*K .. seed*K + K - 1, so
    seed 0 runs trials 0..K-1 of the campaign.
    """

    def __init__(self, mode, seed, tiny, workdir):
        self.mode = mode
        k = TINY_TRIALS if tiny else TRIALS_PER_ROUND
        self.config = experiments.ExperimentConfig(
            trials=k,
            N_schedule=SCHEDULE,
            input_mode="designed" if mode == "designed" else "white_noise",
            rng_seed=CAMPAIGN_SEED,
            workers=1,
        )
        self.trials = [seed * k + i for i in range(k)]
        self.g_true = markov_blocks(*running_plant(), self.config.t)

    def warmup(self):
        short = dataclasses.replace(self.config, N_schedule=(3,))
        experiments.run_trial(short, self.trials[0], self.mode)

    def round(self):
        return [lambda i=i: experiments.run_trial(self.config, i, self.mode)
                for i in self.trials]

    @staticmethod
    def failed(result):
        return bool(result.failed)

    @staticmethod
    def fingerprint(result):
        return repr(result)

    def check(self, results):
        cfg = self.config
        g_star = experiments.markov_true(cfg.resolved_model(), cfg.t).G.flatten()
        require(np.abs(g_star - self.g_true).max() <= 1e-8 * np.abs(self.g_true).max(),
                "the trials' true Markov blocks differ from C (A-BK)^i B")
        require(not any(r.failed for r in results), "a trial failed")
        require(sum(r.infeasible_events for r in results) == 0, "infeasible steps")
        steps = sum(r.steps for r in results)
        require(steps > 0, "no steps recorded")
        require(sum(r.violations for r in results) <= 0.02 * steps,
                "|y| > y_M on more than 2 % of steps")
        n_lo, n_hi = min(cfg.N_schedule), max(cfg.N_schedule)
        err = {N: np.mean([r.errors[N] for r in results]) for N in (n_lo, n_hi)}
        require(err[n_hi] < err[n_lo],
                f"mean error at N={n_hi} ({err[n_hi]:.3g}) not below N={n_lo} ({err[n_lo]:.3g})")
        if self.mode == "designed":
            # a trend, not step by step: over a few trials the median can
            # rise from N=10 to N=20 (8 trials of seed 5 did) while it falls
            # about as 1/N over the schedule
            med = [float(np.nanmedian([r.deviations[N] for r in results]))
                   for N in cfg.N_schedule]
            slope = np.polyfit(np.log(cfg.N_schedule), np.log(med), 1)[0]
            require(slope <= -0.5 and med[-1] < med[0],
                    f"median deviation D_N does not decrease with N: {med}")


# ---------------------------------------------------------------------------
# offline analysis
# ---------------------------------------------------------------------------


def simulate_record(A, B, C, u, noise_rng):
    """x+ = A x + B (u - e), y = C x + w with e, w uniform on [-delta, delta]
    (no noise when noise_rng is None)."""
    T = len(u)
    if noise_rng is None:
        e = w = np.zeros(T)
    else:
        e = noise_rng.uniform(-DELTA, DELTA, T)
        w = noise_rng.uniform(-DELTA, DELTA, T)
    x = np.zeros(A.shape[0])
    y = np.empty(T)
    for k in range(T):
        y[k] = (C @ x).item() + w[k]
        x = A @ x + B[:, 0] * (u[k] - e[k])
    return y


class OfflineAnalysis:
    """`identify`, then `deviation --t 5` and `--t 9`, in-process through
    cli.main, on recorded signal CSVs of the running plant."""

    def __init__(self, mode, seed, tiny, workdir):
        self.batches = TINY_BATCHES if tiny else BATCHES
        n_records = TINY_RECORDS if tiny else RECORDS_PER_ROUND
        self.plant = running_plant()
        s = 2 * H + T_IDENTIFY
        length = s * self.batches + H + T_IDENTIFY
        rng = np.random.default_rng([seed, 1])
        self.records = []
        for j in range(n_records):
            u = rng.uniform(-10.0, 10.0, length)
            y = simulate_record(*self.plant, u, None if j == 0 else rng)
            path = workdir / f"record-{j}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "u_1", "y_1"])
                for k in range(length):
                    writer.writerow([k, repr(float(u[k])), repr(float(y[k]))])
            self.records.append((str(path), y, u))

    def commands(self, path):
        yield ["identify", path, "--h", str(H), "--t", str(T_IDENTIFY),
               "--batches", str(self.batches), "--order", str(ORDER)]
        for t in DEVIATION_T:
            yield ["deviation", path, "--h", str(H), "--t", str(t), "--delta", str(DELTA)]

    def analyse(self, path):
        outputs = []
        for argv in self.commands(path):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def warmup(self):
        self.analyse(self.records[0][0])

    def round(self):
        return [lambda p=path: self.analyse(p) for path, _, _ in self.records]

    @staticmethod
    def failed(outputs):
        return any(code != 0 for code, _ in outputs)

    @staticmethod
    def fingerprint(outputs):
        return repr(outputs)

    def check(self, results):
        g_true = markov_blocks(*self.plant, T_IDENTIFY)
        for j, ((_, y, u), outputs) in enumerate(zip(self.records, results)):
            ident = json.loads(outputs[0][1])
            G = np.asarray(ident["G"], dtype=float).flatten()
            A, B, C = (np.asarray(ident[k], dtype=float) for k in "ABC")
            require(A.shape == (ORDER, ORDER) and B.shape == (ORDER, 1)
                    and C.shape == (1, ORDER), f"record {j}: realization shapes")
            if j == 0:
                require(np.abs(G - g_true).max() <= 1e-6,
                        "noise-free record: identified G differs from C (A-BK)^i B")
                require(np.abs(markov_blocks(A, B, C, T_IDENTIFY) - g_true).max() <= 1e-6,
                        "noise-free record: realization does not reproduce the Markov blocks")
            else:
                ref = batched_estimate(y, u, H, T_IDENTIFY, self.batches)
                require(np.abs(G - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max()),
                        f"record {j}: identified G differs from the batched pinv estimate")
            for t, (_, text) in zip(DEVIATION_T, outputs[1:]):
                self.check_deviation(json.loads(text), y, u, t, np.random.default_rng([j, t]),
                                     f"record {j}, t={t}")

    @staticmethod
    def check_deviation(res, y, u, t, rng, where):
        """J1 against vertex enumeration, both reported vertices against
        their values, and the certified bound J2 + gap against the
        first-order deviation at random sign vertices of the noise box."""
        L, lead = hankel_window(y, u, 0, H, t)
        alpha = np.linalg.inv(L)
        s = 2 * H + t
        alpha_sel = alpha[:, s - t:]
        bound = 2.0 * DELTA
        J, J1, J2, gap = res["J"], res["J1"], res["J2"], res["relaxation_gap"]
        require(close(J, np.sqrt(J1 + J2), 1e-12), f"{where}: J != sqrt(J1 + J2)")
        require(close(J1, vertex_maximum(alpha_sel, bound), 1e-9),
                f"{where}: J1 differs from vertex enumeration")
        w_star = np.asarray(res["w_star"], dtype=float).flatten()
        p_star = np.asarray(res["p_star"], dtype=float).flatten()
        require(np.allclose(np.abs(w_star), bound) and np.allclose(np.abs(p_star), bound),
                f"{where}: reported maximizers are not box vertices")
        require(close(J1, float(np.sum((w_star @ alpha_sel) ** 2)), 1e-9),
                f"{where}: w_star does not attain J1")
        g = alpha.T @ lead
        attained = float(np.sum(perturbation_term(g, alpha_sel, p_star[None], H, t) ** 2))
        require(close(J2, attained, 1e-9), f"{where}: p_star does not attain J2")
        require(gap >= 0.0, f"{where}: negative relaxation gap")
        signs = bound * rng.choice([-1.0, 1.0], size=(VERTEX_SAMPLES, p_star.size))
        sampled = float(np.max(np.sum(perturbation_term(g, alpha_sel, signs, H, t) ** 2, axis=1)))
        require(sampled <= (J2 + gap) * (1 + 1e-9),
                f"{where}: sampled vertex value {sampled:.6g} exceeds J2 + gap {J2 + gap:.6g}")


WORKLOADS = {
    "closed-loop-designed": (ClosedLoop, "designed"),
    "closed-loop-white": (ClosedLoop, "white"),
    "offline-analysis": (OfflineAnalysis, None),
}


def make(name, seed, tiny, workdir):
    cls, mode = WORKLOADS[name]
    return cls(mode, seed, tiny, workdir)
