import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subvarid.errors import ConfigurationError, NumericOverflowError, OutOfRangeError
from subvarid.lti_core import (
    BOUND_MAX,
    DEFAULT_COND_LIMIT,
    NoiseSpec,
    SignalLog,
    StateSpaceModel,
    build_L,
    extended_controllability,
    extended_observability,
    lead_outputs,
    markov_true,
    parse_number,
    simulate,
    toeplitz_T,
    window_gather,
)
from subvarid.subspace_id import batch_terms
from conftest import CANONICAL_X0, oracle_hankel, random_minimal_model


def stack_window(sig, k, h):
    """Column-stacked window [sig(k); ...; sig(k+h-1)] as a flat vector."""
    return np.concatenate([np.atleast_1d(sig[k + i]) for i in range(h)])


class TestSimulate:
    def test_scalar_integrator_with_zero_A(self):
        model = StateSpaceModel(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        log = simulate(model, x0=[0.0], U=[1.0, 2.0, 3.0])
        assert np.allclose(log.y.flatten(), [0.0, 1.0, 2.0])

    def test_canonical_initial_output(self, canonical):
        # y(0) = C x0 = 0.5*0.17 + 0.3*(-0.28) + 1*0.27
        log = simulate(canonical, x0=CANONICAL_X0, U=np.zeros(5))
        assert log.y[0, 0] == pytest.approx(0.271, abs=1e-12)

    def test_zero_noise_spec_equals_explicit_zero_noise(self, canonical):
        rng = np.random.default_rng(0)
        U = rng.uniform(-1, 1, size=8)
        state = rng.bit_generator.state
        a = simulate(canonical, CANONICAL_X0, U, noise=NoiseSpec(delta=0.0), rng=rng)
        b = simulate(canonical, CANONICAL_X0, U)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
        assert rng.bit_generator.state == state  # a zero bound draws nothing

    def test_state_trajectory_retained(self, canonical):
        log = simulate(canonical, CANONICAL_X0, np.zeros(4))
        assert log.x is not None and log.x.shape == (5, 4)
        assert np.allclose(log.x[0], CANONICAL_X0)

    def test_dimension_mismatch_raises(self, canonical):
        with pytest.raises(ConfigurationError):
            simulate(canonical, x0=[0.0, 0.0], U=np.zeros(4))
        with pytest.raises(ConfigurationError):
            simulate(canonical, CANONICAL_X0, np.zeros((4, 2)))

    def test_overflow_raises(self):
        model = StateSpaceModel(A=[[4.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(NumericOverflowError):
            simulate(model, [1e300], np.ones(16))

    def test_noise_respects_bound(self, canonical):
        rng = np.random.default_rng(3)
        spec = NoiseSpec(delta=0.05)
        log = simulate(canonical, np.zeros(4), np.zeros(200), noise=spec, rng=rng)
        assert np.abs(log.v).max() <= 0.05
        assert np.abs(log.w).max() <= 0.05

    def test_noise_without_a_generator_is_refused(self, canonical):
        """An unseeded draw would give other bits on every run."""
        with pytest.raises(ConfigurationError, match="needs a seeded generator"):
            simulate(canonical, CANONICAL_X0, np.zeros(4), noise=NoiseSpec(delta=0.05))

    def test_truncated_gaussian_bound_and_mean(self):
        spec = NoiseSpec(delta=0.05, kind="gaussian-truncated")
        rng = np.random.default_rng(7)
        draws = spec.sample(rng, (20000,))
        assert np.abs(draws).max() <= 0.05
        assert abs(draws.mean()) < 3 * draws.std() / np.sqrt(draws.size)

    @pytest.mark.parametrize("delta", [-1.0, np.nan, np.inf, 1e308,
                                       np.nextafter(BOUND_MAX, np.inf)])
    def test_noise_bound_outside_the_float_range_is_refused(self, delta):
        """One rule for every noise bound: a number in [0, max float / 2]."""
        from subvarid.input_design import DesignConfig

        for make in (NoiseSpec, DesignConfig):
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"noise bound delta must be in [0, 8.988e+307], got {delta}")):
                make(delta)

    def test_noise_bound_at_the_top_draws_finite_noise(self):
        """The range 2 delta of the largest bound is finite, so uniform draws work."""
        draws = NoiseSpec(delta=BOUND_MAX).sample(np.random.default_rng(0), (100,))
        assert np.isfinite(draws).all() and np.abs(draws).max() <= BOUND_MAX


class TestBuildHankel:
    """The output and input Hankel blocks of build_L, against hand-expanded values."""

    def test_scalar_definition_unrolled(self):
        # h=1, t=1, SISO: s = 3; the input block has h + t = 2 rows
        L = build_L([5.0, 6.0, 7.0], [1.0, 2.0, 3.0, 4.0], k=0, h=1, t=1)
        assert np.array_equal(L[1:], [[1, 2, 3], [2, 3, 4]])

    def test_constant_signal_rank_one(self):
        rng = np.random.default_rng(0)
        L = build_L(np.full(20, 2.5), rng.normal(size=20), k=0, h=3, t=1)
        assert np.all(L[:3] == 2.5)
        assert np.linalg.matrix_rank(L[:3]) == 1

    def test_vector_signal_stacked_blocks(self):
        # hand-expanded 2-dim input, n=1, h=1, t=1: s = 5, input rows
        # u_1(k+br), u_2(k+br) for br = 0, 1
        u = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0],
                      [4.0, 40.0], [5.0, 50.0], [6.0, 60.0]])
        L = build_L(np.zeros(6), u, k=0, h=1, t=1)
        expected = np.array([[1, 2, 3, 4, 5], [10, 20, 30, 40, 50],
                             [2, 3, 4, 5, 6], [20, 30, 40, 50, 60]])
        assert np.array_equal(L[1:], expected)

    def test_insufficient_data_raises(self):
        # h=1, t=1: s = 3 needs 3 outputs and 4 inputs
        with pytest.raises(OutOfRangeError, match="needs 3 output and 4 input samples"):
            build_L([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], k=0, h=1, t=1)
        with pytest.raises(OutOfRangeError):
            build_L(np.ones(9), np.ones(9), k=-1, h=1, t=1)

    def test_shift_structure(self):
        rng = np.random.default_rng(1)
        y, u = rng.normal(size=30), rng.normal(size=30)
        a = build_L(y, u, k=0, h=3, t=2)
        b = build_L(y, u, k=1, h=3, t=2)
        assert np.array_equal(a[:, 1:], b[:, :-1])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_window_layout_matches_the_row_loop(n, p, h, t, k, seed):
    """build_L, the estimator's stacked windows and the gathered noise band
    are all the row-loop Hankel layout."""
    rng = np.random.default_rng(seed)
    s = n * h + p * (h + t)
    T = k + 3 * s + h + t
    y, u = rng.normal(size=(T, n)), rng.normal(size=(T, p))
    L = build_L(y, u, k, h, t)
    assert np.array_equal(L, np.vstack([oracle_hankel(y, k, h, s),
                                        oracle_hankel(u, k, h + t, s)]))
    starts = k + s * np.arange(3)
    stacked = build_L(y, u, starts, h, t)
    for i, k_i in enumerate(starts):
        assert np.array_equal(stacked[i], build_L(y, u, int(k_i), h, t))
    # one noise vector: n output components of h+s-1 samples, then p input
    # components of h+t+s-1 samples
    G = window_gather(n, p, h, t)
    P = rng.normal(size=n * (h + s - 1) + p * (h + t + s - 1))
    w = P[: n * (h + s - 1)].reshape(n, -1).T
    e = P[n * (h + s - 1) :].reshape(p, -1).T
    dL = np.vstack([oracle_hankel(w, 0, h, s), oracle_hankel(e, 0, h + t, s)])
    assert np.array_equal(P[G], dL)


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_lead_outputs_equal_the_scalar_calls(n):
    rng = np.random.default_rng(70 + n)
    h, t, s = 2, 3, 7
    y = rng.normal(size=(40, n))
    starts = np.array([0, 4, 9, 40 - (h + t + s)])
    stacked = lead_outputs(y, starts, h, t, s)
    assert stacked.shape == (len(starts), n, s)
    for lead, k in zip(stacked, starts):
        assert np.array_equal(lead, lead_outputs(y, int(k), h, t, s))
    with pytest.raises(OutOfRangeError, match="lead window 34..40"):
        lead_outputs(y, starts + 1, h, t, s)


class TestBuildL:
    def test_siso_h1_t1_layout(self):
        y = np.arange(10.0)
        u = np.arange(10.0) + 100.0
        L = build_L(y, u, k=0, h=1, t=1)
        assert L.shape == (3, 3)
        assert np.array_equal(L[0], [0, 1, 2])        # y(k), y(k+1), y(k+2)
        assert np.array_equal(L[1], [100, 101, 102])  # u(k), ...
        assert np.array_equal(L[2], [101, 102, 103])  # u(k+1), ...

    def test_zero_output_singular(self):
        y = np.zeros(10)
        u = np.arange(10.0)
        assert batch_terms(y, u, np.array([0]), 1, 1, DEFAULT_COND_LIMIT)[1][0] == "cond"

    def test_random_noisy_nonsingular(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=20)
        u = rng.normal(size=20)
        assert batch_terms(y, u, np.array([0]), 2, 1, DEFAULT_COND_LIMIT)[1][0] == "used"


class TestMarkovTrue:
    def test_canonical_last_block_is_CB(self, canonical):
        G = markov_true(canonical, t=5)
        assert G.G[:, 4:] == pytest.approx(np.array([[0.27]]))

    def test_zero_A_only_CB_nonzero(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=[[1.0], [2.0]], C=[[1.0, 1.0]])
        G = markov_true(model, t=4)
        assert G.G[:, 3:] == pytest.approx(np.array([[3.0]]))
        assert np.allclose(G.G[:, :-1], 0.0)

    def test_t_equal_one(self, canonical):
        G = markov_true(canonical, t=1)
        assert G.G.shape == (1, 1)
        assert G.G[0, 0] == pytest.approx(0.27)


class TestStructuredMatrices:
    def test_h1_base_cases(self, canonical):
        assert np.array_equal(extended_observability(canonical, 1), canonical.C)
        assert np.array_equal(extended_controllability(canonical, 1), canonical.B)
        assert np.all(toeplitz_T(canonical, 1) == 0.0)

    @pytest.mark.parametrize("h", range(1, 7))
    def test_toeplitz_and_observability_equal_the_block_loops(self, h):
        """T read off markov_true's blocks, and O_c from the shared C A^k
        sequence, are bit for bit the block loops they replaced."""
        rng = np.random.default_rng(h)
        for _ in range(50):
            model = random_minimal_model(rng, m=int(rng.integers(1, 5)),
                                         n=int(rng.integers(1, 3)), p=int(rng.integers(1, 3)))
            n, p = model.n, model.p
            CA = [model.C]
            for _ in range(h - 1):
                CA.append(CA[-1] @ model.A)
            T = np.zeros((h * n, h * p))
            for i in range(h):
                for j in range(i):
                    T[i * n : (i + 1) * n, j * p : (j + 1) * p] = CA[i - j - 1] @ model.B
            assert np.array_equal(toeplitz_T(model, h), T)
            assert np.array_equal(extended_observability(model, h), np.vstack(CA))

    def test_identity_A_repeats_C(self):
        model = StateSpaceModel(A=np.eye(3), B=np.ones((3, 1)), C=[[1.0, 2.0, 3.0]])
        Oc = extended_observability(model, 4)
        assert np.allclose(Oc, np.tile([[1.0, 2.0, 3.0]], (4, 1)))

    def test_output_window_identity_on_noise_free_run(self, canonical):
        # Y(k;h) = O_c(h) x(k) + T(h) U(k;h) to machine precision
        rng = np.random.default_rng(4)
        U = rng.uniform(-1, 1, size=16)
        log = simulate(canonical, CANONICAL_X0, U)
        h, k = 5, 3
        Y = stack_window(log.y, k, h)
        Uw = stack_window(log.u, k, h)
        pred = extended_observability(canonical, h) @ log.x[k] + toeplitz_T(canonical, h) @ Uw
        assert np.allclose(Y, pred, atol=1e-12)

    def test_state_propagation_identity(self, canonical):
        # x(k+h) = A^h x(k) + O_b(h) U(k;h) on noise-free runs
        rng = np.random.default_rng(5)
        U = rng.uniform(-1, 1, size=12)
        log = simulate(canonical, CANONICAL_X0, U)
        h, k = 4, 2
        Uw = stack_window(log.u, k, h)
        pred = np.linalg.matrix_power(canonical.A, h) @ log.x[k] + extended_controllability(canonical, h) @ Uw
        assert np.allclose(log.x[k + h], pred, atol=1e-12)


class TestCheckInvertibility:
    """The condition numbers and skip rule of subspace_id.batch_terms on data windows."""

    def test_identity(self):
        # h=1, t=1, SISO: L = [y(0..2); u(0..2); u(1..3)] is the exchange matrix
        y, u = np.array([0.0, 0.0, 1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
        cond, reason, _, alpha, _, _ = batch_terms(y, u, np.array([0]), 1, 1,
                                                   DEFAULT_COND_LIMIT)
        assert reason[0] == "used" and cond[0] == pytest.approx(1.0)
        assert np.array_equal(alpha[0] @ build_L(y, u, 0, 1, 1), np.eye(3))

    def test_rank_deficient(self):
        y = u = np.full(10, 3.0)
        cond, reason, _, alpha, _, _ = batch_terms(y, u, np.array([0]), 1, 1,
                                                   DEFAULT_COND_LIMIT)
        assert reason[0] == "cond" and cond[0] > DEFAULT_COND_LIMIT
        assert alpha.shape == (0, 3, 3)

    def test_lemma1_monte_carlo(self):
        # noisy random data never produces a singular L (sampled claim)
        rng = np.random.default_rng(6)
        draws = [(rng.normal(size=8), rng.normal(size=8)) for _ in range(1000)]
        y, u = (np.concatenate(signal) for signal in zip(*draws))
        _, reason, _, _, _, _ = batch_terms(y, u, 8 * np.arange(1000), 1, 1,
                                            DEFAULT_COND_LIMIT)
        assert (reason == "used").all()


class TestSerialization:
    def test_model_json_roundtrip(self, canonical, tmp_path):
        path = tmp_path / "model.json"
        canonical.to_json(path)
        loaded = StateSpaceModel.from_json(path)
        assert np.array_equal(loaded.A, canonical.A)
        assert np.array_equal(loaded.B, canonical.B)
        assert np.array_equal(loaded.C, canonical.C)

    def test_signal_csv_roundtrip(self, canonical, tmp_path):
        rng = np.random.default_rng(8)
        log = simulate(canonical, CANONICAL_X0, rng.uniform(-1, 1, size=10))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "k,u_1,y_1"
        loaded = SignalLog.from_csv(path)
        assert np.array_equal(loaded.u, log.u)
        assert np.array_equal(loaded.y, log.y)

    def test_signal_log_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            SignalLog(u=np.array([np.nan]), y=np.array([1.0]))


def oracle_from_csv(path) -> SignalLog:
    """The row-by-row reader that `SignalLog.from_csv` replaced: csv-module
    rows, `float()` on every cell, one `np.array` over the nested list."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p = sum(1 for h in header if h.startswith("u_"))
        n = sum(1 for h in header if h.startswith("y_"))
        rows = [row for row in reader if row]
    if not rows:
        return SignalLog(u=np.zeros((0, p)), y=np.zeros((0, n)))
    data = np.array([[float(v) for v in row[: 1 + p + n]] for row in rows])
    return SignalLog(u=data[:, 1 : 1 + p].copy(), y=data[:, 1 + p :].copy(), t0=int(data[0, 0]))


def assert_same_log(a: SignalLog, b: SignalLog):
    """Equal shapes, bit-equal values (so -0.0 differs from 0.0) and equal t0."""
    for name in ("u", "y"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.t0 == b.t0


def _mimo_csv_text(tmp_path) -> str:
    rng = np.random.default_rng(14)
    log = SignalLog(u=rng.normal(size=(7, 2)), y=rng.normal(size=(7, 2)) * 1e-3, t0=5)
    log.to_csv(tmp_path / "mimo.csv")
    return (tmp_path / "mimo.csv").read_text()


def _quote_u_cells(text: str) -> str:
    lines = text.splitlines(keepends=True)
    out = [lines[0]]
    for line in lines[1:]:
        k, u1, rest = line.split(",", 2)
        out.append(f'{k},"{u1}",{rest}')
    return "".join(out)


def _extra_cells(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:1] + [line + ',9,"x,y",abc' for line in lines[1:]]) + "\n"


CSV_VARIANTS = {
    "to_csv of a MIMO log": lambda text: text,
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
    "blank lines": lambda text: text.replace("\n", "\n\n", 3) + "\n\n",
    "quoted numeric cells": _quote_u_cells,
    "extra trailing cells": _extra_cells,
    "missing final newline": lambda text: text.rstrip("\n"),
    "header-only file": lambda text: text.splitlines(keepends=True)[0],
}


class TestSignalCsvReader:
    @pytest.mark.parametrize("variant", sorted(CSV_VARIANTS))
    def test_matches_row_by_row_oracle(self, tmp_path, variant):
        path = tmp_path / "variant.csv"
        with open(path, "w", newline="") as fh:
            fh.write(CSV_VARIANTS[variant](_mimo_csv_text(tmp_path)))
        loaded = SignalLog.from_csv(path)
        assert_same_log(loaded, oracle_from_csv(path))
        assert loaded.u.shape[1] == loaded.y.shape[1] == 2
        assert len(loaded) == (0 if variant == "header-only file" else 7)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 6),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(-3, 10**6),
        st.data(),
    )
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, T, p, n, t0, data):
        """to_csv then from_csv over float64 values with subnormals, signed
        zeros and the largest finite values."""
        edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308])
        value = edge | st.floats(allow_nan=False, allow_infinity=False)
        u = np.array(data.draw(st.lists(value, min_size=T * p, max_size=T * p))).reshape(T, p)
        y = np.array(data.draw(st.lists(value, min_size=T * n, max_size=T * n))).reshape(T, n)
        log = SignalLog(u=u, y=y, t0=t0 if T else 0)
        path = tmp_path_factory.mktemp("roundtrip") / "log.csv"
        log.to_csv(path)
        assert_same_log(SignalLog.from_csv(path), log)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="0123456789.eE+-_ \tnaifty\xa0١x", max_size=10)
        | st.floats().map(repr)
        | st.sampled_from(["1_5", "1e1_0", "١", " 1.5 ", "\xa01", "-Infinity", "nan", "1e999"])
    )
    def test_error_helper_accepts_what_the_parse_accepts(self, cell):
        """`parse_number` refuses exactly the cells `np.loadtxt` refuses and
        reads the same value from the rest."""
        try:
            row = np.loadtxt([f"0,{cell},2"], delimiter=",", comments=None,
                             usecols=range(3), ndmin=2, quotechar='"')
            parsed = row[0, 1]
        except ValueError:
            parsed = None
        value = parse_number(cell)
        if parsed is None:
            assert value is None
        else:
            assert value is not None
            assert np.float64(value).tobytes() == parsed.tobytes()

    @pytest.mark.parametrize("rows, message", [
        ("0,1,2\n1,1_5,2\n", "line 3, column 'u_1': non-numeric value '1_5'"),
        ("0,1,2\n\n1,1,abc\n", "line 4, column 'y_1': non-numeric value 'abc'"),
        ("0,1,2\n1,nan,2\n", "line 3, column 'u_1': non-finite value 'nan'"),
        ("0,1,-inf\n", "line 2, column 'y_1': non-finite value '-inf'"),
        ("inf,1,2\n", "line 2, column 'k': non-finite value 'inf'"),
        ("0,1,2\n1,1\n", "line 3 has 2 cells, expected 3"),
        ("0,1\n1,1\n", "line 2 has 2 cells, expected 3"),
    ])
    def test_bad_cells_name_line_and_column(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("k,u_1,y_1\n" + rows)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            SignalLog.from_csv(path)

    @pytest.mark.parametrize("header, counts", [("k,y_1", "0 u_* and 1 y_*"),
                                                ("k,u_1,u_2", "2 u_* and 0 y_*")])
    def test_header_needs_input_and_output_columns(self, tmp_path, header, counts):
        path = tmp_path / "header.csv"
        path.write_text(header + "\n0,1,2\n")
        with pytest.raises(ConfigurationError, match=re.escape(counts)):
            SignalLog.from_csv(path)


class TestMinimality:
    def test_canonical_is_minimal(self, canonical):
        assert canonical.is_minimal()

    def test_random_models_minimal(self):
        rng = np.random.default_rng(9)
        for m in (2, 3, 4):
            assert random_minimal_model(rng, m).is_minimal()

    def test_uncontrollable_detected(self):
        model = StateSpaceModel(A=np.diag([0.5, 0.6]), B=[[1.0], [0.0]], C=[[1.0, 1.0]])
        assert not model.is_minimal()
