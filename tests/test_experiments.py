import json
import os
from dataclasses import replace

import numpy as np
import pytest

from subvarid.errors import ConfigurationError
from subvarid.experiments import (
    BENCHMARK_DELTA,
    BENCHMARK_U_MAX,
    BENCHMARK_X0,
    BENCHMARK_Y_MAX,
    DESIGNED_SLOPE_GATE,
    RATIO_GATE,
    WHITE_SLOPE_GATE,
    CampaignFigures,
    ExperimentConfig,
    campaign_figures,
    canonical_model,
    convergence_slope,
    emit_csv,
    emit_summary,
    emit_trials_csv,
    error_curve,
    load_config,
    lqr_gain,
    parse_curves_csv,
    run_campaign,
    run_trial,
    running_canonical,
    save_config,
    trial_rng,
    usable_slope,
    white_noise_baseline,
)
from subvarid.input_design import BatchRecord, IdentificationRun
from subvarid.lti_core import MarkovMatrix
from subvarid.subspace_id import EstimatorConfig
from conftest import curves_with_unusable_devs


class TestBenchmarkSystem:
    def test_canonical_matches_published_values(self, canonical):
        model = canonical_model()
        assert np.array_equal(model.A, canonical.A)
        assert np.array_equal(model.B, canonical.B)
        assert np.array_equal(model.C, canonical.C)
        assert BENCHMARK_DELTA == 0.05
        assert BENCHMARK_Y_MAX == 100.0 and BENCHMARK_U_MAX == 10.0
        assert np.array_equal(BENCHMARK_X0, [0.0, 0.5, 0.3, 1.0])

    def test_raw_benchmark_is_open_loop_unstable(self):
        ev = np.abs(np.linalg.eigvals(canonical_model().A))
        assert ev.max() > 1.0

    def test_running_system_is_stable_with_same_markov_invariants(self):
        wrapped = running_canonical()
        assert np.abs(np.linalg.eigvals(wrapped.A)).max() < 1.0
        # regulator leaves B and C untouched
        assert np.array_equal(wrapped.B, canonical_model().B)
        assert np.array_equal(wrapped.C, canonical_model().C)

    def test_lqr_gain_stabilizes(self):
        model = canonical_model()
        K = lqr_gain(model)
        assert np.abs(np.linalg.eigvals(model.A - model.B @ K)).max() < 1.0

    def test_lqr_gain_is_the_riccati_gain_bit_for_bit(self):
        from scipy.linalg import solve_discrete_are

        model = canonical_model()
        R = np.eye(model.p)
        P = solve_discrete_are(model.A, model.B, np.eye(model.m), R)
        K = np.linalg.solve(model.B.T @ P @ model.B + R, model.B.T @ P @ model.A)
        assert np.array_equal(lqr_gain(model), K)

    def test_package_import_leaves_scipy_unloaded(self):
        """Only the LQR regulator needs scipy, so importing the package and its
        CLI does not load it."""
        import subprocess
        import sys
        from pathlib import Path

        import subvarid

        src = str(Path(subvarid.__file__).resolve().parents[1])
        code = "import subvarid, subvarid.cli, sys; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src})


class TestTrialRng:
    def test_streams_are_distinct_and_reproducible(self):
        a1 = trial_rng(5, 3, 0).uniform(size=4)
        a2 = trial_rng(5, 3, 0).uniform(size=4)
        b = trial_rng(5, 3, 1).uniform(size=4)
        c = trial_rng(5, 4, 0).uniform(size=4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_seed_range_is_zero_to_two_to_the_63(self):
        trial_rng(0, 0)
        trial_rng(2**63 - 1, 0)
        trial_rng(np.int64(7), 0)
        for seed in (-1, 2**63, 2**64, 1.5, "3"):
            with pytest.raises(ConfigurationError, match=r"seed must be an int in \[0, 2\*\*63\)"):
                trial_rng(seed, 0)

    @pytest.mark.parametrize("seed", [-5, 2**63])
    def test_config_seed_outside_the_range_is_refused(self, seed):
        with pytest.raises(ConfigurationError, match=f"rng_seed must be an int .* got {seed}"):
            ExperimentConfig(rng_seed=seed)


class TestConvergenceSlope:
    def test_exact_one_over_N(self):
        N = np.array([10, 20, 40, 80])
        assert convergence_slope(1.0 / N, N) == pytest.approx(-1.0, abs=1e-9)

    def test_exact_inverse_sqrt(self):
        N = np.array([10, 20, 40, 80])
        assert convergence_slope(1.0 / np.sqrt(N), N) == pytest.approx(-0.5, abs=1e-9)

    def test_constant_data(self):
        N = [10, 20, 40]
        assert convergence_slope([2.0, 2.0, 2.0], N) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            convergence_slope([1.0, 0.0, 2.0], [1, 2, 3])

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            convergence_slope([1.0, 2.0], [1, 2])


    def test_usable_slope_skips_nan_and_zero(self):
        devs = {10: np.nan, 20: 0.0, 40: 1.0, 80: 0.5, 160: 0.25}
        assert usable_slope(devs, sorted(devs)) == pytest.approx(-1.0, abs=1e-12)
        assert usable_slope(devs, [10, 20, 40, 80]) is None


def test_summary_slopes_skip_nan_and_zero_deviations():
    text = emit_summary(curves_with_unusable_devs().stats,
                        curves_with_unusable_devs("white").stats)
    assert "designed deviation slope (log-log): -1.000" in text
    assert "white deviation slope (log-log): -1.000" in text


class TestCampaignFigures:
    """The ratio and both slopes that `emit_summary` prints and `report --check`
    gates, from one function."""

    @staticmethod
    def tables(err, devs):
        return {"err_mean": {N: err for N in devs}, "dev_median": devs}

    def test_figures_of_known_curves(self):
        Ns = [10, 20, 40, 80]
        figures = campaign_figures(self.tables(1.0, {N: 1 / N for N in Ns}),
                                   self.tables(2.0, {N: N ** -0.5 for N in Ns}), ratio_N=20)
        assert figures.ratio == 0.5
        assert figures.designed_slope == pytest.approx(-1.0, abs=1e-12)
        assert figures.white_slope == pytest.approx(-0.5, abs=1e-12)
        assert figures.failed_gates() == []

    def test_zero_white_error_gives_an_infinite_ratio(self):
        """The summary divided plain floats, so this raised ZeroDivisionError."""
        Ns = [10, 20, 40]
        designed = self.tables(1.0, {N: 1 / N for N in Ns})
        white = {"err_mean": {N: 0.0 for N in Ns}}  # and no dev_median rows
        assert campaign_figures(designed, white, ratio_N=10).ratio == np.inf
        text = emit_summary(designed, white, ratio_N=10)
        assert "designed/white error ratio at N=10: inf" in text
        assert "white deviation slope (log-log): fewer than 3 usable N" in text

    def test_without_a_white_arm(self):
        figures = campaign_figures(self.tables(1.0, {10: 0.1, 20: 0.05, 40: 0.025}))
        assert figures.ratio is None and figures.white_slope is None
        assert figures.failed_gates(white=False) == []
        assert set(figures.failed_gates()) == {"designed/white error ratio",
                                               "white deviation slope"}

    def test_gate_bounds_are_the_acceptance_bounds(self):
        assert (RATIO_GATE, DESIGNED_SLOPE_GATE, WHITE_SLOPE_GATE) == (0.6, -0.8, (-0.7, -0.3))

    @pytest.mark.parametrize("figures, failed", [
        ((0.5999, -0.8, -0.7), []),
        ((0.0, -2.0, -0.3), []),
        ((0.6, -0.8, -0.5), ["designed/white error ratio"]),
        ((0.5, -0.7999, -0.5), ["designed deviation slope"]),
        ((0.5, -1.0, -0.7001), ["white deviation slope"]),
        ((0.5, -1.0, -0.2999), ["white deviation slope"]),
        ((np.inf, -np.inf, np.nan), ["designed deviation slope", "designed/white error ratio",
                                     "white deviation slope"]),
        ((None, None, None), ["designed deviation slope", "designed/white error ratio",
                              "white deviation slope"]),
    ])
    def test_failed_gates_at_the_bounds(self, figures, failed):
        assert CampaignFigures(*figures).failed_gates() == failed


@pytest.fixture(scope="module")
def small_campaign():
    config = ExperimentConfig(trials=3, N_schedule=(5, 10), rng_seed=99)
    designed = run_campaign(config)
    white = white_noise_baseline(config)
    return config, designed, white


class TestCampaign:
    def test_same_seed_identical_results(self, small_campaign):
        config, designed, _ = small_campaign
        again = run_campaign(config)
        for stat in designed.stats:
            for N in config.N_schedule:
                assert designed.stat(stat, N) == again.stat(stat, N)

    def test_statistics_recomputable_from_raw(self, small_campaign):
        config, designed, _ = small_campaign
        for N in config.N_schedule:
            errs = [r.errors[N] for r in designed.raw if not r.failed]
            assert designed.stat("err_mean", N) == pytest.approx(np.mean(errs))
            assert designed.stat("err_median", N) == pytest.approx(np.median(errs))

    def test_paired_trials_share_noise_streams(self):
        # trial index drives the plant noise, so the designed and white runs
        # of the same trial see identical realizations
        a = trial_rng(99, 1, 0).uniform(size=8)
        b = trial_rng(99, 1, 0).uniform(size=8)
        assert np.array_equal(a, b)

    def test_single_trial_zero_noise_near_exact(self):
        from subvarid.input_design import DesignConfig

        config = ExperimentConfig(
            trials=1,
            N_schedule=(5,),
            rng_seed=3,
            design=DesignConfig(delta=0.0, epsilon=1.0, alpha_M=np.inf),
        )
        res = run_trial(config, 0, "designed")
        assert res.errors[5] < 1e-9

    @pytest.mark.parametrize("mode", ["designed", "white"])
    def test_trial_stops_at_the_last_batch_it_reads(self, monkeypatch, mode):
        """Batch i is folded at iteration i s, and the curves read batches up
        to max N - 1: a trial runs (max N - 1) s + 1 iterations."""
        from subvarid import experiments

        loop, runs = experiments.run_closed_loop, []

        def recording_loop(*args, **kwargs):
            runs.append(loop(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(experiments, "run_closed_loop", recording_loop)
        config = ExperimentConfig(trials=1, N_schedule=(5, 3))
        res = run_trial(config, 0, mode)
        s = EstimatorConfig(h=config.h, t=config.t).s(1, 1)
        (run,) = runs
        assert len(run.batches) == 5
        assert res.steps == len(run.iterations) == 4 * s + 1
        assert np.isfinite(res.errors[5]) and np.isfinite(res.errors[3])

    def test_error_curve_reads_nan_before_the_first_used_batch(self):
        skipped = BatchRecord(index=0, G=np.zeros(2), J=np.nan, condition_number=np.inf,
                              used=False, regime=False)
        used = BatchRecord(index=1, G=np.array([1.0, 2.5]), J=np.nan, condition_number=3.0,
                           used=True)
        run = IdentificationRun(iterations=[], batches=[skipped, used], y=np.zeros(1),
                                u=np.zeros(0), infeasible_events=0, violations=0,
                                design_fallbacks=0, init_len=0)
        out = error_curve(run, (1, 2, 3), MarkovMatrix(G=np.array([[1.0, 2.0]]), t=2))
        # N = 3 is past the run's last batch
        assert np.isnan(out[1]) and out[2] == 0.5 and np.isnan(out[3])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(input_mode="surprise")

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown noise kind 'pink'"):
            ExperimentConfig(noise_kind="pink")

    def test_plant_noise_is_the_design_box(self, monkeypatch):
        """The plant draws its noise from the box the design works against."""
        from subvarid import experiments
        from subvarid.input_design import DesignConfig, SimulatedPlant
        from subvarid.lti_core import NoiseSpec

        seen = []

        class RecordingPlant(SimulatedPlant):
            def __init__(self, model, noise, *args, **kwargs):
                seen.append(noise)
                super().__init__(model, noise, *args, **kwargs)

        monkeypatch.setattr(experiments, "SimulatedPlant", RecordingPlant)
        config = ExperimentConfig(trials=1, N_schedule=(2,), noise_kind="gaussian-truncated",
                                  design=DesignConfig(delta=0.02))
        assert not run_trial(config, 0, "white").failed
        assert seen == [NoiseSpec(0.02, "gaussian-truncated")]

    def test_unknown_trial_mode_rejected(self):
        """A misspelt mode is refused by the loop, not run as white noise."""
        with pytest.raises(ConfigurationError, match="unknown mode 'desgined'"):
            run_trial(ExperimentConfig(trials=1, N_schedule=(2,)), 0, "desgined")

    @pytest.mark.parametrize("workers, trials, pool", [(5000, 2, 2), (2, 3, 2)])
    def test_worker_pool_is_at_most_one_per_trial(self, monkeypatch, workers, trials, pool):
        """No process starts: the pool is a recorder that maps in this process."""
        import concurrent.futures

        from subvarid import experiments
        from subvarid.experiments import TrialResult

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        def stub_trial(config, trial, mode):
            return TrialResult(trial=trial, mode=mode, errors={}, deviations={},
                               violations=0, steps=0, infeasible_events=0)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "run_trial", stub_trial)
        config = ExperimentConfig(trials=trials, workers=workers)
        assert [r.trial for r in experiments._run_trials(config, "white")] == list(range(trials))
        assert sizes == [pool]

    def test_failed_trial_keeps_its_error(self, monkeypatch):
        from dataclasses import replace

        from subvarid import experiments
        from subvarid.errors import NumericOverflowError

        def overflowing_loop(*args, **kwargs):
            raise NumericOverflowError("plant state overflowed at step 7")

        monkeypatch.setattr(experiments, "run_closed_loop", overflowing_loop)
        res = run_trial(ExperimentConfig(trials=1, N_schedule=(2,)), 0, "designed")
        assert res.failed
        assert res.error == "NumericOverflowError: plant state overflowed at step 7"
        # the error stays out of repr, which the campaign fingerprints hash
        assert repr(res) == repr(replace(res, error=None))

    def test_diverging_trial_is_a_failed_trial(self):
        """The open-loop unstable benchmark without its regulator diverges:
        the trial fails with the loop's message instead of recording it.  The
        output passes 1000 y_M at iteration 30; N = 3 runs 2 s + 1 = 35 iterations."""
        config = ExperimentConfig(trials=1, N_schedule=(3,), prestabilize=False)
        res = run_trial(config, 0, "designed")
        assert res.failed and res.steps == 0
        assert res.error.startswith("NumericOverflowError: the loop diverged: "
                                    "the output at iteration ")


class TestOutputFiles:
    def test_curves_csv_round_trip(self, small_campaign, tmp_path):
        config, designed, _ = small_campaign
        path = tmp_path / "curves.csv"
        emit_csv(designed, path)
        header = path.read_text().splitlines()[0]
        assert header == "N,mode,stat,value"
        parsed = parse_curves_csv(path)
        for stat in designed.stats:
            for N in config.N_schedule:
                got = parsed[stat][N]
                want = designed.stat(stat, N)
                assert got == want or (np.isnan(got) and np.isnan(want))

    def test_trials_csv_schema(self, small_campaign, tmp_path):
        _, designed, white = small_campaign
        path = tmp_path / "trials.csv"
        emit_trials_csv([designed, white], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,N,mode,dG,J"
        assert len(lines) > 1

    def test_summary_mentions_ratio_and_missing_baseline(self, small_campaign):
        config, designed, white = small_campaign
        text = emit_summary(designed.stats, white.stats, ratio_N=10)
        assert "error ratio" in text
        assert "not implemented" in text

    def test_summary_says_when_the_ratio_N_is_not_scheduled(self, small_campaign):
        _, designed, white = small_campaign
        text = emit_summary(designed.stats, white.stats, ratio_N=7)
        assert "designed/white error ratio: N=7 is not in the schedule" in text
        assert "error ratio at" not in text

    @pytest.mark.parametrize("mode", ["designed", "white_noise"])
    def test_two_workers_give_the_same_trials(self, mode):
        config = ExperimentConfig(trials=2, N_schedule=(10, 20), rng_seed=20240515,
                                  input_mode=mode)
        one, two = run_campaign(config), run_campaign(replace(config, workers=2))
        assert [repr(r) for r in one.raw] == [repr(r) for r in two.raw]
        assert repr(one.stats) == repr(two.stats)

    def test_config_round_trip(self, tmp_path):
        config = ExperimentConfig(trials=7, N_schedule=(4, 8), rng_seed=11)
        path = tmp_path / "config.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.trials == 7
        assert tuple(loaded.N_schedule) == (4, 8)
        assert loaded.rng_seed == 11

    def test_config_round_trip_keeps_every_design_field(self, tmp_path):
        from subvarid.input_design import DesignConfig

        path = tmp_path / "config.json"
        # at delta 0 DesignConfig derives alpha_M = inf, which must load back too
        for design, kind in ((DesignConfig(delta=0.02, y_M=50.0, u_M=4.0, epsilon=0.005,
                                           alpha_M=0.4), "uniform"),
                             (DesignConfig(delta=0.0), "gaussian-truncated")):
            config = ExperimentConfig(design=design, noise_kind=kind)
            save_config(config, path)
            assert load_config(path) == config
            saved = json.loads(path.read_text())
            assert list(saved["design"]) == ["delta", "y_M", "u_M", "epsilon", "alpha_M"]
            assert "delta" not in saved and saved["noise_kind"] == kind

    @staticmethod
    def assert_same_model(got, want):
        for key in "ABC":
            assert np.array_equal(getattr(got, key), getattr(want, key))

    def test_config_names_the_demo_model(self):
        from subvarid.experiments import random_demo_model

        config = ExperimentConfig.from_dict({"model": "demo-random"})
        self.assert_same_model(config.model, random_demo_model())

    def test_config_round_trip_keeps_the_model(self, tmp_path):
        model = running_canonical()
        path = tmp_path / "config.json"
        save_config(ExperimentConfig(model=model, prestabilize=False), path)
        self.assert_same_model(load_config(path).model, model)

    @pytest.mark.parametrize("key", ["delta", "y_M", "u_M", "epsilon", "alpha_M"])
    @pytest.mark.parametrize("design", [None, {"y_M": 50.0}])
    def test_config_top_level_design_keys_are_unknown(self, key, design):
        """The design block is the only home of the five design values."""
        data = {key: 0.02} if design is None else {key: 0.02, "design": design}
        with pytest.raises(ConfigurationError, match=rf"unknown campaign settings \['{key}'\]"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("block, message", [
        ('{"lr0": 0.1}', "lr0"), ("[0.1]", "JSON object"),
        ('{"kappa": 0.8}', "kappa"),
        ('{"y_M": "a"}', "design setting 'y_M' must be a number, got 'a'"),
        ('{"epsilon": "a"}', "design setting 'epsilon' must be a number, got 'a'"),
        ('{"u_M": true}', "design setting 'u_M' must be a number, got True"),
        ('{"alpha_M": [1]}', r"design setting 'alpha_M' must be a number, got \[1\]"),
    ])
    def test_config_malformed_design_block_rejected(self, tmp_path, block, message):
        path = tmp_path / "bad.json"
        path.write_text('{"design": %s}' % block)
        with pytest.raises(ConfigurationError, match=message):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("y_M", 10**400), ("epsilon", 10**400), ("delta", -10**400), ("u_M", float("inf")),
        ("delta", float("nan")), ("alpha_M", float("-inf")), ("alpha_M", 10**400),
    ], ids=["y_M-int400", "epsilon-int400", "delta-negint400", "u_M-inf", "delta-nan",
            "alpha_M-neginf", "alpha_M-int400"])
    def test_config_design_value_beyond_float_range_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"design": {key: value}}))
        with pytest.raises(ConfigurationError,
                           match=f"design setting '{key}' must be a finite float"):
            load_config(path)

    def test_config_alpha_M_may_be_null(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text('{"design": {"delta": 0.04, "epsilon": 0.01, "alpha_M": null}}')
        assert load_config(path).design.alpha_M == 0.5
