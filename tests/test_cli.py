import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from subvarid.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_THRESHOLD, build_parser, main


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "sig.csv"
    code = main(["simulate", "--steps", "50", "--prestabilized", "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,u_1,y_1"
    assert len(lines) == 51


def test_simulate_with_zero_delta_is_noise_free(tmp_path):
    from subvarid.experiments import running_canonical
    from subvarid.lti_core import simulate

    out, ref = tmp_path / "sig.csv", tmp_path / "ref.csv"
    assert main(["simulate", "--steps", "30", "--prestabilized", "--seed", "4",
                 "--delta", "0", "--output", str(out)]) == EXIT_OK
    U = np.random.default_rng(4).uniform(-1.0, 1.0, size=(30, 1))
    simulate(running_canonical(), np.zeros(4), U).to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--steps", "-3"], "--steps must be >= 1, got -3"),
    (["--steps", "0"], "--steps must be >= 1, got 0"),
    (["--delta", "-1"], "noise bound delta must be in [0, 8.988e+307], got -1.0"),
    (["--delta", "nan"], "noise bound delta must be in [0, 8.988e+307], got nan"),
    (["--amplitude", "nan"], "--amplitude must be in [0, 8.988e+307], got nan"),
    (["--amplitude", "1e308"], "--amplitude must be in [0, 8.988e+307], got 1e+308"),
    (["--amplitude", "-1"], "--amplitude must be in [0, 8.988e+307], got -1.0"),
    (["--x0", '"a"'], '--x0 must be a JSON list of numbers, got "a"'),
    (["--x0", "[[1,2],[3,4]]"], "--x0 must be a JSON list of numbers, got [[1,2],[3,4]]"),
    # a noise box of half-width inf or 1e308 has a range 2 delta that overflows
    (["--delta", "inf"], "noise bound delta must be in [0, 8.988e+307], got inf"),
    (["--delta", "1e308"], "noise bound delta must be in [0, 8.988e+307], got 1e+308"),
])
def test_simulate_settings_are_checked_before_drawing(tmp_path, capsys, flags, message):
    out = tmp_path / "sig.csv"
    assert main(["simulate", *flags, "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("model, message", [
    ([[1.0]], "a model must be a JSON object with keys A, B and C, got list"),
    ({"A": [[1.0]], "C": [[1.0]]}, "model lacks B"),
    ({"A": [[0.5, 0.0], [0.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]},
     "model matrix A is not a rectangular array of numbers"),
    ({"A": None, "B": [[1.0]], "C": [[1.0]]}, "model matrix A must be finite"),
    ({"A": [[[0.5]]], "B": [[1.0]], "C": [[1.0]]},
     "model matrix A must be finite with at most 2 dimensions, got shape (1, 1, 1)"),
])
def test_malformed_model_json_is_config_error(tmp_path, capsys, model, message):
    path, out = tmp_path / "model.json", tmp_path / "sig.csv"
    path.write_text(json.dumps(model))
    assert main(["simulate", "--model", str(path), "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert not out.exists()


def test_identify_round_trip(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "120", "--prestabilized", "--amplitude", "5",
          "--seed", "3", "--output", str(sig)])
    out = tmp_path / "ident.json"
    code = main(["identify", str(sig), "--h", "4", "--t", "9", "--order", "4",
                 "--output", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["t"] == 9
    assert len(data["G"][0]) == 9
    assert data["batches_used"] == 1 and data["batches_skipped"] == {}
    assert np.asarray(data["A"]).shape == (4, 4)
    # noise-free data: estimate matches the truth
    from subvarid.experiments import running_canonical
    from subvarid.lti_core import markov_true

    G_star = markov_true(running_canonical(), 9)
    assert np.abs(np.asarray(data["G"]) - G_star.G).max() < 1e-6


def test_identify_reports_the_batches_it_skipped(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "200", "--prestabilized", "--delta", "0.01",
          "--seed", "4", "--output", str(sig)])
    lines = sig.read_text().splitlines()
    # rows 0-39 all zero: the first batches' windows are singular
    lines[1:41] = [f"{k},0,0" for k in range(40)]
    sig.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a skipped batch is reported, not warned
        code = main(["identify", str(sig), "--batches", "10", "--t", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr()
    data = json.loads(out.out)
    assert out.err == ""
    assert data["batches_skipped"]["cond"][:2] == [0, 1]
    assert data["batches_used"] == 10 - len(data["batches_skipped"]["cond"])


def test_deviation_outputs_json(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "60", "--prestabilized", "--amplitude", "8",
          "--seed", "5", "--output", str(sig)])
    capsys.readouterr()
    code = main(["deviation", str(sig), "--h", "4", "--t", "5", "--delta", "0.05"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["J"] >= 0
    assert data["J"] == pytest.approx(np.sqrt(data["J1"] + data["J2"]))
    assert data["amplification"] > 0


@pytest.mark.parametrize("delta", ["-1", "nan"])
def test_deviation_delta_below_zero_or_nan_is_config_error(tmp_path, capsys, delta):
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "60", "--prestabilized", "--amplitude", "8",
          "--seed", "5", "--output", str(sig)])
    capsys.readouterr()
    assert main(["deviation", str(sig), "--delta", delta]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"noise bound delta must be in [0, 8.988e+307], got {float(delta)}" in captured.err


@pytest.mark.parametrize("delta, code, message", [
    ("inf", EXIT_CONFIG, "noise bound delta must be in [0, 8.988e+307], got inf"),
    ("1e308", EXIT_CONFIG, "noise bound delta must be in [0, 8.988e+307], got 1e+308"),
    # within the bound, but J = sqrt(J1 + J2) with J1 ~ delta^2 overflows
    ("1e200", EXIT_NUMERIC, "the deviation J overflowed at noise bound delta 1e+200"),
])
def test_deviation_delta_beyond_the_float_range(tmp_path, capsys, delta, code, message):
    """These exited 0 with "J": Infinity, which is not JSON."""
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "60", "--prestabilized", "--amplitude", "8",
          "--seed", "5", "--output", str(sig)])
    capsys.readouterr()
    assert main(["deviation", str(sig), "--delta", delta]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and message in captured.err


def test_design_writes_run_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["design", "--iterations", "40", "--seed", "2", "--output", str(out)])
    assert code == EXIT_OK
    assert "batches used=3/3" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,u,y,yhat,J,dG,feasible"
    assert len(lines) == 41


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    """A 2-trial campaign on N = 5, 10, its ratio taken at N=10; returns its
    file prefix and stdout.  Two N cannot form a slope, so the campaign breaks
    both slope gates whatever its numbers."""
    prefix = str(tmp_path_factory.mktemp("campaign")) + "/"
    proc = run_console("campaign", "--trials", "2", "--schedule", "5,10", "--seed", "17",
                       "--ratio-N", "10", "--prefix", prefix)
    assert proc.returncode == EXIT_OK
    return prefix, proc.stdout


def test_campaign_and_report_check(small_campaign, capsys):
    prefix, _ = small_campaign
    for name in ("curves_designed.csv", "curves_white.csv", "trials.csv", "summary.txt"):
        assert Path(prefix + name).exists()
    argv = ["report", prefix + "curves_designed.csv", "--white", prefix + "curves_white.csv",
            "--ratio-N", "10"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "designed/white error ratio at N=10: " in out
    for arm in ("designed", "white"):
        assert f"{arm} deviation slope (log-log): fewer than 3 usable N\n" in out
    assert main([*argv, "--check"]) == EXIT_THRESHOLD
    err = capsys.readouterr().err
    assert "gate failed: designed deviation slope\n" in err
    assert "gate failed: white deviation slope\n" in err


def test_report_on_campaign_csvs_prints_its_summary(small_campaign):
    prefix, stdout = small_campaign
    proc = run_console("report", prefix + "curves_designed.csv",
                       "--white", prefix + "curves_white.csv", "--ratio-N", "10")
    assert proc.returncode == EXIT_OK
    assert proc.stdout == Path(prefix + "summary.txt").read_text() == stdout


def test_report_slope_skips_nan_and_zero_deviations(tmp_path, capsys):
    from subvarid.experiments import emit_csv, emit_summary
    from conftest import curves_with_unusable_devs

    curves = curves_with_unusable_devs()
    emit_csv(curves, tmp_path / "curves.csv")
    assert main(["report", str(tmp_path / "curves.csv")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == emit_summary(curves.stats) + "\n"
    assert "designed deviation slope (log-log): -1.000\n" in out
    # the nan deviation at N=10 is read back from the CSV as nan
    assert "  N=  10  err_mean=1  dev_median=nan\n" in out


def test_missing_file_is_config_error(tmp_path):
    assert main(["identify", str(tmp_path / "nope.csv")]) == EXIT_CONFIG


def test_empty_file_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["identify", str(empty)]) == EXIT_CONFIG
    assert "empty file" in capsys.readouterr().err


def test_design_reports_its_fallbacks(tmp_path, capsys):
    """At u_M = 1 every designed step falls back to the uniform draw, so the
    run is the white one; the summary line says so, and white mode has no count."""
    runs = {}
    for flags in (["--u-max", "1"], ["--u-max", "1", "--mode", "white"], []):
        out = tmp_path / f"run{len(runs)}.csv"
        assert main(["design", "--seed", "1", *flags, "--output", str(out)]) == EXIT_OK
        runs[" ".join(flags)] = capsys.readouterr().out, out.read_bytes()
    assert "batches used=9/15, fallbacks=250/250)" in runs["--u-max 1"][0]
    assert "fallbacks" not in runs["--u-max 1 --mode white"][0]
    assert runs["--u-max 1"][1] == runs["--u-max 1 --mode white"][1]
    assert "batches used=14/15, fallbacks=76/250)" in runs[""][0]


def test_campaign_determinism(tmp_path):
    a = str(tmp_path) + "/a_"
    b = str(tmp_path) + "/b_"
    for prefix in (a, b):
        main(["campaign", "--trials", "2", "--schedule", "5", "--seed", "23",
              "--ratio-N", "5", "--prefix", prefix])
    assert (tmp_path / "a_curves_designed.csv").read_text() == (
        tmp_path / "b_curves_designed.csv"
    ).read_text()
    assert (tmp_path / "a_trials.csv").read_text() == (tmp_path / "b_trials.csv").read_text()

def test_report_missing_ratio_N_is_config_error(tmp_path, capsys):
    rows = "N,mode,stat,value\n10,{m},err_mean,1.0\n20,{m},err_mean,0.5\n"
    for mode in ("designed", "white"):
        (tmp_path / f"{mode}.csv").write_text(rows.format(m=mode))
    code = main(["report", str(tmp_path / "designed.csv"),
                 "--white", str(tmp_path / "white.csv"), "--ratio-N", "80"])
    assert code == EXIT_CONFIG
    assert "N=80" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["identify", "deviation"])
def test_non_numeric_cell_is_config_error(tmp_path, capsys, command):
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "60", "--prestabilized", "--amplitude", "5",
          "--seed", "4", "--output", str(sig)])
    lines = sig.read_text().splitlines()
    k, u, _ = lines[7].split(",")
    lines[7] = f"{k},{u},abc"
    sig.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, str(sig)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 8" in err and "'y_1'" in err and "'abc'" in err


# default h=4, t=5: s = 13; 12 rows miss the data window (16 outputs and
# 21 inputs), 21 rows cover it but miss the lead outputs y(9..21)
@pytest.mark.parametrize("rows, message", [(12, "needs 16 output and 21 input samples"),
                                           (21, "lead window 9..21")])
@pytest.mark.parametrize("command", ["identify", "deviation"])
def test_csv_shorter_than_a_window_is_config_error(tmp_path, capsys, command, rows, message):
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", str(rows), "--output", str(sig)])
    capsys.readouterr()
    assert main([command, str(sig)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    if command == "deviation":
        assert message in err


@pytest.mark.parametrize("command, header, message", [
    # every row one cell short of the header: y would have no column
    ("deviation", "k,u_1,y_1", "line 2 has 2 cells, expected 3"),
    # no input column
    ("identify", "k,y_1", "has 0 u_* and 1 y_* columns"),
])
def test_csv_column_layout_is_config_error(tmp_path, capsys, command, header, message):
    sig = tmp_path / "sig.csv"
    sig.write_text(header + "\n" + "".join(f"{i},1.{i}\n" for i in range(41)))
    assert main([command, str(sig)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


@pytest.mark.parametrize("header, message", [
    # the right cells in the wrong order would swap u and y
    ("k,y_1,u_1", "expected it to begin k,u_1,y_1"),
    # a cell between the inputs and the outputs would be read as y_1
    ("k,u_1,x,y_1", "expected it to begin k,u_1,y_1"),
])
def test_csv_header_out_of_order_is_config_error(tmp_path, capsys, header, message):
    sig = tmp_path / "sig.csv"
    sig.write_text(header + "\n" + "".join(f"{i},1.{i},5.{i},6.{i}\n" for i in range(41)))
    assert main(["identify", str(sig)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


def run_console(*argv):
    """`python -m subvarid.cli argv`, with the package's source on the path."""
    import subvarid

    env = dict(os.environ, PYTHONPATH=str(Path(subvarid.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "subvarid.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("config, message", [
    ("[1, 2]", "must be a JSON object"),
    ('{"trials": "5"}', "'trials' must be int"),
    ('{"trails": 5}', "unknown campaign settings ['trails']"),
    ('{"N_schedule": ["a"], "trials": 1}', "N_schedule must hold positive ints"),
    ('{"init_len": "x", "trials": 1, "N_schedule": [2]}', "unknown campaign settings ['init_len']"),
    ('{"init_len": 3, "trials": 1, "N_schedule": [2]}', "unknown campaign settings ['init_len']"),
    ('{"N_schedule": [true, 2, 3], "trials": 1}', "N_schedule must hold positive ints"),
    ('{"model": [1, 2], "trials": 1}', "a model must be a JSON object"),
    ('{"model": {"A": [[1.0]]}, "trials": 1}', "model lacks B and C"),
    ('{"design": {"y_M": "a"}, "trials": 1}', "design setting 'y_M' must be a number, got 'a'"),
    ('{"design": {"epsilon": "a"}}', "design setting 'epsilon' must be a number, got 'a'"),
    ('{"delta": 0.02, "trials": 1, "N_schedule": [2]}', "unknown campaign settings ['delta']"),
    ('{"design": {"y_M": 50.0}, "delta": 0.02, "trials": 1, "N_schedule": [2]}',
     "unknown campaign settings ['delta']"),
    pytest.param('{"design": {"y_M": 1%s}, "trials": 1, "N_schedule": [2]}' % ("0" * 400),
                 "design setting 'y_M' must be a finite float", id="y_M-401-digits"),
    ('{"design": {"alpha_M": -0.1}, "trials": 1, "N_schedule": [2]}',
     "alpha_M must be above 0, got -0.1"),
    ('{"design": {"epsilon": -1}, "trials": 1, "N_schedule": [2]}',
     "epsilon must be finite and above 0, got -1.0"),
    ('{"rng_seed": -5, "trials": 1, "N_schedule": [2]}',
     "rng_seed must be an int in [0, 2**63), got -5"),
    ('{"design": {"delta": 1e308}, "trials": 1, "N_schedule": [2]}',
     "noise bound delta must be in [0, 8.988e+307], got 1e+308"),
])
def test_malformed_campaign_config_is_config_error(tmp_path, config, message):
    path = tmp_path / "campaign.json"
    path.write_text(config)
    proc = run_console("campaign", "--config", str(path), "--prefix", str(tmp_path / "c_"))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr and message in proc.stderr


@pytest.mark.parametrize("flags, message", [
    (["--schedule", "a"], "N_schedule must hold positive ints, got ['a']"),
    (["--schedule", "0"], "N_schedule must hold positive ints, got [0]"),
    (["--trials", "-1"], "need at least one trial"),
    (["--seed", "-1"], "rng_seed must be an int in [0, 2**63), got -1"),
])
def test_malformed_campaign_flags_are_config_errors(tmp_path, flags, message):
    """The campaign flags pass the checks that a config file passes."""
    proc = run_console("campaign", *flags, "--prefix", str(tmp_path / "c_"))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr and message in proc.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_configuration_error_inside_a_trial_is_config_error(tmp_path, workers):
    """A ConfigurationError inside a trial ends the campaign as one, also from
    a worker process, with the trial's own message."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"order": 5, "trials": 2, "N_schedule": [2],
                                "workers": workers}))
    proc = run_console("campaign", "--config", str(path), "--prefix", str(tmp_path / "c_"))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert "got order 5 and t = 9" in proc.stderr


def test_other_trial_errors_are_failed_trials(tmp_path, capsys, monkeypatch):
    """Any other SubvaridError from the loop fails its trial only: within
    MAX_FAILURE_FRACTION the campaign completes without that trial."""
    from subvarid import experiments
    from subvarid.errors import DesignFailureError

    real_loop, calls = experiments.run_closed_loop, []
    default_fraction = experiments.MAX_FAILURE_FRACTION

    def loop_failing_first_trial(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DesignFailureError("no feasible input")
        return real_loop(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_closed_loop", loop_failing_first_trial)
    monkeypatch.setattr(experiments, "MAX_FAILURE_FRACTION", 0.5)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"trials": 2, "N_schedule": [2]}))
    prefix = str(tmp_path / "c_")
    assert main(["campaign", "--config", str(path), "--prefix", prefix]) == EXIT_OK
    rows = [row.split(",") for row in (tmp_path / "c_trials.csv").read_text().splitlines()[1:]]
    assert sorted((mode, trial) for trial, _, mode, *_ in rows) == [
        ("designed", "1"), ("white", "0"), ("white", "1"),
    ]

    # above the default tolerated fraction the campaign aborts as a numeric failure
    calls.clear()
    monkeypatch.setattr(experiments, "MAX_FAILURE_FRACTION", default_fraction)
    capsys.readouterr()
    assert main(["campaign", "--config", str(path), "--prefix", prefix]) == EXIT_NUMERIC
    assert "1/2 trials failed; campaign aborted" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["identify", "deviation"])
def test_closed_stdout_exits_quietly(tmp_path, capsys, command):
    """The console entry, writing into a pipe whose reader is already gone,
    exits 0 with nothing on stderr."""
    sig = tmp_path / "sig.csv"
    main(["simulate", "--steps", "200", "--prestabilized", "--amplitude", "5",
          "--output", str(sig)])
    capsys.readouterr()
    import subvarid

    env = dict(os.environ, PYTHONPATH=str(Path(subvarid.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "subvarid.cli", command, str(sig)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == EXIT_OK


def test_design_with_exited_plant_is_numeric_failure(tmp_path, capsys):
    code = main(["design", "--plant-cmd", "true", "--output", str(tmp_path / "run.csv")])
    assert code == EXIT_NUMERIC
    assert "plant" in capsys.readouterr().err


@pytest.mark.parametrize("answer, reason", [
    ("nan", "non-finite"), ("hello", "non-numeric"), ("0.0", "plant closed its"),
])
def test_design_with_bad_plant_answer_is_numeric_failure(tmp_path, capsys, answer, reason):
    cmd = shlex.join([sys.executable, "-c", f"print({answer!r}, flush=True)"])
    code = main(["design", "--plant-cmd", cmd, "--output", str(tmp_path / "run.csv")])
    assert code == EXIT_NUMERIC
    assert reason in capsys.readouterr().err


# x+ = 0.5 x + u, y = x: a first-order plant, so every h=4 data window is
# singular and no batch can be used
ECHO_PLANT = (
    "import sys\n"
    "x = 0.0\n"
    "print(x, flush=True)\n"
    "for line in sys.stdin:\n"
    "    x = 0.5 * x + float(line)\n"
    "    print(x, flush=True)\n"
)

# a stable fourth-order plant the default h=4, order-4 loop can identify
FOURTH_ORDER_PLANT = (
    "import sys\n"
    "x = [0.0, 0.0, 0.0, 0.0]\n"
    "print(0.0, flush=True)\n"
    "for line in sys.stdin:\n"
    "    x = x[1:] + [0.1 * x[0] - 0.2 * x[1] + 0.1 * x[2] + 0.5 * x[3] + float(line)]\n"
    "    print(x[0], flush=True)\n"
)


def test_design_without_a_used_batch_is_numeric_failure(tmp_path, capsys):
    out = tmp_path / "run.csv"
    cmd = shlex.join([sys.executable, "-c", ECHO_PLANT])
    code = main(["design", "--plant-cmd", cmd, "--output", str(out)])
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "batches used=0/15" in captured.out
    assert "all 15 batches skipped" in captured.err
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 250
    assert all(row.split(",")[-1] == "0" for row in rows)


@pytest.mark.parametrize("script, expected", [
    (ECHO_PLANT, EXIT_NUMERIC), ("print(0.0, flush=True)", EXIT_NUMERIC),
    (FOURTH_ORDER_PLANT, EXIT_OK),
])
def test_design_closes_the_external_plant(tmp_path, monkeypatch, script, expected):
    from subvarid.input_design import LineProtocolPlant

    plants = []
    init = LineProtocolPlant.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        plants.append(self)

    monkeypatch.setattr(LineProtocolPlant, "__init__", recording_init)
    cmd = shlex.join([sys.executable, "-c", script])
    code = main(["design", "--plant-cmd", cmd, "--iterations", "30",
                 "--output", str(tmp_path / "run.csv")])
    assert code == expected
    (plant,) = plants
    assert plant.proc.returncode is not None


def test_order_one_design_runs(tmp_path, capsys):
    # the state-observer windows of an h=1 loop start at y(0), not before it
    out = tmp_path / "run.csv"
    code = main(["design", "--iterations", "30", "--h", "1", "--t", "2", "--order", "1",
                 "--output", str(out)])
    assert code == EXIT_OK
    assert "batches used=8/8" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 31


def test_first_order_external_plant_is_identified(tmp_path, monkeypatch, capsys):
    from subvarid.input_design import LineProtocolPlant

    plants = []
    init = LineProtocolPlant.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        plants.append(self)

    monkeypatch.setattr(LineProtocolPlant, "__init__", recording_init)
    cmd = shlex.join([sys.executable, "-c", ECHO_PLANT])
    code = main(["design", "--plant-cmd", cmd, "--h", "1", "--t", "2", "--order", "1",
                 "--output", str(tmp_path / "run.csv")])
    assert code == EXIT_OK
    assert "batches used=63/63" in capsys.readouterr().out
    rows = (tmp_path / "run.csv").read_text().splitlines()
    dG = [row.split(",")[5] for row in rows[1:]]
    # the external plant's Markov parameters are unknown, so no dG is reported
    assert rows[0].split(",")[5] == "dG" and len(dG) > 0 and all(v == "nan" for v in dG)
    (plant,) = plants
    assert plant.proc.returncode is not None


@pytest.mark.parametrize("flags, message", [
    (["--iterations", "120", "--order", "5"], "t >= 2 order Markov blocks, got order 5"),
    (["--iterations", "120", "--order", "0"], "got order 0"),
    (["--iterations", "-5"], "iteration count must be >= 0, got -5"),
    (["--y-max", "nan"], "finite y_M, u_M above 0 required"),
    (["--u-max", "nan"], "finite y_M, u_M above 0 required"),
    (["--delta", "inf"], "noise bound delta must be in [0, 8.988e+307], got inf"),
    (["--delta", "1e308"], "noise bound delta must be in [0, 8.988e+307], got 1e+308"),
])
def test_design_settings_are_checked_before_the_loop(tmp_path, flags, message):
    """An order the realization cannot reach from t Markov blocks would skip
    every model, and with it the safety filter; a negative count would crash;
    a nan output bound would never count a violation."""
    out = tmp_path / "run.csv"
    proc = run_console("design", "--seed", "1", *flags, "--output", str(out))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["design", "--seed", str(2**64)],
    ["design", "--seed", "-1"],
])
def test_seed_outside_the_key_range_is_config_error(tmp_path, argv):
    """A seed must be an int in [0, 2**63): a negative one raised a ValueError
    in simulate or keyed an unspecified Philox stream in design, and 2**64
    overflowed."""
    out = tmp_path / "out.csv"
    proc = run_console(*argv, "--output", str(out))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert f"--seed must be an int in [0, 2**63), got {argv[-1]}" in proc.stderr
    assert not out.exists()


def test_campaign_order_above_half_t_is_config_error(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"order": 5, "trials": 1, "N_schedule": [2, 3, 4]}))
    proc = run_console("campaign", "--config", str(path), "--prefix", str(tmp_path / "c_"))
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr and "got order 5 and t = 9" in proc.stderr


def write_curves(path, white_err=2.0, designed_dev=lambda N: 1 / N,
                 white_dev=lambda N: N ** -0.5):
    """A designed and a white curves.csv that pass all three gates as they are
    (ratio 0.5, designed slope -1, white slope -0.5); returns the report
    arguments that name them."""
    rows = ["N,mode,stat,value"]
    for N in (10, 20, 40, 80):
        rows += [f"{N},designed,err_mean,1.0", f"{N},designed,dev_median,{designed_dev(N)}"]
    (path / "designed.csv").write_text("\n".join(rows) + "\n")
    white = ["N,mode,stat,value"] + [f"{N},white,err_mean,{white_err}" for N in (10, 20, 40, 80)]
    white += [f"{N},white,dev_median,{white_dev(N)}" for N in (10, 20, 40, 80)]
    (path / "white.csv").write_text("\n".join(white) + "\n")
    return [str(path / "designed.csv"), "--white", str(path / "white.csv")]


def test_report_check_passes_finite_figures(tmp_path, capsys):
    assert main(["report", *write_curves(tmp_path), "--check"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    for line in ("designed deviation slope (log-log): -1.000",
                 "designed/white error ratio at N=80: 0.5000",
                 "white deviation slope (log-log): -0.500"):
        assert line + "\n" in captured.out


@pytest.mark.parametrize("white_err, shown", [("nan", "nan"), ("0", "inf")])
def test_report_check_fails_a_ratio_that_is_not_finite(tmp_path, capsys, white_err, shown):
    argv = ["report", *write_curves(tmp_path, white_err=white_err)]
    assert main(argv) == EXIT_OK
    assert f"designed/white error ratio at N=80: {shown}\n" in capsys.readouterr().out
    assert main([*argv, "--check"]) == EXIT_THRESHOLD
    assert capsys.readouterr().err == "gate failed: designed/white error ratio\n"


@pytest.mark.parametrize("curves, gate", [
    # ratio 1 / (1 / 0.6) = 0.6 is not below 0.6
    ({"white_err": 1 / 0.6}, "designed/white error ratio"),
    # designed slope -0.5 is above -0.8
    ({"designed_dev": lambda N: N ** -0.5}, "designed deviation slope"),
    # white slope -1 (a white dev_median falling as 1/N) is below -0.7, 0 above -0.3
    ({"white_dev": lambda N: 1 / N}, "white deviation slope"),
    ({"white_dev": lambda N: 0.1}, "white deviation slope"),
    # a white dev_median that is nan at every N gives no white slope
    ({"white_dev": lambda N: "nan"}, "white deviation slope"),
])
def test_report_check_fails_each_broken_gate(tmp_path, capsys, curves, gate):
    argv = ["report", *write_curves(tmp_path, **curves)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--check"]) == EXIT_THRESHOLD
    assert capsys.readouterr().err == f"gate failed: {gate}\n"


def test_report_check_fails_without_a_designed_slope(tmp_path, capsys):
    path = tmp_path / "designed.csv"
    path.write_text("N,mode,stat,value\n10,designed,dev_median,0.1\n20,designed,dev_median,nan\n")
    assert main(["report", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "designed deviation slope (log-log): fewer than 3 usable N\n" in out
    # the err_mean this CSV lacks prints as nan
    assert "  N=  20  err_mean=nan  dev_median=nan\n" in out
    assert main(["report", str(path), "--check"]) == EXIT_THRESHOLD
    assert capsys.readouterr().err == "gate failed: designed deviation slope\n"


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("80,white,err_mean,2.0", "80,white,err_mean,abc"),
     "line 5: N '80' or value 'abc' is not a number"),
    (lambda text: text.replace("80,white,err_mean,2.0", "80,white"), "line 5"),
    (lambda text: text.replace("N,mode,stat,value", "N,mode,stat,val"), "no value column"),
])
def test_malformed_curves_csv_is_config_error(tmp_path, edit, message):
    argv = write_curves(tmp_path)
    white = tmp_path / "white.csv"
    white.write_text(edit(white.read_text()))
    proc = run_console("report", *argv, "--check")
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert str(white) in proc.stderr and message in proc.stderr


def test_prestabilized_wraps_a_loaded_model(tmp_path):
    from subvarid.experiments import canonical_model

    model = tmp_path / "m.json"
    canonical_model().to_json(model)
    runs = {
        "builtin": ["--prestabilized"],
        "loaded": ["--model", str(model), "--prestabilized"],
        "bare": ["--model", str(model)],
    }
    for name, flags in runs.items():
        main(["simulate", "--steps", "60", "--amplitude", "5", "--seed", "4", *flags,
              "--output", str(tmp_path / f"{name}.csv")])
    text = {name: (tmp_path / f"{name}.csv").read_text() for name in runs}
    assert text["loaded"] == text["builtin"]
    assert text["bare"] != text["builtin"]


def test_white_noise_config_still_runs_a_designed_arm(tmp_path, capsys):
    """`campaign` compares the designed arm with white noise whatever the
    config's input_mode says."""
    for mode in ("designed", "white_noise"):
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps({"input_mode": mode, "trials": 1, "N_schedule": [2, 3]}))
        prefix = str(tmp_path / f"{mode}_")
        assert main(["campaign", "--config", str(path), "--ratio-N", "3",
                     "--prefix", prefix]) == EXIT_OK
    designed = (tmp_path / "white_noise_curves_designed.csv").read_text()
    assert designed == (tmp_path / "designed_curves_designed.csv").read_text()
    assert {row.split(",")[1] for row in designed.splitlines()[1:]} == {"designed"}
    assert designed.replace("designed", "white") != (
        tmp_path / "white_noise_curves_white.csv").read_text()


def test_diverging_design_is_numeric_failure(tmp_path):
    """The open-loop unstable benchmark without its regulator diverges: the
    loop stops at the first output beyond 1000 y_M, naming the iteration."""
    from subvarid.experiments import canonical_model

    model, out = tmp_path / "raw.json", tmp_path / "run.csv"
    canonical_model().to_json(model)
    proc = run_console("design", "--model", str(model), "--iterations", "400",
                       "--output", str(out))
    assert proc.returncode == EXIT_NUMERIC
    assert "Traceback" not in proc.stderr
    assert "the loop diverged: the output at iteration 29," in proc.stderr
    assert "is not within 1000 y_M = 1e+05" in proc.stderr


def test_overflowing_noise_range_diverges_without_a_warning(tmp_path):
    """At delta 8e307 a window's noise range 2 delta s overflows, so no input
    is conditioning-feasible; the plant's noise alone passes 1000 y_M, the
    loop stops as diverged, and numpy prints no RuntimeWarning on the way."""
    out = tmp_path / "run.csv"
    proc = run_console("design", "--delta", "8e307", "--iterations", "40", "--output", str(out))
    assert proc.returncode == EXIT_NUMERIC
    assert "the loop diverged" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


class TestCachedParser:
    """`main` parses with one argparse tree per process."""

    @pytest.fixture
    def sig(self, tmp_path):
        sig = tmp_path / "sig.csv"
        assert main(["simulate", "--steps", "60", "--prestabilized", "--amplitude", "8",
                     "--seed", "5", "--output", str(sig)]) == EXIT_OK
        return str(sig)

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_each_subcommand_keeps_its_own_defaults(self, sig, capsys):
        from subvarid.deviation import max_deviation
        from subvarid.lti_core import SignalLog
        from subvarid.subspace_id import EstimatorConfig

        assert main(["identify", sig, "--t", "9"]) == EXIT_OK
        capsys.readouterr()
        assert main(["deviation", sig]) == EXIT_OK
        log = SignalLog.from_csv(sig)
        J = {t: max_deviation(log.y, log.u, EstimatorConfig(h=4, t=t), delta=0.05).J
             for t in (5, 9)}
        assert J[5] != J[9]
        assert json.loads(capsys.readouterr().out)["J"] == J[5]

    def test_failed_parse_leaves_the_next_call_unaffected(self, sig, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identify", sig, "--t", "7", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["identify", sig]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["t"] == 9

    def test_help_matches_a_fresh_parser(self):
        assert build_parser.__wrapped__().format_help() == build_parser().format_help()
