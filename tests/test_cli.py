import json
import shlex
import sys

import numpy as np
import pytest

from subvarid.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_THRESHOLD, main


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "sig.csv"
    code = main(["simulate", "--steps", "50", "--prestabilized", "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,u_1,y_1"
    assert len(lines) == 51


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
    assert np.asarray(data["A"]).shape == (4, 4)
    # noise-free data: estimate matches the truth
    from subvarid.experiments import running_canonical
    from subvarid.lti_core import markov_true

    G_star = markov_true(running_canonical(), 9)
    assert np.abs(np.asarray(data["G"]) - G_star.G).max() < 1e-6


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


def test_design_writes_run_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["design", "--iterations", "40", "--seed", "2", "--output", str(out)])
    assert code == EXIT_OK
    assert "batches used=3/3" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,u,y,yhat,J,dG,feasible"
    assert len(lines) == 41


def test_campaign_and_report_check(tmp_path):
    prefix = str(tmp_path) + "/"
    code = main(["campaign", "--trials", "2", "--schedule", "5,10", "--seed", "17",
                 "--ratio-N", "10", "--prefix", prefix])
    assert code == EXIT_OK
    for name in ("curves_designed.csv", "curves_white.csv", "trials.csv", "summary.txt"):
        assert (tmp_path / name).exists()
    code = main(["report", prefix + "curves_designed.csv",
                 "--white", prefix + "curves_white.csv", "--ratio-N", "10"])
    assert code == EXIT_OK
    # impossible threshold trips the check exit code
    code = main(["report", prefix + "curves_designed.csv",
                 "--white", prefix + "curves_white.csv", "--ratio-N", "10",
                 "--check", "--ratio-threshold", "0.0"])
    assert code == EXIT_THRESHOLD


def test_missing_file_is_config_error(tmp_path):
    assert main(["identify", str(tmp_path / "nope.csv")]) == EXIT_CONFIG


def test_empty_file_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["identify", str(empty)]) == EXIT_CONFIG
    assert "empty file" in capsys.readouterr().err


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
