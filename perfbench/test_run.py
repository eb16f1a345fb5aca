"""Self-check of the benchmark's output, at the smallest input size.

Run from the repository root:  python3 -m pytest perfbench/test_run.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_once(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicate_keys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert math.isfinite(printed["value"]), m["name"]
        if not trace:
            assert printed["value"] > 0, m["name"]


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "closed-loop-designed", "--seed", "0", "--seconds", "1",
                     "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["input_design.build_scenarios.calls"] > 0


def test_malformed_metrics_are_refused():
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]}}
    assert run.validate(good, 0) == []
    first = SPEC["end_to_end"][0]["name"]
    for broken in (
        {**good["metrics"], first: {"value": 0.0, "unit": SPEC["end_to_end"][0]["unit"]}},
        {**good["metrics"], first: {"value": math.nan, "unit": SPEC["end_to_end"][0]["unit"]}},
        {**good["metrics"], first: {"value": 1.0, "unit": "furlong"}},
        {k: v for k, v in good["metrics"].items() if k != first},
        {**good["metrics"], "unlisted": {"value": 1.0, "unit": "s"}},
    ):
        assert run.validate({**good, "metrics": broken}, 0)
    assert run.validate({**good, "attempted": 0}, 0)
    assert run.validate({**good, "failed": 0.5}, 0)


def test_refuses_to_run_without_the_package_source():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
