"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload traced and untraced with ``--size tiny`` and checks the
output contract: every metric named in BENCHMARK.json is emitted with its
unit, all checks pass, tracing does not change accuracy, and layers that a
workload does not use report zero time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(runs, workload, trace, section):
    _, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_agree_on_accuracy(runs, workload):
    plain, _ = runs[workload, 0]
    traced, _ = runs[workload, 1]
    assert traced["accuracy"] == plain["accuracy"]
    assert traced["cells"] == plain["cells"]


def test_end_to_end_metrics_are_positive(runs):
    for workload in WORKLOADS:
        _, result = runs[workload, 0]
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def _layer_time(metrics, prefix):
    return sum(m["value"] for name, m in metrics.items()
               if name.startswith(prefix) and name.endswith("_s"))


def test_unused_layers_report_zero_time(runs):
    features_run = runs["feature-baselines", 1][1]["metrics"]
    scratch_run = runs["scratch-convnets", 1][1]["metrics"]
    assert _layer_time(features_run, "nn.") == 0.0
    assert _layer_time(features_run, "timefreq.") == 0.0
    assert _layer_time(scratch_run, "features.") == 0.0
    assert _layer_time(scratch_run, "transfer.") == 0.0
    assert _layer_time(features_run, "features.") > 0.0
    assert _layer_time(scratch_run, "nn.") > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
