"""Tests of the benchmark itself, on tiny instances of every workload.

    python3 -m pytest certbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--size", "tiny", "--seconds", "1", "--seed", "7")


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = result(bench("--workload", workload, "--trace", "0", *TINY))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    res = result(bench("--workload", workload, "--trace", "1", *TINY))
    assert res["correct"] and res["failed"] == 0
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < layer_self <= metrics["trace.wall_s"]
    assert metrics["field.build_field.calls"] >= 1


def test_traced_table2_sees_calls_through_imported_names():
    # cli imports build_field and apply (as apply_recipe) by name
    res = result(bench("--workload", "table2", "--trace", "1", *TINY))
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert metrics["field.build_field.calls"] == 3  # rows 9, 121 and 729 are certified
    assert metrics["constructions.apply.self_s"] > 0
    assert metrics["diffsets.check.calls"] >= 3


def test_benchmark_lists_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


def copy_checkout(tmp_path: Path, with_library: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "certbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_library:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "certbench" / "run.py"


@pytest.mark.parametrize(("workload", "output"), [("table2", "9"), ("verify-random", "profile")])
def test_corrupted_golden_counts_as_failed(tmp_path, workload, output):
    # verify-random: the certificates still match, only the counts behind them differ
    script = copy_checkout(tmp_path)
    path = tmp_path / "certbench" / "golden.json"
    golden = json.loads(path.read_text())
    for outputs in golden["tiny"][workload].values():
        if output in outputs:
            outputs[output] = "0" * 32
    path.write_text(json.dumps(golden))
    res = result(bench("--workload", workload, "--trace", "0", *TINY, cwd=tmp_path, script=script))
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    script = copy_checkout(tmp_path, with_library=False)
    proc = bench("--workload", "table2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
