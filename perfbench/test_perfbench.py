"""Smoke and determinism tests for the benchmark itself.

    python3 -m pytest perfbench -q

Each test drives ``run.py`` as the benchmark's users do, with a one-second
run (the workloads' minimum op counts still apply), from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return {w: parse(bench(w, 0)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, untraced):
    report, result = untraced[workload] if trace == 0 else parse(bench(workload, 1))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    env = report["environment"]
    assert env["blas_threads_pinned"] <= env["nproc"]
    assert env["held_out_seed"] != SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_outputs(workload, untraced):
    first, _ = untraced[workload]
    second, _ = parse(bench(workload, 0))
    key = "train_loss" if workload == "train_desk" else "logits_sha256"
    assert first["details"][key] == second["details"][key]
    assert first["metrics"]["loss"]["value"] == second["metrics"]["loss"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
