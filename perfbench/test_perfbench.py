"""Tests of the benchmark itself, in smoke mode (a few dozen points, one pass).

    python3 -m pytest perfbench
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess, back: int = 1) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-back])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "1":
        detail = last_json(proc, back=2)
        spans = [json.loads(line) for line in
                 (ROOT / detail["spans"]["path"]).read_text(encoding="utf-8").splitlines()]
        assert len(spans) == detail["spans"]["count"] > 0
        assert all({"id", "parent", "name", "start_ns", "end_ns", "run"} <= set(s) for s in spans)
        assert {s["name"] for s in spans} >= {"proc", "import", "cli.main", "cli.parse",
                                              "cli.cmd", "cli.serialize"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_output_counts_as_failure(workload):
    proc = run_bench("--workload", workload, "--smoke", "--corrupt-expectations")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    def inputs(seed: int, name: str):
        work = tmp_path / name
        work.mkdir()
        invs = workloads.build(workload, seed, work, smoke=True)
        files = {p.name: p.read_bytes() for p in work.iterdir()}
        return [[a.replace(str(work), "") for a in inv.args] for inv in invs], files

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a2") != inputs(6, "c")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
