"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_row_counts_as_failed():
    plan = workloads.build_plan("sim-grid", 3, "tiny")
    ref = reference.reference_rows(plan.cells)
    frame = plan.run()
    assert reference.count_failed(frame.columns, frame.rows, ref) == 0
    rows = list(frame.rows)
    j = frame.columns.index("messages")
    rows[1] = rows[1][:j] + (rows[1][j] + 1,) + rows[1][j + 1:]
    assert reference.count_failed(frame.columns, rows, ref) == 1
    assert reference.count_failed(frame.columns, rows[:-1], ref) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "emit-heavy", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
