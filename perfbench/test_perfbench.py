"""Checks of the benchmark itself, at tiny size so they run in seconds.

    python3 -m pytest perfbench -q

* every workload prints every declared metric, by name and unit, in both modes;
* the exact counts repeat across two traced runs with the same seed;
* the correctness gate rejects a changed row and accepts round-off;
* without the program next to it, the benchmark fails without a result.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
sys.path.insert(0, HERE)
from baseline import EXACT_COUNTS  # noqa: E402


def run(workload, trace, seed=1, cwd=ROOT, check=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)
    if check:
        assert done.returncode == 0, done.stderr[-3000:]
    return done


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_declared_metric(workload, trace):
    lines, result = result_of(run(workload, trace))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run(workload, 1, seed=5))[1]["metrics"]
    second = result_of(run(workload, 1, seed=5))[1]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_gate_rejects_changed_rows_and_accepts_round_off(tmp_path):
    import workloads

    reference = workloads.load_reference()
    workload = workloads.make("approx_exact", 2, True, str(tmp_path))
    rows = reference["approx_exact"][workloads.reference_key(workload)]
    assert workloads.check(workload, copy.deepcopy(rows), reference) == []

    nudged = copy.deepcopy(rows)
    for row in nudged:
        row[4] *= 1 + 1e-9
    assert workloads.check(workload, nudged, reference) == []

    for col, change in ((2, lambda v: v + 1), (4, lambda v: v * 1.001), (6, lambda v: v * 2)):
        broken = copy.deepcopy(rows)
        broken[0][col] = change(broken[0][col])
        assert workloads.check(workload, broken, reference), col
    assert workloads.check(workload, rows[:-1], reference)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=str(tmp_path), check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
