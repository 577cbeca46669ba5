"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from mastkit.newick import parse_newick  # noqa: E402
from workloads import WORKLOADS, ExperimentGrid, PairInstance, PairWorkload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.4", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    env = json.loads(env_line)["env"]
    assert env["seed"] == 3 and env["python"] and env["nproc"] >= 1
    assert env["commit"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def _forged_record(op: int, stdout: str) -> run.Record:
    return run.Record(op=op, seconds=0.0, scale=1.0, code=0, stdout=stdout,
                      stderr="", collected=None)


def test_wrong_agreement_set_counts_as_failed_op():
    # The pair from the verifier's known hole: claiming all six taxa is
    # wrong (the exact maximum is 4) even though the CLI says verified.
    tree1 = parse_newick("((1,2),(3,4),(5,6));", rooted=False)
    tree2 = parse_newick("((1,3),(2,5),(4,6));", rooted=False)
    workload = PairWorkload(6)
    workload.count = 1
    workload.instances = [PairInstance(("", ""), (tree1, tree2), (None, None))]
    honest = _forged_record(0, "agreement: 1 3 5 6\nsize: 4\nverified: true\n")
    forged = _forged_record(1, "agreement: 1 2 3 4 5 6\nsize: 6\nverified: true\n")
    assert run.check_records(workload, [honest])[0] == 0
    failed, sizes, reasons = run.check_records(workload, [honest, forged])
    assert failed == 1 and sizes == [4]
    assert "not isomorphic" in reasons[0]


def test_wrong_grid_counts_as_failed_op(tmp_path):
    workload = ExperimentGrid(32)
    workload.setup(5, str(tmp_path))
    records, _ = run.run_ops(workload, 0.0)
    assert run.check_records(workload, records)[0] == 0
    text = records[0].collected
    dropped = _forged_record(0, "")
    dropped.collected = text.rsplit("\n", 2)[0] + "\n"
    unverified = _forged_record(0, "")
    unverified.collected = text.replace(",true,", ",false,", 1)
    assert run.check_records(workload, [dropped, unverified])[0] == 2
