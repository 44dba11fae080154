"""Tests of the benchmark itself: its output contract and the exactness of
its counts. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Each test runs ``bench/run.py`` in a subprocess with a one-second budget,
which still runs one untraced and one traced unit of every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".flops", ".bytes", ".pairs", "bytes_read",
                  "bytes_written", "flops_analytic", "flops_executed")


def _run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _is_count(name):
    return name == "tensor.tape_ops" or name.endswith(COUNT_SUFFIXES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, seed=3, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _run(workload, seed=4, trace=1)
    second = _run(workload, seed=4, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counts = sorted(name for name in expected if _is_count(name))
    assert "tensor.conv2d.zero_input_ratio" in expected
    for name in counts + ["tensor.conv2d.zero_input_ratio"]:
        assert first["metrics"][name] == second["metrics"][name], name
    work = first["metrics"]["tensor.conv2d.calls"]["value"]
    assert work > 0
