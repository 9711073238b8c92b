"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

It runs every workload for one pass in each mode (a few minutes in all), so it
lives beside the benchmark and outside the package's tier-1 test paths.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@functools.cache
def _run(workload: str, trace: int, attempt: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_declared_workloads_match_the_code():
    assert sorted(WORKLOADS) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_prints_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_across_runs(workload):
    first, second = _run(workload, 1), _run(workload, 1, attempt=1)
    counts = [name for name in first["metrics"] if tr.is_count(name)]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_output(workload, tmp_path):
    ops = wl.make_ops(workload, 3, str(tmp_path))
    plain: dict = {}
    checks = wl.Checks()
    wl.run_pass(ops, checks, outputs=plain)

    tracer = tr.Tracer()
    originals = {(m, a): getattr(__import__(m, fromlist=["_"]), a)
                 for m, a, _ in tr.TARGETS if "." not in a}
    traced: dict = {}
    with tracer:
        wl.run_pass(ops, checks, tracer=tracer, outputs=traced)
    assert checks.failures == []
    assert traced == plain
    assert tracer.spans and None not in tracer.spans
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=["_"]), a) is fn
