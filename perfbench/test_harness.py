"""Tests of the benchmark harness itself, on its smoke-sized workloads.

Every workload must emit every metric named in ``BENCHMARK.json`` with its
unit, in both the plain and the traced run; a deliberately corrupted output
must make the run report failures; and without a source tree the benchmark
must exit non-zero without printing a result.  Run with::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Per-layer metrics that must be non-zero where the workload exercises them.
EXERCISED = {
    "sweep": ["runtime.specs", "obs.merges", "sim.continuous_self_s",
              "protocols.reactive_s", "protocols.map_admit_s", "core.admit_s"],
    "dhb_kernel": ["workload.generate_s", "sim.slotted_self_s", "sim.occupied_slots",
                   "core.admit_s", "core.instances_per_request"],
    "day": ["workload.generate_s", "core.adaptive_admit_s", "core.suffix_admit_s",
            "cluster.route_s", "cluster.finalize_s", "edge.admit_s", "edge.decisions"],
    "serve": ["serve.encode_s", "serve.frames", "serve.lateness_ms_p99",
              "serve.daemon_cpu_us_per_frame"],
}


def run(workload: str, *extra: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "2", "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, table", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, table):
    result = result_of(run(workload, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[table]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if table == "end_to_end":
        assert all(value > 0 for value in values.values()), values
    else:
        assert all(values[name] > 0 for name in EXERCISED[workload]), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    completed = run(workload, "--corrupt")
    result = result_of(completed)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "perfbench:" in completed.stderr  # the mismatch is printed


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("sweep", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
