"""Bit-for-bit cluster goldens: results and metrics of four cluster runs.

``golden_cluster.json`` pins the routing paths the ``crash`` golden in
``tests/runtime/golden_runtime.json`` leaves open: the quick ``baseline``
preset (affinity routing), the quick ``skewed`` preset (least-loaded
routing over a popularity placement), a saturated two-server run whose
router rejects requests, and a ``faulted`` run (round-robin routing over a
sharded placement, one channel-loss window and one crash whose titles have
no surviving replica, so instances are lost for good).  Every run must
reproduce its :meth:`ClusterResult.to_dict` snapshot and its ``cluster.*``
counters, gauges and histograms exactly (timers carry wall times and are
left out); the ``faulted`` run also pins its ``cluster-slot`` trace lines
as ``--trace-out`` writes them.

Regenerate (only when a result is meant to change) with::

    PYTHONPATH=src python -m tests.cluster.test_golden_cluster
"""

import io
import json
import pathlib

import pytest

from repro.cluster.faults import ChannelLoss, CrashWindow, FaultSchedule
from repro.cluster.scenario import preset_scenarios, run_scenario
from repro.cluster.topology import uniform_topology
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import JsonlTraceSink, Observation

from .test_scenario import quick_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_cluster.json"

#: Configurations whose trace lines are pinned as well.
TRACED = ("faulted",)


def configurations():
    """Name → cluster scenario, in golden-file order."""
    presets = {scenario.name: scenario for scenario in preset_scenarios(quick=True)}
    return {
        "baseline": presets["baseline"],
        "skewed": presets["skewed"],
        # The scenario of test_saturated_cluster_rejects_visibly.
        "saturated": quick_scenario(
            topology=uniform_topology(2, capacity=2, n_titles=4),
            total_rate_per_hour=720.0,
            backlog_limit=1,
            horizon_slots=120,
            warmup_slots=20,
        ),
        "faulted": quick_scenario(
            topology=uniform_topology(
                4, capacity=16, n_titles=6, placement="sharded"
            ),
            router="round-robin",
            horizon_slots=120,
            warmup_slots=20,
            faults=FaultSchedule(
                crashes=(CrashWindow(server_id=0, start_slot=60, end_slot=80),),
                losses=(
                    ChannelLoss(
                        server_id=1, start_slot=30, end_slot=50, fraction=0.75
                    ),
                ),
            ),
        ),
    }


def snapshot(scenario, traced=False):
    """One run's result snapshot, its cluster metrics and, when ``traced``,
    its trace lines."""
    registry = MetricsRegistry()
    lines = io.StringIO()
    observation = Observation(
        metrics=registry, trace=JsonlTraceSink(lines) if traced else None
    )
    result = run_scenario(scenario, observation=observation)
    metrics = registry.to_dict()
    taken = {
        "result": result.to_dict(),
        "metrics": {
            kind: {
                name: value
                for name, value in metrics[kind].items()
                if name.startswith("cluster.")
            }
            for kind in ("counters", "gauges", "histograms")
        },
    }
    if traced:
        taken["trace"] = lines.getvalue().splitlines()
    return taken


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("name", list(configurations()))
def test_cluster_matches_golden(name):
    assert snapshot(configurations()[name], name in TRACED) == GOLDEN[name]


def test_saturated_golden_rejects():
    assert GOLDEN["saturated"]["result"]["rejected"] > 0


def test_faulted_golden_loses_instances_and_channels():
    faulted = GOLDEN["faulted"]
    assert faulted["result"]["instances_lost"] > 0
    records = [json.loads(line) for line in faulted["trace"]]
    assert all(record["kind"] == "cluster-slot" for record in records)
    assert any(
        server["alive"] and server["capacity"] < 16
        for record in records
        for server in record["servers"]
    )


def _generate():
    golden = {
        name: snapshot(scenario, name in TRACED)
        for name, scenario in configurations().items()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _generate()
