"""Bit-for-bit cluster goldens: results and metrics of three cluster runs.

``golden_cluster.json`` pins the routing paths the ``crash`` golden in
``tests/runtime/golden_runtime.json`` leaves open: the quick ``baseline``
preset (affinity routing), the quick ``skewed`` preset (least-loaded
routing over a popularity placement) and a saturated two-server run whose
router rejects requests.  Every run must reproduce its
:meth:`ClusterResult.to_dict` snapshot and its ``cluster.*`` counters,
gauges and histograms exactly (timers carry wall times and are left out).

Regenerate (only when a result is meant to change) with::

    PYTHONPATH=src python -m tests.cluster.test_golden_cluster
"""

import json
import pathlib

import pytest

from repro.cluster.scenario import preset_scenarios, run_scenario
from repro.cluster.topology import uniform_topology
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observation

from .test_scenario import quick_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_cluster.json"


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
    }


def snapshot(scenario):
    """One run's result snapshot and its cluster metrics."""
    registry = MetricsRegistry()
    result = run_scenario(scenario, observation=Observation(metrics=registry))
    metrics = registry.to_dict()
    return {
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


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("name", list(configurations()))
def test_cluster_matches_golden(name):
    assert snapshot(configurations()[name]) == GOLDEN[name]


def test_saturated_golden_rejects():
    assert GOLDEN["saturated"]["result"]["rejected"] > 0


def _generate():
    golden = {name: snapshot(scenario) for name, scenario in configurations().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _generate()
