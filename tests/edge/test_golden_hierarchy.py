"""Bit-for-bit hierarchy goldens: results and metrics of six edge runs.

``golden_hierarchy.json`` was generated before the per-arrival edge path
lost its allocations (frozen-dataclass decisions, per-class dict lookups,
pending joins past the horizon kept until the run ends); its ``day`` entry
was added while the shaper still classified and metered hits in per-hit
Python loops, before those became array replays.  Every run must still
reproduce it exactly: the :meth:`HierarchyResult.to_dict` snapshot
and the ``edge.*`` / ``cluster.*`` counters, gauges and histograms
(timers carry wall times and are left out).

The ``edge_joins_dropped`` and ``edge_joins_deferred`` entries count, on the
same runs, hits whose origin join falls at or past the horizon slot and hits
deferred to a later slot inside it.  They were first counted by wrapping the
per-arrival ``EdgeTier.admit`` of the time; the result's ``joins_dropped``
and ``joins_deferred``, read from the decided arrays, must equal them, and
the ``cluster.edge_joins_dropped`` counter must report the first.

Regenerate (only when a result is meant to change) with::

    PYTHONPATH=src python -m tests.edge.test_golden_hierarchy
"""

import dataclasses
import json
import pathlib

import pytest

from repro.cluster.topology import tiered_topology
from repro.edge.scenario import preset_hierarchy, run_hierarchy
from repro.edge.shaping import TrafficClass
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observation
from repro.workload.spec import WorkloadSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_hierarchy.json"


def _stressed(quick):
    # Four times the quick rate on a fractional 2.5-stream uplink: most
    # prefix hits queue on the shaper, some joins land inside the horizon
    # and most past it.
    edges = quick.topology.edges
    topology = tiered_topology(
        quick.topology.origin.n_servers,
        capacity=quick.topology.origin.servers[0].capacity,
        n_titles=quick.topology.n_titles,
        n_edges=len(edges),
        cache_segments=edges[0].cache_segments,
        uplink_streams=2.5,
    )
    return dataclasses.replace(
        quick, topology=topology, total_rate_per_hour=4 * quick.total_rate_per_hour
    )


def _day(stock, scale=10.0):
    # The stock preset over a 24 h diurnal + event-ring day (the shape of
    # the repository benchmark's ``day`` workload, at 10x its 1x rates).
    # Both uplinks stay in debt from the first burst on: every node call
    # shapes a chunk of a few hundred hits, nearly all of them deferred.
    workload = WorkloadSpec.superpose(
        [
            WorkloadSpec.diurnal("child", 120.0 * scale),
            WorkloadSpec.ring(
                peak_rate_per_hour=400.0 * scale,
                n_rings=3,
                ring_delay_hours=0.5,
                attenuation=0.5,
                decay_hours=1.5,
                start_hours=19.0,
            ),
        ]
    )
    return dataclasses.replace(
        stock,
        horizon_slots=int(24 * 3600 / stock.slot_duration),
        workload=workload,
    )


def configurations():
    """Name → hierarchy scenario, in golden-file order."""
    quick = preset_hierarchy(quick=True)
    return {
        "quick": quick,
        "quick_drift": dataclasses.replace(quick, drift=0.4, reallocate_every=40),
        "shaped_out": dataclasses.replace(
            quick,
            classes=(
                TrafficClass("premium", weight=1, uplink_share=1.0),
                TrafficClass("free", weight=1, uplink_share=0.0),
            ),
        ),
        "zero_budget": quick.with_cache_budget(0),
        "stressed": _stressed(quick),
        "day": _day(preset_hierarchy()),
    }


def _layer_metrics(registry):
    snapshot = registry.to_dict()
    return {
        kind: {
            name: value
            for name, value in snapshot[kind].items()
            if name.startswith(("edge.", "cluster."))
        }
        for kind in ("counters", "gauges", "histograms")
    }


def snapshot(scenario):
    """One run's result snapshot, edge/cluster metrics and join counts."""
    registry = MetricsRegistry()
    result = run_hierarchy(
        scenario, observation=Observation(metrics=registry, trace=None)
    )
    return {
        "result": result.to_dict(),
        "metrics": _layer_metrics(registry),
        "edge_joins_dropped": result.joins_dropped,
        "edge_joins_deferred": result.joins_deferred,
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("name", list(configurations()))
def test_hierarchy_matches_golden(name):
    golden = GOLDEN[name]
    got = snapshot(configurations()[name])
    counters = got["metrics"]["counters"]
    dropped = counters.pop("cluster.edge_joins_dropped")
    assert dropped == golden["edge_joins_dropped"]
    assert got["edge_joins_dropped"] == golden["edge_joins_dropped"]
    assert got["edge_joins_deferred"] == golden["edge_joins_deferred"]
    assert got["result"] == golden["result"]
    assert got["metrics"] == golden["metrics"]


def test_stressed_run_defers_inside_and_past_the_horizon():
    golden = GOLDEN["stressed"]
    assert golden["edge_joins_deferred"] > 0
    assert golden["edge_joins_dropped"] > 0


def test_stock_preset_overload_is_reported():
    # The stock `repro-cli edge` hierarchy: 1,362 of its 1,374 hits are
    # deferred, 470 of them past the horizon; the hits' deferral has median
    # 174 slots, p99 390 and max 402.
    result = run_hierarchy(preset_hierarchy(seed=2001))
    assert result.hits == 1374
    assert result.joins_deferred + result.joins_dropped == 1362
    assert result.joins_dropped == 470
    assert result.median_deferral_slots == 174
    assert result.p99_deferral_slots == 390
    assert result.max_deferral_slots == 402
    deferrals = sum(totals["deferrals"] for totals in result.class_totals.values())
    assert deferrals == 1362
    assert "joins" not in json.dumps(result.to_dict())


def _generate():
    golden = {}
    for name, scenario in configurations().items():
        entry = snapshot(scenario)
        # The file keeps the dropped count once, beside the metrics.
        entry["metrics"]["counters"].pop("cluster.edge_joins_dropped")
        golden[name] = entry
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _generate()
