"""Tests for repro.edge.scenario — the hierarchy's acceptance criteria.

The load-bearing assertions:

* **golden zero-budget** — a hierarchy with no cache reproduces the pure
  cluster DHB run bit-for-bit (same arrivals, routing, schedules, waits);
* **the cache pays** — at the stock 25 % budget the measured hit ratio
  clears 0.5 and origin demand drops against the zero-budget baseline,
  monotonically in the budget;
* **backend equivalence** — ``edge-scenario`` specs return identical
  results from the serial and process backends.
"""

import numpy as np
import pytest

from repro.cluster.scenario import run_scenario
from repro.edge.scenario import preset_hierarchy, run_hierarchy
from repro.edge.shaping import TrafficClass
from repro.edge.study import run_budget_study
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observation
from repro.runtime import Engine, RunSpec


def quick_hierarchy(**overrides):
    scenario = preset_hierarchy(quick=True)
    if overrides:
        from dataclasses import replace

        scenario = replace(scenario, **overrides)
    return scenario


def test_zero_budget_is_bit_for_bit_the_pure_cluster():
    scenario = quick_hierarchy().with_cache_budget(0)
    hierarchy = run_hierarchy(scenario)
    baseline = run_scenario(scenario.cluster())
    assert hierarchy.cluster.to_dict() == baseline.to_dict()
    assert hierarchy.hits == 0
    assert hierarchy.hit_ratio == 0.0
    assert hierarchy.edge_segments_served == 0


def test_quick_preset_hit_ratio_clears_the_bar():
    result = run_hierarchy(preset_hierarchy(quick=True))
    assert result.hit_ratio > 0.5
    assert result.edge_segments_served > 0
    assert sum(edge.hits for edge in result.edges) == result.hits
    assert sum(edge.segments_served for edge in result.edges) == (
        result.edge_segments_served
    )


def test_cache_budget_reduces_origin_demand_monotonically():
    base = quick_hierarchy()
    study = run_budget_study(base, fractions=(0.0, 0.25, 1.0))
    saved = [point.backbone_saved for point in study.points]
    assert saved[0] == 0.0
    assert saved == sorted(saved)
    assert saved[1] > 0.05
    assert study.points[-1].backbone_saved == pytest.approx(1.0)
    bounds = [point.theory_bound for point in study.points]
    assert bounds == sorted(bounds)
    # Measured savings cannot beat the saturation bound's full-cache limit.
    assert all(point.backbone_saved <= 1.0 + 1e-9 for point in study.points)


def test_waits_never_worse_than_baseline_on_hits():
    scenario = quick_hierarchy()
    result = run_hierarchy(scenario)
    baseline = run_scenario(scenario.with_cache_budget(0).cluster())
    # Prefix hits start at the slot boundary (or a shaped deferral);
    # the mean wait must not regress against the pure-cluster run.
    assert result.cluster.mean_wait <= baseline.mean_wait + 1e-9


def test_suffix_joins_schedule_fewer_instances():
    scenario = quick_hierarchy()
    result = run_hierarchy(scenario)
    baseline = run_scenario(scenario.with_cache_budget(0).cluster())
    assert (
        result.origin_segments_transmitted
        < sum(s.transmitted_instances for s in baseline.servers)
    )


def test_metrics_emitted():
    registry = MetricsRegistry()
    run_hierarchy(
        preset_hierarchy(quick=True),
        observation=Observation(metrics=registry, trace=None),
    )
    snapshot = registry.to_dict()
    assert snapshot["gauges"]["edge.cache.hit_ratio"]["value"] > 0.5
    assert snapshot["counters"]["edge.cache.hits"] > 0
    assert snapshot["counters"]["edge.segments_served"] > 0
    assert "edge.class.premium.requests" in snapshot["counters"]
    assert "edge.class.best-effort.requests" in snapshot["counters"]


def test_serial_and_process_backends_agree():
    scenario = quick_hierarchy()
    specs = [RunSpec("edge-scenario", (scenario,), label=scenario.name)]
    with Engine(n_jobs=1) as engine:
        serial = engine.run_values(specs)[0]
    with Engine(n_jobs=2) as engine:
        pooled = engine.run_values(specs)[0]
    assert serial.to_dict() == pooled.to_dict()


def test_drift_reallocation_is_reproducible():
    scenario = quick_hierarchy(drift=0.4, reallocate_every=40)
    first = run_hierarchy(scenario)
    second = run_hierarchy(scenario)
    assert first.to_dict() == second.to_dict()
    assert sum(edge.reallocations for edge in first.edges) > 0


def test_drift_does_not_perturb_the_arrival_streams():
    # The drift RNG is a named stream: switching drift on must not change
    # which requests arrive, only how caches re-allocate.  Every in-horizon
    # arrival passes through the edge tier exactly once, so the decision
    # total is the arrival count — identical with and without drift.
    still = run_hierarchy(quick_hierarchy())
    drifting = run_hierarchy(quick_hierarchy(drift=0.4, reallocate_every=40))
    assert still.hits + still.misses + still.bypassed == (
        drifting.hits + drifting.misses + drifting.bypassed
    )


def test_validation():
    from dataclasses import replace

    with pytest.raises(ConfigurationError, match="prefix policy"):
        quick_hierarchy(prefix_policy="lru")
    with pytest.raises(ConfigurationError, match="reallocate_every"):
        quick_hierarchy(drift=0.5)
    with pytest.raises(ConfigurationError, match="require DHB"):
        quick_hierarchy(protocol="npb")
    with pytest.raises(ConfigurationError, match="cache_fraction"):
        preset_hierarchy(cache_fraction=1.5)
    # Zero-budget hierarchies accept any slotted protocol (nothing to join).
    zero = quick_hierarchy().with_cache_budget(0)
    assert replace(zero, protocol="npb").protocol == "npb"


def test_shaped_out_class_bypasses_at_scale():
    classes = (
        TrafficClass("premium", weight=1, uplink_share=1.0),
        TrafficClass("free", weight=1, uplink_share=0.0),
    )
    result = run_hierarchy(quick_hierarchy(classes=classes))
    assert result.bypassed > 0
    assert result.class_totals["free"]["bypassed"] == result.bypassed
    assert 0.0 < result.hit_ratio < 1.0


def test_render_and_to_dict():
    result = run_hierarchy(preset_hierarchy(quick=True))
    text = result.render()
    assert "hit ratio" in text and "origin demand" in text
    snapshot = result.to_dict()
    assert snapshot["hit_ratio"] == pytest.approx(result.hit_ratio)
    assert snapshot["cluster"]["admitted"] == result.cluster.admitted


class _JoinAtTier:
    """Stub edge tier: arrival ``i`` hits and joins at ``join_slots[i]``.

    Arrivals past the list join in their own slot.  Every hit holds the
    first segment at the edge, so the origin admits suffix joins.
    """

    def __init__(self, join_slots):
        self.join_slots = list(join_slots)
        self.seen = 0

    def chunk_stop(self, slot, stop):
        return stop

    def decide(self, slot, counts, titles):
        slots = np.repeat(np.arange(slot, slot + len(counts)), counts)
        join_slots = slots.copy()
        for i in range(len(slots)):
            if self.seen + i < len(self.join_slots):
                join_slots[i] = self.join_slots[self.seen + i]
        self.seen += len(slots)
        return np.ones(len(slots), dtype=np.int64), join_slots - slots


def test_joins_at_or_past_the_horizon_are_dropped_and_counted():
    cluster = quick_hierarchy().cluster()
    horizon = cluster.horizon_slots
    # One join lands in the last slot (delivered), one exactly at the
    # horizon and one past it (both dropped when decided).
    tier = _JoinAtTier([horizon - 1, horizon, horizon + 3])
    registry = MetricsRegistry()
    result = run_scenario(
        cluster, Observation(metrics=registry, trace=None), edge_tier=tier
    )
    assert tier.seen > 3
    assert result.admitted + result.rejected == tier.seen - 2
    assert registry.to_dict()["counters"]["cluster.edge_joins_dropped"] == 2


def test_pure_cluster_emits_no_edge_counter():
    registry = MetricsRegistry()
    run_scenario(
        quick_hierarchy().cluster(), Observation(metrics=registry, trace=None)
    )
    assert "cluster.edge_joins_dropped" not in registry.to_dict()["counters"]
