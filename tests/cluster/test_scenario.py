"""Tests for repro.cluster.scenario — the acceptance criteria of the layer.

The three load-bearing assertions:

* **statistical multiplexing** — pooling a replicated catalog on a cluster
  needs strictly less capacity at a 10^-3 overflow than provisioning each
  title on its own server;
* **degraded mode** — a mid-run crash loses no admitted request's segments
  (every lost instance reappears on a survivor inside its delivery window,
  and nothing is deferred), with the rerouted load visible in the
  survivors' ``cluster.*`` metrics;
* **parallel determinism** — a scenario batch run across a process pool is
  bit-for-bit the serial run (results, traces, and every deterministic
  metric; wall-clock timers are exempt by nature).
"""

import pytest

from repro.cluster.faults import NO_FAULTS, CrashWindow, FaultSchedule
from repro.cluster.scenario import (
    ClusterScenario,
    preset_scenarios,
    run_scenario,
    run_scenarios,
)
from repro.cluster.topology import uniform_topology
from repro.errors import ClusterError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import MemoryTraceSink, Observation


def quick_scenario(**overrides):
    defaults = dict(
        name="test",
        topology=uniform_topology(4, capacity=16, n_titles=6),
        router="affinity",
        n_segments=30,
        slot_duration=20.0,
        horizon_slots=240,
        warmup_slots=40,
        total_rate_per_hour=240.0,
        seed=2001,
    )
    defaults.update(overrides)
    return ClusterScenario(**defaults)


class TestScenarioValidation:
    def test_rejects_unknown_router_and_non_slotted_protocol(self):
        with pytest.raises(ClusterError):
            quick_scenario(router="dns")
        with pytest.raises(ClusterError):
            quick_scenario(protocol="patching")

    def test_rejects_crashes_for_non_reschedulable_protocol(self):
        faults = FaultSchedule(crashes=(CrashWindow(0, 100, 120),))
        with pytest.raises(ClusterError, match="DHB"):
            quick_scenario(protocol="ud", faults=faults)
        # Channel loss alone is fine for any slotted protocol.
        quick_scenario(protocol="ud")

    def test_rejects_fault_on_unknown_server(self):
        with pytest.raises(ClusterError, match="unknown server"):
            quick_scenario(faults=FaultSchedule(crashes=(CrashWindow(9, 10, 20),)))


class TestStatisticalMultiplexing:
    def test_pooled_capacity_strictly_below_per_title_sum(self):
        """The acceptance criterion: a seeded N-server replicated-catalog
        run needs strictly less capacity for a 10^-3 overflow than the sum
        of per-title single-server provisioning."""
        result = run_scenario(quick_scenario())
        pooled = result.capacity_for_overflow(1e-3)
        # Σ per-title capacities: what separate single-title servers cost.
        naive = sum(
            result.title_capacity_for_overflow(title, 1e-3)
            for title in range(len(result.per_title))
        )
        assert pooled < naive
        assert result.rejected == 0
        assert result.deferred_instance_slots == 0

    def test_per_title_series_sum_to_aggregate(self):
        result = run_scenario(quick_scenario())
        assert result.per_title is not None
        assert (result.per_title.sum(axis=0) == result.aggregate).all()


class TestDegradedMode:
    CRASH = FaultSchedule(crashes=(CrashWindow(0, 120, 150),))

    def scenario(self):
        return quick_scenario(
            topology=uniform_topology(4, capacity=24, n_titles=6),
            faults=self.CRASH,
        )

    def test_crash_loses_no_admitted_segment(self):
        registry = MetricsRegistry()
        result = run_scenario(
            self.scenario(), observation=Observation(metrics=registry)
        )
        assert result.crashes == 1
        assert result.instances_lost == 0
        assert len(result.failovers) > 0
        # Every orphaned instance reappears inside its delivery window on a
        # surviving server, and nothing was deferred past its slot — so
        # every admitted client receives every segment on time.
        for event in result.failovers:
            assert event.from_server == 0
            assert event.to_server != 0
            assert event.slot <= event.placed_slot <= event.due_slot
        assert result.deferred_instance_slots == 0
        assert result.rejected == 0

    def test_rerouted_load_visible_in_survivor_metrics(self):
        registry = MetricsRegistry()
        result = run_scenario(
            self.scenario(), observation=Observation(metrics=registry)
        )
        counters = registry.to_dict()["counters"]
        assert counters["cluster.crashes"] == 1
        assert counters["cluster.failover.instances"] == len(result.failovers)
        assert counters["cluster.failover.lost"] == 0
        assert counters["cluster.server.0.down_slots"] == 30
        survivor_in = sum(
            counters[f"cluster.server.{server_id}.failover_in"]
            for server_id in (1, 2, 3)
        )
        assert survivor_in == len(result.failovers) > 0
        assert counters["cluster.server.0.failover_in"] == 0

    def test_crashed_server_takes_requests_again_after_recovery(self):
        result = run_scenario(self.scenario())
        summary = result.servers[0]
        assert summary.down_slots == 30
        # Affinity routing sends its primary titles back after recovery.
        assert summary.admitted > 0


class TestOverload:
    def test_saturated_cluster_rejects_visibly(self):
        registry = MetricsRegistry()
        scenario = quick_scenario(
            topology=uniform_topology(2, capacity=2, n_titles=4),
            total_rate_per_hour=720.0,
            backlog_limit=1,
            horizon_slots=120,
            warmup_slots=20,
        )
        result = run_scenario(scenario, observation=Observation(metrics=registry))
        assert result.rejected > 0
        assert result.admitted > 0
        counters = registry.to_dict()["counters"]
        assert counters["cluster.rejected"] == result.rejected
        assert result.deferred_instance_slots > 0


class TestDeterminism:
    def test_same_scenario_same_result(self):
        scenario = quick_scenario()
        assert run_scenario(scenario).to_dict() == run_scenario(scenario).to_dict()

    def test_parallel_is_bit_for_bit_serial(self):
        scenarios = preset_scenarios(seed=2001, quick=True)

        def run(n_jobs):
            registry = MetricsRegistry()
            sink = MemoryTraceSink()
            results = run_scenarios(
                scenarios,
                n_jobs=n_jobs,
                observation=Observation(metrics=registry, trace=sink),
            )
            return [r.to_dict() for r in results], registry.to_dict(), sink.records

        serial_results, serial_metrics, serial_trace = run(1)
        parallel_results, parallel_metrics, parallel_trace = run(3)
        assert parallel_results == serial_results
        assert parallel_trace == serial_trace
        # Wall-clock timers can never be bit-for-bit; everything else must.
        for kind in ("counters", "gauges", "histograms"):
            assert parallel_metrics[kind] == serial_metrics[kind]
        assert sorted(parallel_metrics["timers"]) == sorted(serial_metrics["timers"])

    def test_results_arrive_in_input_order(self):
        scenarios = preset_scenarios(seed=2001, quick=True)
        results = run_scenarios(scenarios, n_jobs=2)
        assert [r.scenario for r in results] == [s.name for s in scenarios]


class TestPresets:
    def test_presets_cover_the_three_stories(self):
        names = [s.name for s in preset_scenarios(quick=True)]
        assert names == ["baseline", "skewed", "crash"]
        full = preset_scenarios(quick=False)
        assert all(s.horizon_slots > s.warmup_slots for s in full)
        crash = [s for s in full if s.name == "crash"][0]
        assert crash.faults is not NO_FAULTS
        assert crash.faults.crashes[0].start_slot < crash.horizon_slots
