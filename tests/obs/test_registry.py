"""Tests for repro.obs.registry."""

import json

import pytest

from repro.cluster.scenario import preset_scenarios, run_scenario
from repro.core.adaptive import AdaptiveDHBProtocol
from repro.core.bandwidth_limited import BandwidthLimitedDHB
from repro.core.dhb import DHBProtocol
from repro.edge.scenario import preset_hierarchy, run_hierarchy
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.protocols.npb import NewPagodaBroadcasting
from repro.protocols.stream_tapping import StreamTappingProtocol
from repro.protocols.ud import UniversalDistributionProtocol
from repro.runtime.seeds import arrival_trace
from repro.sim.continuous import ContinuousSimulation
from repro.sim.slotted import SlottedSimulation


class TestInstruments:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.slots")
        counter.inc()
        counter.inc(4)
        assert registry.counter("sim.slots") is counter
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("sim.warmup_slots")
        gauge.set(3)
        gauge.set(7)
        assert gauge.value == 7.0
        assert gauge.updates == 2

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("sim.slot_load")
        for value in (2.0, 4.0, 6.0):
            histogram.observe(value)
        assert histogram.stats.count == 3
        assert histogram.stats.mean == pytest.approx(4.0)
        assert histogram.stats.minimum == 2.0
        assert histogram.stats.maximum == 6.0

    def test_timer_span_observes_elapsed(self):
        timer = MetricsRegistry().timer("sim.run_seconds")
        with timer.time():
            pass
        assert timer.stats.count == 1
        assert timer.stats.minimum >= 0.0

    def test_instruments_lists_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        registry.histogram("c").observe(1.0)
        with registry.timer("d").time():
            pass
        assert sorted(name for name, _ in registry.instruments()) == list("abcd")


class TestMergeAndSerialization:
    def test_merge_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        b.counter("only_b").inc(1)
        a.merge(b)
        assert a.counter("n").value == 5
        assert a.counter("only_b").value == 1

    def test_merge_gauges_last_writer_wins_only_when_set(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g")  # touched but never set: must not clobber
        a.merge(b)
        assert a.gauge("g").value == 1.0
        b.gauge("g").set(9.0)
        a.merge(b)
        assert a.gauge("g").value == 9.0

    def test_merge_histograms_lossless(self):
        values = [1.0, 2.0, 3.0, 10.0, 20.0]
        whole = MetricsRegistry()
        for value in values:
            whole.histogram("h").observe(value)
        left, right = MetricsRegistry(), MetricsRegistry()
        for value in values[:2]:
            left.histogram("h").observe(value)
        for value in values[2:]:
            right.histogram("h").observe(value)
        left.merge(right)
        merged, direct = left.histogram("h").stats, whole.histogram("h").stats
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean)
        assert merged.variance == pytest.approx(direct.variance)
        assert (merged.minimum, merged.maximum) == (direct.minimum, direct.maximum)

    def test_dict_round_trip_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        with registry.timer("t").time():
            pass
        state = json.loads(json.dumps(registry.to_dict()))
        clone = MetricsRegistry.from_dict(state)
        assert clone.to_dict() == registry.to_dict()

    def test_merge_dict_equals_merge(self):
        a1, a2, b = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(2)
        b.histogram("h").observe(4.0)
        a1.merge(b)
        a2.merge_dict(b.to_dict())
        assert a1.to_dict() == a2.to_dict()


class TestMetricsOff:
    """``None`` is the only way metrics are off, and it builds nothing.

    Every registry constructor and instrument accessor raises for the
    length of each test, so a run that touches the registry anywhere on
    its path fails instead of finishing.
    """

    @pytest.fixture(autouse=True)
    def registry_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a registry was touched with metrics off")

        for name in ("__init__", "counter", "gauge", "histogram", "timer"):
            monkeypatch.setattr(MetricsRegistry, name, refuse)

    def test_the_patch_bites(self):
        with pytest.raises(AssertionError):
            MetricsRegistry()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DHBProtocol(n_segments=20),
            lambda: AdaptiveDHBProtocol(20, ((0.0, 0), (0.5, 3)), epoch_slots=2),
            lambda: BandwidthLimitedDHB(n_segments=20, client_cap=2),
            lambda: UniversalDistributionProtocol(n_segments=20),
            lambda: NewPagodaBroadcasting(n_streams=3, n_segments=7),
        ],
        ids=["dhb", "adaptive-dhb", "bandwidth-limited", "ud", "npb"],
    )
    def test_slotted_simulation(self, build):
        arrivals = arrival_trace(5, workload=60.0, horizon_hours=2.0)
        result = SlottedSimulation(build(), 360.0, 20, warmup_slots=2).run(arrivals)
        assert result.n_requests > 0

    def test_continuous_simulation(self):
        arrivals = arrival_trace(5, workload=60.0, horizon_hours=2.0)
        protocol = StreamTappingProtocol(7200.0, expected_rate_per_hour=60.0)
        result = ContinuousSimulation(protocol, 7200.0, warmup=600.0).run(arrivals)
        assert result.n_requests > 0

    def test_run_scenario(self):
        for scenario in preset_scenarios(quick=True):
            assert run_scenario(scenario, observation=None).admitted > 0

    def test_run_hierarchy(self):
        result = run_hierarchy(preset_hierarchy(quick=True), observation=None)
        assert result.hits > 0
