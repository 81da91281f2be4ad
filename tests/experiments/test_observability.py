"""Observability through the sweep layer: merge semantics, manifests, traces.

The load-bearing invariant: an observed sweep reports the same metrics and
the same trace-record stream whether it ran serially or fanned out across
worker processes (timers excepted — wall clock is not deterministic).
"""

from dataclasses import asdict

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.fig9 import run_fig9
from repro.experiments.runner import sweep_protocols
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import MemoryTraceSink, Observation
from repro.runtime import Engine, RunSpec, observed_run

QUICK = SweepConfig().quick(
    rates_per_hour=(10.0, 100.0), base_hours=2.0, min_requests=10
)

DETERMINISTIC_SECTIONS = ("counters", "gauges", "histograms")


def _observed_series(n_jobs, trace=None):
    registry = MetricsRegistry()
    observation = Observation(metrics=registry, trace=trace)
    series = sweep_protocols(
        ["dhb", "npb"], QUICK, observation=observation, engine=Engine(n_jobs=n_jobs)
    )
    return series, registry


class TestRegistryMergeAcrossWorkers:
    def test_parallel_metrics_equal_serial(self):
        serial_series, serial_registry = _observed_series(n_jobs=1)
        parallel_series, parallel_registry = _observed_series(n_jobs=2)
        serial, parallel = serial_registry.to_dict(), parallel_registry.to_dict()
        for section in DETERMINISTIC_SECTIONS:
            assert serial[section] == parallel[section], section
        # Timers keep per-process wall times; counts still line up.
        assert {
            name: payload["count"] for name, payload in serial["timers"].items()
        } == {name: payload["count"] for name, payload in parallel["timers"].items()}

    def test_parallel_series_equal_serial(self):
        serial_series, _ = _observed_series(n_jobs=1)
        parallel_series, _ = _observed_series(n_jobs=2)
        for a, b in zip(serial_series, parallel_series):
            assert a.protocol == b.protocol
            assert a.points == b.points

    def test_trace_records_arrive_in_task_order(self):
        serial_sink, parallel_sink = MemoryTraceSink(), MemoryTraceSink()
        _observed_series(n_jobs=1, trace=serial_sink)
        _observed_series(n_jobs=2, trace=parallel_sink)
        assert serial_sink.records == parallel_sink.records
        # Task order: all of dhb's rates, then all of npb's.
        labels = [record["protocol"] for record in parallel_sink.records]
        assert labels == sorted(labels, key=["dhb", "npb"].index)

    def test_observation_does_not_change_measurements(self):
        plain = sweep_protocols(["dhb"], QUICK, engine=Engine(n_jobs=1))
        observed, _ = _observed_series(n_jobs=1)
        assert plain[0].points == observed[0].points

    def test_fig9_shared_registry_does_not_change_measurements(self):
        # Unlike the sweep path (fresh registry per grid cell), fig9
        # threads ONE registry through every (protocol, rate) measurement;
        # a recorder that aliased the cumulative sim.slot_load histogram
        # would corrupt every point after the first.
        config = SweepConfig().quick(
            rates_per_hour=(5.0, 50.0), base_hours=2.0, min_requests=10
        )
        plain = run_fig9(config)
        observed = run_fig9(
            config, observation=Observation(metrics=MetricsRegistry())
        )
        for a, b in zip(plain, observed):
            assert a.protocol == b.protocol
            assert a.points == b.points

    def test_measure_points_merges_per_cell_registries(self):
        registry = MetricsRegistry()
        observation = Observation(metrics=registry)
        specs = [
            RunSpec("sweep-point", ("npb", "npb", rate, QUICK), label="npb")
            for rate in QUICK.rates_per_hour
        ]
        Engine(n_jobs=1).run_values(specs, observation=observation)
        assert registry.counter("measure.points").value == len(specs)
        assert registry.counter("sim.slots").value > 0


def _sweep_in_run(names, experiment="sweep", n_jobs=None):
    """A QUICK sweep of ``names`` inside one ``observed_run`` session."""
    with observed_run(
        experiment, protocols=names, params=asdict(QUICK), seed=QUICK.seed
    ) as run:
        series = sweep_protocols(
            names, QUICK, n_jobs=n_jobs, observation=run.observation
        )
    return run, series


class TestObservedSweep:
    def test_manifest_attached_and_complete(self):
        run, _ = _sweep_in_run(["npb"], experiment="fig7")
        assert run.manifest.experiment == "fig7"
        assert run.manifest.protocols == ["npb"]
        assert run.manifest.seed == QUICK.seed
        assert run.manifest.params["n_segments"] == QUICK.n_segments
        assert run.manifest.duration_seconds > 0.0
        assert run.manifest.python_version

    def test_metrics_document_schema(self):
        run, _ = _sweep_in_run(["npb"])
        document = run.metrics_document()
        assert document["schema"] == 1
        assert document["manifest"]["experiment"] == "sweep"
        assert document["metrics"]["counters"]["measure.points"] == len(
            QUICK.rates_per_hour
        )

    def test_sweep_counts_every_grid_cell(self):
        run, _ = _sweep_in_run(["dhb", "npb"], n_jobs=2)
        expected_points = 2 * len(QUICK.rates_per_hour)
        assert run.metrics.counter("measure.points").value == expected_points
        histogram = run.metrics.histogram("sim.slot_load").stats
        assert histogram.count > 0
        assert run.metrics.timer("sim.run_seconds").stats.count == expected_points

    def test_slot_load_histogram_consistent_with_series(self):
        run, series = _sweep_in_run(["npb"])
        points = series[0].points
        stats = run.metrics.histogram("sim.slot_load").stats
        # The pooled histogram covers exactly the measured slots, so its
        # extremes and mean must bracket the per-point summaries.
        assert stats.maximum == max(point.max_bandwidth for point in points)
        assert (
            min(p.mean_bandwidth for p in points)
            <= stats.mean
            <= max(p.mean_bandwidth for p in points)
        ) or stats.mean == pytest.approx(points[0].mean_bandwidth)
