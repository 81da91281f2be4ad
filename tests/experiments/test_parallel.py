"""Parallel sweeps through the Engine (and the runner's trace cache)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SweepConfig
from repro.experiments.runner import (
    arrivals_for_rate,
    clear_trace_cache,
    sweep_protocols,
)
from repro.runtime import Engine, RunSpec
from repro.runtime.config import N_JOBS_ENV, resolve_n_jobs


CONFIG = SweepConfig().quick(
    rates_per_hour=(5.0, 30.0), base_hours=2.0, min_requests=10
)


class TestResolveNJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "7")
        assert resolve_n_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "4")
        assert resolve_n_jobs(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        assert resolve_n_jobs(None) == 1

    def test_negative_means_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)

    def test_bad_env_value_warns_and_falls_back(self, monkeypatch):
        # The environment is advisory: a typo'd export degrades to serial
        # with a warning instead of aborting the run (see runtime.config).
        monkeypatch.setenv(N_JOBS_ENV, "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert resolve_n_jobs(None) == 1


class TestParallelEqualsSerial:
    def test_sweep_is_bit_for_bit_identical(self):
        names = ["dhb", "ud"]
        serial = sweep_protocols(names, CONFIG, n_jobs=1)
        parallel = sweep_protocols(names, CONFIG, n_jobs=2)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert a.protocol == b.protocol
            # BandwidthPoint is a dataclass: == compares every float exactly.
            assert a.points == b.points

    def test_measure_points_preserves_order(self):
        specs = [
            RunSpec("sweep-point", ("npb", "npb", rate, CONFIG), label="npb")
            for rate in CONFIG.rates_per_hour
        ]
        serial = Engine(n_jobs=1).run_values(specs)
        pooled = Engine(n_jobs=2).run_values(specs)
        assert serial == pooled
        assert [p.rate_per_hour for p in serial] == list(CONFIG.rates_per_hour)

    def test_sweep_labels_must_parallel_names(self):
        with pytest.raises(ConfigurationError):
            sweep_protocols(
                ["dhb", "ud"], CONFIG, labels=["only-one"], engine=Engine(n_jobs=1)
            )


class TestTraceCache:
    def test_cache_returns_same_object(self):
        clear_trace_cache()
        a = arrivals_for_rate(CONFIG, 30.0)
        b = arrivals_for_rate(CONFIG, 30.0)
        assert a is b

    def test_cached_trace_is_read_only(self):
        clear_trace_cache()
        trace = arrivals_for_rate(CONFIG, 30.0)
        assert not trace.flags.writeable
        with pytest.raises(ValueError):
            trace[0] = 0.0

    def test_clear_forces_regeneration(self):
        a = arrivals_for_rate(CONFIG, 30.0)
        clear_trace_cache()
        b = arrivals_for_rate(CONFIG, 30.0)
        assert a is not b
        assert np.array_equal(a, b)  # same seed, same trace values

    def test_distinct_keys_distinct_traces(self):
        clear_trace_cache()
        a = arrivals_for_rate(CONFIG, 5.0)
        b = arrivals_for_rate(CONFIG, 30.0)
        c = arrivals_for_rate(CONFIG.replace(seed=99), 5.0)
        assert a is not b
        assert a is not c
