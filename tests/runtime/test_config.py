"""Runtime config: one precedence chain (env < config field < argument).

The environment is *advisory*: a typo'd shell export (``REPRO_SWEEP_JOBS=4x``)
must warn and fall back to serial, never abort an experiment mid-sweep.
Explicit arguments and config fields are code and still raise.
"""

import os
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.runtime.config import (
    BACKEND_ENV,
    DEFAULT_N_JOBS,
    DEFAULT_TRACE_CACHE_SIZE,
    N_JOBS_ENV,
    TRACE_CACHE_ENV,
    RuntimeConfig,
    resolve_n_jobs,
)

ALL_CORES = os.cpu_count() or 1


class TestNJobsPrecedence:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        assert resolve_n_jobs() == DEFAULT_N_JOBS == 1

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert resolve_n_jobs() == 3

    def test_config_field_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert RuntimeConfig(n_jobs=2).resolve_n_jobs() == 2

    def test_explicit_argument_overrides_config(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert RuntimeConfig(n_jobs=2).resolve_n_jobs(5) == 5

    def test_negative_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        assert resolve_n_jobs(-1) == ALL_CORES

    def test_zero_argument_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)

    def test_zero_config_field_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(n_jobs=0).resolve_n_jobs()


class TestAdvisoryEnvironment:
    """Satellite bugfix: malformed env values warn and fall back, never raise."""

    #: (raw REPRO_SWEEP_JOBS, resolved n_jobs, warns?)
    JOBS_TABLE = [
        ("4", 4, False),
        (" 8 ", 8, False),
        ("-1", ALL_CORES, False),
        ("", DEFAULT_N_JOBS, False),
        ("  ", DEFAULT_N_JOBS, False),
        ("4x", DEFAULT_N_JOBS, True),
        ("two", DEFAULT_N_JOBS, True),
        ("3.5", DEFAULT_N_JOBS, True),
        ("0", DEFAULT_N_JOBS, True),
    ]

    @pytest.mark.parametrize("raw,expected,warns", JOBS_TABLE)
    def test_sweep_jobs_env_table(self, monkeypatch, raw, expected, warns):
        monkeypatch.setenv(N_JOBS_ENV, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_n_jobs() == expected
        assert bool([w for w in caught if w.category is RuntimeWarning]) == warns

    def test_malformed_env_does_not_break_an_engine(self, monkeypatch):
        from repro.runtime import Engine, RunSpec

        monkeypatch.setenv(N_JOBS_ENV, "4x")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            engine = Engine()
        assert engine.n_jobs == 1
        assert engine.run_values([RunSpec("figure-render", (1,))])

    def test_malformed_trace_cache_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, "lots")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            size = RuntimeConfig().resolve_trace_cache_size()
        assert size == DEFAULT_TRACE_CACHE_SIZE

    def test_unknown_backend_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "quantum")
        with pytest.warns(RuntimeWarning, match="quantum"):
            assert RuntimeConfig().resolve_backend() is None

    def test_backend_env_honoured(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        assert RuntimeConfig().resolve_backend() == "serial"

    def test_backend_config_field_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        assert RuntimeConfig(backend="process").resolve_backend() == "process"

    def test_backend_explicit_overrides_config(self):
        assert RuntimeConfig(backend="process").resolve_backend("serial") == "serial"


class TestTraceCacheSize:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        size = RuntimeConfig().resolve_trace_cache_size()
        assert size == DEFAULT_TRACE_CACHE_SIZE

    def test_environment(self, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, "7")
        assert RuntimeConfig().resolve_trace_cache_size() == 7

    def test_config_field_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, "7")
        assert RuntimeConfig(trace_cache_size=9).resolve_trace_cache_size() == 9

    def test_explicit_overrides_config(self):
        assert RuntimeConfig(trace_cache_size=9).resolve_trace_cache_size(4) == 4

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig().resolve_trace_cache_size(0)
