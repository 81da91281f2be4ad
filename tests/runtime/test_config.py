"""Runtime config: one precedence chain (default < environment < argument).

The environment is *advisory*: a typo'd shell export (``REPRO_SWEEP_JOBS=4x``)
must warn and fall back to serial, never abort an experiment mid-sweep.
Explicit arguments are code and still raise.
"""

import os
import subprocess
import sys
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.runtime.cache import ARRIVAL_CACHE
from repro.runtime.config import (
    BACKEND_ENV,
    DEFAULT_N_JOBS,
    DEFAULT_TRACE_CACHE_SIZE,
    N_JOBS_ENV,
    resolve_backend_name,
    resolve_n_jobs,
)
from repro.runtime import Engine, RunSpec, SerialBackend

ALL_CORES = os.cpu_count() or 1


class TestNJobsPrecedence:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        assert resolve_n_jobs() == DEFAULT_N_JOBS == 1

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert resolve_n_jobs() == 3

    def test_explicit_argument_overrides_config(self, monkeypatch):
        """An argument overrides the environment's configuration."""
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert resolve_n_jobs(5) == 5
        assert Engine(n_jobs=5, backend="serial").n_jobs == 5

    def test_negative_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        assert resolve_n_jobs(-1) == ALL_CORES

    def test_zero_argument_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)
        with pytest.raises(ConfigurationError):
            Engine(n_jobs=0)


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
        monkeypatch.setenv(N_JOBS_ENV, "4x")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            engine = Engine()
        assert engine.n_jobs == 1
        assert engine.run_values([RunSpec("figure-render", (1,))])

    def test_unknown_backend_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "quantum")
        with pytest.warns(RuntimeWarning, match="quantum"):
            assert resolve_backend_name() is None

    def test_backend_env_honoured(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        assert resolve_backend_name() == "serial"
        # Serial although four workers would otherwise pick the process pool.
        assert isinstance(Engine(n_jobs=4).backend, SerialBackend)

    def test_backend_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert resolve_backend_name("serial") == "serial"
        assert isinstance(Engine(n_jobs=4, backend="serial").backend, SerialBackend)


class TestTraceCacheSize:
    """The shared trace cache has one fixed bound; nothing configures it."""

    def test_default(self):
        assert ARRIVAL_CACHE.max_entries == DEFAULT_TRACE_CACHE_SIZE == 64

    def test_environment(self):
        # A fresh interpreter, so the variable is set before the cache is built.
        env = dict(
            os.environ, REPRO_TRACE_CACHE_SIZE="3", PYTHONPATH=os.pathsep.join(sys.path)
        )
        probe = "from repro.runtime.cache import cache_info; print(cache_info().max_entries)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "64"
