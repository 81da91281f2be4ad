"""Runtime knobs, consolidated: one place reads the environment.

Every execution-layer setting — worker counts, the backend, the default
sweep horizons — lives here, with one documented precedence chain::

    environment variable  <  RuntimeConfig field  <  explicit argument

i.e. an explicit function argument always wins, an unset argument falls
back to the :class:`RuntimeConfig` object in play, and an unset config
field falls back to the environment (then to the baked-in default).
Every reader of ``REPRO_SWEEP_JOBS`` routes through
:meth:`RuntimeConfig.resolve_n_jobs`.

Environment variables
---------------------
``REPRO_SWEEP_JOBS``
    Worker processes for any :class:`~repro.runtime.engine.Engine` fan-out
    (``-1`` means "all cores"; unset means serial).
``REPRO_BACKEND``
    Default execution backend name (``serial`` or ``process``; ``socket``
    needs addresses, so it is CLI/constructor-only).

The environment is *advisory*: a malformed value (``REPRO_SWEEP_JOBS=4x``,
an unknown backend name) must never blow up deep inside an experiment the
user launched without thinking about the runtime, so it falls back to the
baked-in default with a :class:`RuntimeWarning`.  Explicit arguments and
config fields are code, and invalid ones raise
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError

#: Environment variable naming the default Engine worker count.
N_JOBS_ENV = "REPRO_SWEEP_JOBS"

#: Environment variable naming the default execution backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment variable bounding each serving session's send queue (frames).
SERVE_QUEUE_ENV = "REPRO_SERVE_QUEUE_FRAMES"

#: Backend names the environment may select (socket needs addresses, so
#: it is constructor/CLI-only; see repro.runtime.backends).
ENV_BACKEND_NAMES = ("serial", "process", "process-pool")

#: Serial execution when neither argument, config, nor environment say more.
DEFAULT_N_JOBS = 1

#: Bound on the shared (seed, rate, horizon) arrival-trace cache.
DEFAULT_TRACE_CACHE_SIZE = 64

# -- default sweep horizons (shared by SweepConfig and the CLI) ------------

#: Minimum simulated hours per sweep point (paper-scale runs).
DEFAULT_BASE_HOURS = 40.0

#: Minimum simulated requests per sweep point (horizons stretch at low rates).
DEFAULT_MIN_REQUESTS = 400

#: Leading fraction of every horizon discarded as warmup.
DEFAULT_WARMUP_FRACTION = 0.1

#: The repository-wide default workload seed (the paper's publication year).
DEFAULT_SEED = 2001

#: ``SweepConfig.quick()`` horizons: rates, base hours, minimum requests.
QUICK_RATES_PER_HOUR = (2.0, 50.0, 500.0)
QUICK_BASE_HOURS = 6.0
QUICK_MIN_REQUESTS = 40

# -- live serving defaults (repro.serve) -----------------------------------

#: Frames a serving session's send queue may buffer before the daemon
#: evicts the (slow) client; overridable per daemon and via the
#: ``REPRO_SERVE_QUEUE_FRAMES`` environment variable.
DEFAULT_SERVE_QUEUE_FRAMES = 64


def _env_int(name: str) -> Optional[int]:
    """The environment variable as an int; ``None`` when unset/empty.

    Malformed values (``"4x"``, ``"two"``) warn and return ``None`` —
    the environment is advisory (see the module docstring), and a typo'd
    shell export must not abort an experiment mid-sweep.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {name}={raw!r}: not an integer; using the default",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution settings for one :class:`~repro.runtime.engine.Engine`.

    Unset fields (``None``) defer to the environment, then to the defaults
    above; see the module docstring for the full precedence chain.

    >>> RuntimeConfig(n_jobs=2).resolve_n_jobs()
    2
    >>> RuntimeConfig(n_jobs=2).resolve_n_jobs(3)   # explicit argument wins
    3
    """

    n_jobs: Optional[int] = None
    backend: Optional[str] = None

    def resolve_n_jobs(self, explicit: Optional[int] = None) -> int:
        """The effective worker count (explicit > config > env > serial).

        Negative values mean "all available cores"; zero is rejected —
        except from the environment, where any invalid value (malformed
        or zero) warns and falls back to serial (advisory env contract).
        """
        value = explicit if explicit is not None else self.n_jobs
        from_env = False
        if value is None:
            value = _env_int(N_JOBS_ENV)
            from_env = True
        if value is None:
            return DEFAULT_N_JOBS
        value = int(value)
        if value == 0:
            if from_env:
                warnings.warn(
                    f"ignoring {N_JOBS_ENV}=0: worker count must be >= 1 "
                    "or negative (all cores); running serial",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return DEFAULT_N_JOBS
            raise ConfigurationError("n_jobs must be >= 1 or negative (all cores)")
        if value < 0:
            return os.cpu_count() or 1
        return value

    def resolve_backend(self, explicit: Optional[str] = None) -> Optional[str]:
        """The effective backend *name* (explicit > config > env > ``None``).

        ``None`` means "let the Engine pick from the worker count".  An
        unknown name from the environment warns and is ignored; explicit
        and config values are validated by
        :func:`repro.runtime.backends.resolve_backend` when the Engine
        instantiates them.
        """
        value = explicit if explicit is not None else self.backend
        if value is not None:
            return value
        raw = os.environ.get(BACKEND_ENV, "").strip().lower()
        if not raw:
            return None
        if raw not in ENV_BACKEND_NAMES:
            warnings.warn(
                f"ignoring {BACKEND_ENV}={raw!r}: not one of "
                f"{'/'.join(ENV_BACKEND_NAMES)}; using the worker-count default",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return raw


#: The process-wide default configuration (all fields deferred to env).
DEFAULT_CONFIG = RuntimeConfig()


def resolve_n_jobs(
    n_jobs: Optional[int] = None, config: Optional[RuntimeConfig] = None
) -> int:
    """Resolve a worker count outside any Engine.

    Same semantics as :meth:`RuntimeConfig.resolve_n_jobs`; ``config``
    defaults to :data:`DEFAULT_CONFIG`.
    """
    return (config if config is not None else DEFAULT_CONFIG).resolve_n_jobs(n_jobs)
