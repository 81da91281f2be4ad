"""Runtime knobs: the one place that reads the environment.

Every setting the environment may give — the worker count, the backend,
the serving queue bound — is read here, with one precedence chain::

    default  <  environment variable  <  explicit argument

i.e. an explicit argument always wins and an unset one (``None``) falls
back to the environment, then to the baked-in default.  Every reader of
``REPRO_SWEEP_JOBS`` routes through :func:`resolve_n_jobs`, and every
reader of ``REPRO_BACKEND`` through :func:`resolve_backend_name`.

Environment variables
---------------------
``REPRO_SWEEP_JOBS``
    Worker processes for any :class:`~repro.runtime.engine.Engine` fan-out
    (``-1`` means "all cores"; unset means serial).
``REPRO_BACKEND``
    Default execution backend name (``serial`` or ``process``; ``socket``
    needs addresses, so it is CLI/constructor-only).
``REPRO_SERVE_QUEUE_FRAMES``
    Default send-queue bound of a serving session (see
    :class:`~repro.serve.config.ServeConfig`).

The environment is *advisory*: a malformed value (``REPRO_SWEEP_JOBS=4x``,
an unknown backend name) must never blow up deep inside an experiment the
user launched without thinking about the runtime, so it falls back to the
baked-in default with a :class:`RuntimeWarning`.  Explicit arguments are
code, and invalid ones raise :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Optional

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

#: Serial execution when neither argument nor environment say more.
DEFAULT_N_JOBS = 1

#: Bound on the shared (seed, rate, horizon) arrival-trace cache.
DEFAULT_TRACE_CACHE_SIZE = 64

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


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """The effective worker count (argument > environment > serial).

    Negative values mean "all available cores"; zero is rejected —
    except from the environment, where any invalid value (malformed
    or zero) warns and falls back to serial (advisory env contract).
    """
    from_env = n_jobs is None
    value = _env_int(N_JOBS_ENV) if from_env else int(n_jobs)
    if value is None:
        return DEFAULT_N_JOBS
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


def resolve_backend_name(backend: Any = None) -> Any:
    """The effective backend (argument > environment > ``None``).

    ``None`` means "let the Engine pick from the worker count".  An
    unknown name from the environment warns and is ignored; an explicit
    backend (name or instance) is returned as is, and validated by
    :func:`repro.runtime.backends.resolve_backend`.
    """
    if backend is not None:
        return backend
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
