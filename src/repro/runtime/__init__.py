"""repro.runtime — the unified execution core.

One pipeline under every entry point::

    RunSpec  --Engine-->  RunResult
      |          |             |
      |       backend          observability (merged in task order)
      |       (serial ·        checkpoint (digest-keyed result journal)
      |        process pool ·
      |        socket workers)
      seeds (deterministic derivation) · cache (bounded shared LRU)

Figure sweeps, cluster scenario batches, ablations, the catalog study, the
CLI, and the benches all describe their work as :class:`RunSpec` batches
and execute them through one :class:`Engine`, which resolves exactly one
:class:`~repro.runtime.backends.base.ExecutionBackend`
(``--backend``/``REPRO_BACKEND``/worker count), journals completed results
when given a :class:`CheckpointStore`, and threads metrics/manifest/trace
state uniformly — bit-for-bit identical results on every backend, and on
a resumed run versus an uninterrupted one.

See ``docs/ARCHITECTURE.md`` for the layering diagram.
"""

from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    RemoteTaskError,
    SerialBackend,
    SocketWorkerBackend,
    resolve_backend,
)
from .cache import (
    ARRIVAL_CACHE,
    CacheInfo,
    LRUCache,
    cache_info,
    clear_cache,
)
from .checkpoint import CheckpointStore, spec_digest
from .config import (
    BACKEND_ENV,
    DEFAULT_CONFIG,
    DEFAULT_SEED,
    N_JOBS_ENV,
    RuntimeConfig,
    resolve_n_jobs,
)
from .engine import Engine
from .observing import ObservedRun, observed_run
from .seeds import arrival_trace, derive_stream
from .spec import RunResult, RunSpec
from .tasks import (
    BUILTIN_KINDS,
    execute_spec,
    execution_count,
    register_kind,
    reset_execution_count,
    resolve_kind,
)

__all__ = [
    "ARRIVAL_CACHE",
    "BACKEND_ENV",
    "BUILTIN_KINDS",
    "CacheInfo",
    "CheckpointStore",
    "DEFAULT_CONFIG",
    "DEFAULT_SEED",
    "Engine",
    "ExecutionBackend",
    "LRUCache",
    "N_JOBS_ENV",
    "ObservedRun",
    "ProcessPoolBackend",
    "RemoteTaskError",
    "RunResult",
    "RunSpec",
    "RuntimeConfig",
    "SerialBackend",
    "SocketWorkerBackend",
    "arrival_trace",
    "cache_info",
    "clear_cache",
    "derive_stream",
    "execute_spec",
    "execution_count",
    "observed_run",
    "register_kind",
    "reset_execution_count",
    "resolve_backend",
    "resolve_kind",
    "resolve_n_jobs",
    "spec_digest",
]
