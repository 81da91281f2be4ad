"""The Engine: every entry point's one execution core.

``Engine.run`` takes a batch of :class:`~repro.runtime.spec.RunSpec` values
and returns their :class:`~repro.runtime.spec.RunResult` outcomes in input
order, executing them on one pluggable
:class:`~repro.runtime.backends.base.ExecutionBackend` — inline, across
the local process pool, or across registered socket workers
(:mod:`repro.runtime.backends`).  Figure sweeps, cluster scenario batches,
ablations, the catalog study, and the benches all route through here, so
parallelism, caching, determinism, checkpointing, and observability behave
identically under every entry point.

Determinism contract
--------------------
Execution on any backend is **bit-for-bit** identical to serial execution:

* every spec is a deterministic pure function of its value (seeds are
  derived, never drawn from global state — :mod:`repro.runtime.seeds`);
* results are reassembled in task order regardless of completion order
  or which worker (process, socket peer) ran them;
* with an :class:`~repro.obs.trace.Observation`, every cell runs under its
  own fresh registry (and in-memory trace buffer when the observation has
  a sink); the parent merges registries and re-emits trace records in task
  order, so the merged observability state is identical however the cells
  were scheduled.

Checkpoint/resume
-----------------
Pass ``checkpoint=CheckpointStore(path)`` (to the constructor or to
:meth:`Engine.run`) and every completed result is journaled under its
spec's stable content digest as it lands; on a re-run over the same store,
digested-complete specs are **not re-executed** — their journaled results
slot back into task order, so the resumed run's outputs and merged
observability state are identical to an uninterrupted run's.  See
:mod:`repro.runtime.checkpoint` for the journal format.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..obs.trace import Observation
from .backends import ExecutionBackend, resolve_backend
from .checkpoint import CheckpointStore, spec_digest
from .config import resolve_backend_name, resolve_n_jobs
from .spec import RunResult, RunSpec
from .tasks import execute_spec


class Engine:
    """Executes RunSpec batches on one resolved execution backend.

    Parameters
    ----------
    n_jobs:
        Worker count.  ``None`` defers to the ``REPRO_SWEEP_JOBS``
        environment variable (serial by default); negative means "all
        cores".  See :func:`~repro.runtime.config.resolve_n_jobs`.
    backend:
        An :class:`~repro.runtime.backends.base.ExecutionBackend`
        instance or name (``"serial"``, ``"process"``, ``"socket"``).
        ``None`` defers to ``REPRO_BACKEND``, then to the worker-count
        default: serial for one worker, the local process pool otherwise.
    checkpoint:
        Optional :class:`~repro.runtime.checkpoint.CheckpointStore`
        journaling every completed result (and replaying completed specs
        on resume) for all this Engine's runs.

    Examples
    --------
    >>> from repro.experiments.config import SweepConfig
    >>> cfg = SweepConfig().quick(rates_per_hour=(30.0,), base_hours=2.0,
    ...                           min_requests=10)
    >>> engine = Engine(n_jobs=1)
    >>> spec = RunSpec("sweep-point", ("npb", "npb", 30.0, cfg))
    >>> engine.run_values([spec])[0].rate_per_hour
    30.0
    """

    def __init__(
        self,
        n_jobs: Optional[int] = None,
        backend: Any = None,
        checkpoint: Optional[CheckpointStore] = None,
    ):
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.backend: ExecutionBackend = resolve_backend(
            resolve_backend_name(backend), self.n_jobs
        )
        self.checkpoint = checkpoint

    def run(
        self,
        specs: Sequence[RunSpec],
        observation: Optional[Observation] = None,
        checkpoint: Optional[CheckpointStore] = None,
    ) -> List[RunResult]:
        """Execute every spec, preserving input order.

        With an ``observation``, each cell's metrics snapshot is merged
        into ``observation.metrics`` and its trace records re-emitted to
        ``observation.trace`` in task order (see the module docstring for
        why that makes backend choice invisible in the outputs).  With a
        ``checkpoint`` (argument, else the Engine's), completed results
        are journaled as they land and already-journaled specs are served
        from the store without re-executing.
        """
        store = checkpoint if checkpoint is not None else self.checkpoint
        want_metrics = observation is not None
        want_trace = want_metrics and observation.trace is not None
        tasks = [(spec, want_metrics, want_trace) for spec in specs]
        degraded_before = self.backend.degraded_events
        if store is None:
            results = self.backend.submit_ordered(execute_spec, tasks)
        else:
            digests = [
                spec_digest(spec, want_metrics, want_trace) for spec in specs
            ]
            results = [store.get(digest) for digest in digests]
            fresh = [index for index, result in enumerate(results) if result is None]

            def journal(position: int, result: RunResult) -> None:
                store.record(digests[fresh[position]], result)

            for position, result in zip(
                fresh,
                self.backend.submit_ordered(
                    execute_spec, [tasks[index] for index in fresh], journal
                ),
            ):
                results[position] = result
        if observation is not None:
            degraded = self.backend.degraded_events - degraded_before
            if degraded:
                observation.metrics.counter("runtime.pool.degraded").inc(degraded)
            for result in results:
                observation.metrics.merge_dict(result.metrics)
                if observation.trace is not None:
                    for record in result.trace:
                        observation.trace.emit(record)
        return results

    def run_values(
        self,
        specs: Sequence[RunSpec],
        observation: Optional[Observation] = None,
        checkpoint: Optional[CheckpointStore] = None,
    ) -> List[Any]:
        """:meth:`run`, reduced to the handler return values."""
        return [
            result.value
            for result in self.run(specs, observation=observation, checkpoint=checkpoint)
        ]

    def close(self) -> None:
        """Release the backend's workers and the checkpoint journal."""
        self.backend.close()
        if self.checkpoint is not None:
            self.checkpoint.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
