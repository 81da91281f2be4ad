"""The local process-pool backend.

Semantics carried over from the original single pool, plus one fix:

* **Order-preserving.**  Results return in task order regardless of
  completion order — what makes pooled observability merges deterministic.
* **Serial short-circuit.**  One worker (or a single task) never touches
  pool machinery.
* **Graceful degradation at spawn.**  Environments that forbid pools
  (restricted sandboxes, missing semaphores) raise ``OSError`` /
  ``PermissionError`` when the executor starts; the batch then runs
  serially instead of failing.
* **Graceful degradation mid-batch.**  A worker dying under the batch
  (OOM-kill, segfault) used to surface as ``BrokenProcessPool`` and abort
  the whole run; now the batch is re-run serially once, the event is
  counted in :attr:`~repro.runtime.backends.base.ExecutionBackend.degraded_events`,
  and the Engine reports it as the ``runtime.pool.degraded`` metric.
  Tasks are deterministic pure functions of their picklable arguments
  (the bit-for-bit serial/parallel contract), so the re-run reproduces
  any already-collected results exactly.

Exceptions raised *by the task function* propagate to the caller — only
infrastructure failure degrades.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Set

from .base import ExecutionBackend, ResultCallback, Task

#: Sentinel marking a task whose result has not been collected yet.
_PENDING = object()


class ProcessPoolBackend(ExecutionBackend):
    """Fans a batch across ``n_jobs`` local worker processes.

    ``fn`` must be a module-level callable and every task tuple picklable
    (worker processes re-import and re-invoke them).
    """

    name = "process"
    supports_remote = False

    def __init__(self, n_jobs: int):
        self.n_jobs = max(1, int(n_jobs))
        self.degraded_events = 0

    def submit_ordered(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Task],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Any]:
        if self.n_jobs == 1 or len(tasks) <= 1:
            return self.run_serial(fn, tasks, on_result)
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.n_jobs, len(tasks))
        results: List[Any] = [_PENDING] * len(tasks)
        delivered: Set[int] = set()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(fn, *task): index
                    for index, task in enumerate(tasks)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index])
                        delivered.add(index)
            return results
        except (OSError, PermissionError, BrokenProcessPool):
            # Spawn failure or a worker dying mid-batch: run the batch
            # serially once rather than aborting.  Determinism makes the
            # re-run reproduce every already-collected result bit for bit;
            # `delivered` keeps journals from double-recording them.
            self.degraded_events += 1
            return self.run_serial(fn, tasks, on_result, skip=delivered)

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(n_jobs={self.n_jobs})"
