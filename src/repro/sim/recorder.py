"""Measurement recorders.

* :class:`SlotLoadRecorder` — collects per-slot integer stream counts for the
  slotted protocols, honouring a warmup window that is excluded from the
  reported statistics (classic steady-state methodology).
* :class:`TimeWeightedRecorder` — collects ``(start, end)`` busy intervals
  from the continuous-time protocols and reduces them, via an endpoint sweep,
  to the time-weighted mean and maximum concurrency inside a measurement
  window.
"""

from __future__ import annotations

from itertools import chain
from operator import sub
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .stats import OnlineStats

if TYPE_CHECKING:
    from ..obs.registry import MetricsRegistry


class SlotLoadRecorder:
    """Accumulates the per-slot number of transmitted segment instances.

    Parameters
    ----------
    warmup_slots:
        Loads recorded for slots below this index are discarded (transient).
    keep_series:
        When true, the post-warmup loads are kept as a list (used by tests
        and by benches that print full series); otherwise only the online
        summary is retained, keeping memory flat for very long runs.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The
        recorder always summarises into its own private
        :class:`~repro.sim.stats.OnlineStats` — the registry's
        ``sim.slot_load`` histogram is cumulative across every run that shares the registry,
        so aliasing it would corrupt the per-run statistics — and
        :meth:`finish` folds that summary into the histogram once the run
        is over.
    """

    def __init__(
        self,
        warmup_slots: int = 0,
        keep_series: bool = False,
        registry: Optional["MetricsRegistry"] = None,
    ):
        if warmup_slots < 0:
            raise SimulationError(f"warmup_slots must be >= 0, got {warmup_slots}")
        self.warmup_slots = warmup_slots
        self.keep_series = keep_series
        self.series: List[int] = []
        self._stats = OnlineStats()
        self._registry_stats = (
            registry.histogram("sim.slot_load").stats if registry is not None else None
        )

    def record(self, slot: int, load: int) -> None:
        """Record that ``load`` segment instances were transmitted in ``slot``."""
        self.record_many(slot, [load])

    def record_many(self, first_slot: int, loads: Sequence[int]) -> None:
        """:meth:`record` for slots ``first_slot, first_slot + 1, ...``, in order.

        A negative load raises, naming its slot, after the loads before it
        were recorded.
        """
        if loads and min(loads) < 0:
            bad = next(i for i, load in enumerate(loads) if load < 0)
            self.record_many(first_slot, loads[:bad])
            raise SimulationError(
                f"negative load {loads[bad]} in slot {first_slot + bad}"
            )
        skip = self.warmup_slots - first_slot
        if skip > 0:
            loads = loads[skip:]
        self._stats.add_many(map(float, loads))
        if self.keep_series:
            self.series.extend(loads)

    def finish(self) -> None:
        """Fold this run's summary into the registry histogram (idempotent)."""
        if self._registry_stats is not None:
            self._registry_stats.merge(self._stats)
            self._registry_stats = None

    @property
    def slots_measured(self) -> int:
        """Number of post-warmup slots recorded."""
        return self._stats.count

    @property
    def mean_load(self) -> float:
        """Average number of concurrent streams over the measured slots."""
        return self._stats.mean

    @property
    def max_load(self) -> float:
        """Peak number of concurrent streams over the measured slots."""
        return self._stats.maximum if self._stats.count else 0.0


class TimeWeightedRecorder:
    """Reduces busy intervals to mean/max concurrency within a window.

    Streams in the reactive protocols are intervals ``[start, end)`` during
    which one server channel of video-consumption-rate bandwidth is busy.
    The recorder clips every interval to the measurement window
    ``[window_start, window_end)`` and computes:

    * ``mean_concurrency`` — total clipped busy time divided by window length,
    * ``max_concurrency`` — peak simultaneous intervals, via endpoint sweep.

    The clipped intervals are kept as a start column and an end column in
    insertion order; :meth:`add_intervals` clips a whole batch at once.

    >>> rec = TimeWeightedRecorder(0.0, 10.0)
    >>> rec.add_interval(0.0, 5.0)
    >>> rec.add_interval(2.0, 8.0)
    >>> rec.mean_concurrency()
    1.1
    >>> rec.max_concurrency()
    2
    """

    def __init__(self, window_start: float, window_end: float):
        if window_end <= window_start:
            raise SimulationError(
                f"empty measurement window [{window_start}, {window_end})"
            )
        self.window_start = float(window_start)
        self.window_end = float(window_end)
        self._starts: List[float] = []
        self._ends: List[float] = []

    def add_interval(self, start: float, end: float) -> None:
        """Record one busy interval ``[start, end)`` (clipped to the window)."""
        self.add_intervals(((start, end),))

    def add_intervals(self, intervals: Sequence[Tuple[float, float]]) -> None:
        """Record a batch of busy intervals ``[start, end)`` (clipped to the window).

        Nothing is recorded if any interval ends before it starts.
        """
        pairs = np.fromiter(
            chain.from_iterable(intervals), dtype=np.float64, count=2 * len(intervals)
        ).reshape(-1, 2)
        starts, ends = pairs[:, 0], pairs[:, 1]
        reversed_ = ends < starts
        if reversed_.any():
            start, end = pairs[int(np.argmax(reversed_))].tolist()
            raise SimulationError(f"interval ends before it starts: [{start}, {end})")
        starts = np.maximum(starts, self.window_start)
        ends = np.minimum(ends, self.window_end)
        kept = ends > starts
        self._starts.extend(starts[kept].tolist())
        self._ends.extend(ends[kept].tolist())

    @property
    def window_length(self) -> float:
        """Length of the measurement window in seconds."""
        return self.window_end - self.window_start

    def total_busy_time(self) -> float:
        """Sum of clipped interval lengths (channel-seconds of bandwidth).

        Summed with ``sum`` in insertion order, so the total does not depend
        on how the intervals were batched.
        """
        return sum(map(sub, self._ends, self._starts))

    def mean_concurrency(self) -> float:
        """Time-weighted average number of simultaneously busy channels."""
        return self.total_busy_time() / self.window_length

    def max_concurrency(self) -> int:
        """Peak number of simultaneously busy channels (endpoint sweep).

        Ends sort before starts at equal times, so back-to-back intervals do
        not double count: just after the ``i``-th start (in sorted order)
        ``i + 1`` intervals have started and those ending at or before it
        have finished.
        """
        if not self._starts:
            return 0
        starts = np.sort(np.array(self._starts))
        ends = np.sort(np.array(self._ends))
        finished = np.searchsorted(ends, starts, side="right")
        return int((np.arange(1, starts.size + 1) - finished).max())
