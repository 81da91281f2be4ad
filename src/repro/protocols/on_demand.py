"""On-demand transmission over a fixed broadcast map.

The Universal Distribution protocol, the dynamic NPB variant of Section 3
and dynamic skyscraper broadcasting share one idea: keep a fixed protocol's
segment-to-stream *timing*, but transmit an occurrence only when at least
one admitted client will consume it.  "Segments are transmitted only on
demand, which saves a considerable amount of bandwidth when the request
arrival rate remains below 100 requests per hour.  Above 200 requests per
hour, all channels become saturated and the UD reverts to a conventional FB
protocol."

:class:`OnDemandMapProtocol` implements the shared machinery; the one thing
its subclasses may change is the *occurrence rule*
(:meth:`~OnDemandMapProtocol.occurrences`), which map occurrence of each
segment a client arriving during slot ``i`` consumes.  By default (UD,
dynamic NPB) it is the *first* occurrence at or after slot ``i + 1`` (the
set-top box listens to all streams); DSB takes the *latest* one at or
before the deadline ``i + j``.  Each segment rides one train of the map, so
its occurrences are evenly spaced with a period no larger than its
deadline, and either rule is one closed form per train, always on time.
The server marks exactly the chosen occurrences for transmission.  Marking
is idempotent — overlapping requests share marked occurrences, which is
where all the bandwidth savings come from.

Marked occurrences are stored in a
:class:`~repro.core.schedule.SlotSchedule` — the same array-backed slot
store the dynamic protocols use — which makes per-slot load reads O(1) and
lets admission run vectorised: one numpy expression computes every
segment's occurrence, one compare against the schedule's future-instance
index finds the (few, at saturation) occurrences not yet marked.  Either
rule's occurrence is non-decreasing in the arrival slot, and admissions
arrive in non-decreasing slot order within a simulation, so "already
marked" is exactly "equals the segment's latest scheduled instance".
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from ..core.schedule import SlotSchedule
from ..sim.slotted import SlottedModel
from .base import StaticMap


class OnDemandMapProtocol(SlottedModel):
    """Transmit a fixed map's occurrences only when a client needs them.

    Parameters
    ----------
    static_map:
        The underlying fixed schedule (FB for UD, pagoda for dynamic NPB,
        skyscraper for DSB).
    """

    def __init__(self, static_map: StaticMap):
        self.map = static_map
        self._periods_np = np.array(
            [train.period for train in static_map.trains], dtype=np.int64
        )
        self._offsets_np = np.array(
            [train.offset for train in static_map.trains], dtype=np.int64
        )
        self._schedule = SlotSchedule(static_map.n_segments)
        self.requests_admitted = 0

    @property
    def n_segments(self) -> int:
        """Number of video segments."""
        return self.map.n_segments

    @property
    def n_streams(self) -> int:
        """Streams of the underlying map (the saturation bandwidth)."""
        return self.map.n_streams

    @property
    def _marked(self) -> Dict[int, Set[int]]:
        """Marked occurrences as {slot: segments} (audit/compatibility view).

        Derived from the backing schedule on access; tests use it to check
        marks against the underlying fixed map.
        """
        return {
            slot: set(self._schedule.segments_in(slot))
            for slot in self._schedule.occupied_slots()
        }

    def occurrences(self, slot: int) -> np.ndarray:
        """Occurrence slot of each segment (entry ``j - 1`` for ``S_j``) that
        a client arriving during ``slot`` consumes: the first at or after
        ``slot + 1``.  Subclasses override this rule only."""
        delta = slot + 1 - self._offsets_np
        periods = self._periods_np
        steps = -(delta // -periods)  # ceil-div; <= 0 when slot + 1 <= offset
        return self._offsets_np + np.maximum(steps, 0) * periods

    def handle_request(self, slot: int) -> None:
        """Mark, for each segment, the occurrence :meth:`occurrences` picks.

        Vectorised: occurrences for all segments in one expression, then
        only the not-yet-marked ones (``occurrence != latest scheduled``)
        touch the store.  Marking is idempotent because occurrences are
        non-decreasing across admissions.
        """
        self.handle_batch(slot, 1)

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` same-slot requests with one marking pass.

        Every request arriving during ``slot`` consumes exactly the same
        occurrences, and marking is idempotent, so the batch reduces to one
        vectorised pass plus O(1) bookkeeping — observably identical to
        ``count`` repeated :meth:`handle_request` calls.
        """
        if count <= 0:
            return
        schedule = self._schedule
        occurrences = self.occurrences(slot)
        fresh = (occurrences != schedule.next_transmissions).nonzero()[0]
        if fresh.size:
            add = schedule.add
            targets = occurrences[fresh].tolist()
            for index, occurrence in zip(fresh.tolist(), targets):
                add(occurrence, index + 1)
        self.requests_admitted += count
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc(count)
            self.metrics.counter("protocol.instances_scheduled").inc(int(fresh.size))

    def bind_placements(self, log: List[int]) -> None:
        """Log every occurrence marked from now on."""
        self._schedule.placement_log = log

    def slot_load(self, slot: int) -> int:
        """Occurrences actually transmitted during ``slot``."""
        return self._schedule.load(slot)

    def slot_loads(self, start: int, stop: int) -> List[int]:
        """Loads of slots ``[start, stop)``, one slice of the schedule."""
        return self._schedule.loads(start, stop)

    def slot_weights(self, start: int, stop: int) -> List[float]:
        """Instance counts of slots ``[start, stop)`` as floats."""
        return self._schedule.weights(start, stop)

    def slot_instances(self, slot: int) -> List[int]:
        """Segment numbers marked for transmission in ``slot``."""
        return self._schedule.segments_in(slot)

    def release_before(self, slot: int) -> None:
        """Drop bookkeeping for slots ``< slot``."""
        self._schedule.release_before(slot)
