"""The slotted transmission schedule.

:class:`SlotSchedule` is the single mutable data structure behind every
dynamic slotted protocol here (DHB and its variants, UD, dynamic NPB,
DSB).  It records which segment instances are transmitted in which slot and
answers the two queries the schedulers need:

* ``load(slot)`` — how many instances (= data streams of bandwidth ``b``)
  slot already carries, and
* ``shareable(segment, slot, window_end)`` — an instance of the segment in
  ``(slot, window_end]`` that a new request can share, if any.

The second query runs over a per-segment future-instance index with two
modes, fixed by the protocol class that owns the schedule:

* **latest slot** (the default).  As long as every request checks the
  window ``[i+1, i+T[j]]`` before scheduling ``S_j`` and windows never
  shrink, **at most one instance of each segment is ever scheduled in the
  strict future**.  (Any previous request arrived at some ``i' <= i`` and
  placed its instance at ``k <= i' + T[j] <= i + T[j]``; if ``k > i`` that
  instance lies inside the new request's window and is shared instead of
  duplicated.)  One array of latest slots, :attr:`next_transmissions`, then
  answers every query, and static DHB reads it vectorised.
* **sorted lists** (``sorted_future=True``).  When windows can shrink — an
  adaptive slack drop, a resume that needs a segment sooner, a client
  receive cap that rules a slot out — the invariant breaks: a segment may
  have an instance beyond the new window's end, and trusting the latest
  slot would hand clients shared assignments they can never meet.  Each
  segment then keeps the sorted list of its future instance slots, pruned
  lazily as queries move past them, so the window check is exact under any
  window trajectory.

Load storage is an array keyed by slot offset, not a per-slot dict: the
active slot span of a window-sharing protocol is bounded by the largest
period, so a flat ``array('q')`` indexed by ``slot - base`` gives O(1)
scalar reads/writes at CPython-attribute speed *and* a zero-copy numpy view
for vectorised window minima.  :meth:`admit` is a whole Figure-6
admission in one call: the sharing test, then the DHB heuristic
(least-loaded slot, ties broken to the latest) fused with that store, for
every segment a request needs.  It holds the one window scan;
:meth:`place_latest_min` is its one-window case and :meth:`add` the one
write at a given slot.
:meth:`release_before` advances the logical floor in O(1) amortised time
and periodically compacts the backing array, keeping memory flat over
arbitrarily long runs.  The schedule still keeps full per-slot instance
lists, for bandwidth auditing, for failover (:meth:`future_instances`) and
so that tests can inspect the raw schedule.  An owner that sums several
schedules' loads (a cluster server's demand ledger) sets
:attr:`placement_log` to a list, and every placement appends its slot.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchedulingError

#: Initial capacity of the load array (grows by doubling as needed).
_INITIAL_CAPACITY = 256

#: Windows at or below this size are scanned in pure Python: per-element
#: access on an ``array('q')`` costs ~0.2 µs, so small windows beat the
#: fixed ~2 µs overhead of a numpy argmin call.
_SMALL_WINDOW = 16


def _slide(values: array, shift: int, capacity: int) -> array:
    """``values[shift:]`` at the start of a zeroed array of exactly
    ``capacity`` 8-byte cells (no over-allocation, unlike ``extend``)."""
    fresh = array(values.typecode, bytes(8 * capacity))
    live = values[shift:]
    fresh[: len(live)] = live
    return fresh


class SlotSchedule:
    """Per-slot segment instances plus per-segment future-instance index.

    Parameters
    ----------
    n_segments:
        Number of segments the video is partitioned into (segments are the
        1-based ``S_1 .. S_n`` of the paper).
    segment_weights:
        Optional per-segment weights (``segment_weights[j-1]`` for ``S_j``),
        typically the segment's byte size.  When given, :meth:`weight`
        reports the per-slot weighted load, which is how the compressed-
        video experiment accounts *transmitted bytes* rather than allocated
        stream-slots.
    sorted_future:
        Index every future instance per segment (sorted lists) instead of
        the latest slot only; required when admission windows can shrink
        (see the module docstring).  Protocol classes fix this, it is not a
        run option.

    Examples
    --------
    >>> schedule = SlotSchedule(n_segments=6)
    >>> schedule.add(slot=2, segment=1)
    >>> schedule.load(2)
    1
    >>> schedule.next_transmission(1)
    2
    >>> schedule.shareable(1, slot=0, window_end=3)
    2
    >>> schedule.next_transmission(5) is None
    True
    """

    def __init__(
        self,
        n_segments: int,
        segment_weights: Optional[Sequence[float]] = None,
        *,
        sorted_future: bool = False,
    ):
        if n_segments < 1:
            raise SchedulingError(f"need >= 1 segment, got {n_segments}")
        self.n_segments = int(n_segments)
        if segment_weights is None:
            self._weights = [1.0] * self.n_segments
        else:
            if len(segment_weights) != self.n_segments:
                raise SchedulingError(
                    f"{len(segment_weights)} weights for {self.n_segments} segments"
                )
            if any(w < 0 for w in segment_weights):
                raise SchedulingError("segment weights must be >= 0")
            self._weights = [float(w) for w in segment_weights]
        self._unit_weights = all(w == 1.0 for w in self._weights)
        # Load store: `_loads[slot - _base]`, valid for slots in
        # [_released_before, _base + capacity).  Cells below _released_before
        # may hold stale counts; `load()` masks them, and compaction drops
        # them entirely.  `_loads_np` is a cached zero-copy numpy view of the
        # same buffer, refreshed whenever the backing array is replaced.
        self._base = 0
        self._loads = array("q", bytes(8 * _INITIAL_CAPACITY))
        self._loads_np = np.frombuffer(self._loads, dtype=np.int64)
        self._weight_loads = (
            None if self._unit_weights else array("d", bytes(8 * _INITIAL_CAPACITY))
        )
        # Audit store: full per-slot instance lists, in add order.
        self._slots: Dict[int, List[int]] = {}
        # next_tx[j-1]: slot of S_j's scheduled future instance, or -1.
        # Fixed-size array('q'), so the numpy view stays valid for life.
        self._next_tx = array("q", [-1] * self.n_segments)
        self._next_tx_np = np.frombuffer(self._next_tx, dtype=np.int64)
        # Sorted mode: _future[j-1] lists S_j's future instance slots.
        self._future: Optional[List[List[int]]] = (
            [[] for _ in range(self.n_segments)] if sorted_future else None
        )
        self._released_before = 0
        self._total_instances = 0
        #: Optional list every scheduled instance appends its slot to (an
        #: owner's demand ledger reads and clears it); ``None`` logs nothing.
        self.placement_log: Optional[List[int]] = None

    @property
    def total_instances(self) -> int:
        """Total segment instances ever added (never decremented by GC)."""
        return self._total_instances

    @property
    def next_transmissions(self) -> np.ndarray:
        """Read-only numpy view of per-segment future-instance slots.

        Entry ``j - 1`` is the slot of ``S_j``'s latest scheduled instance,
        or ``-1`` when none was ever scheduled.  This is the vectorised
        counterpart of :meth:`next_transmission`; callers must treat it as
        read-only (it aliases the live index).
        """
        return self._next_tx_np

    def _check_segment(self, segment: int) -> None:
        if not 1 <= segment <= self.n_segments:
            raise SchedulingError(
                f"segment S{segment} outside S1..S{self.n_segments}"
            )

    def _ensure_capacity(self, slot: int) -> None:
        """Grow (never in place) so that ``slot`` has a backing cell.

        The fresh array starts at the released floor: sliding the window
        forward past released slots comes first, doubling only if the live
        span still does not fit.
        """
        shift = self._released_before - self._base
        capacity = len(self._loads)
        while capacity < slot - self._released_before + 1:
            capacity *= 2
        self._loads = _slide(self._loads, shift, capacity)
        self._loads_np = np.frombuffer(self._loads, dtype=np.int64)
        if self._weight_loads is not None:
            self._weight_loads = _slide(self._weight_loads, shift, capacity)
        self._base = self._released_before

    def add(self, slot: int, segment: int) -> None:
        """Schedule one instance of ``segment`` in ``slot``."""
        if not 1 <= segment <= self.n_segments:
            self._check_segment(segment)
        if slot < self._released_before:
            raise SchedulingError(
                f"slot {slot} already released (< {self._released_before})"
            )
        loads = self._loads
        index = slot - self._base
        if index >= len(loads):
            self._ensure_capacity(slot)
            loads = self._loads
            index = slot - self._base
        loads[index] += 1
        if self._weight_loads is not None:
            self._weight_loads[index] += self._weights[segment - 1]
        bucket = self._slots.get(slot)
        if bucket is None:
            self._slots[slot] = [segment]
        else:
            bucket.append(segment)
        self._total_instances += 1
        if self.placement_log is not None:
            self.placement_log.append(slot)
        if slot > self._next_tx[segment - 1]:
            self._next_tx[segment - 1] = slot
        if self._future is not None:
            insort(self._future[segment - 1], slot)

    def load(self, slot: int) -> int:
        """Number of instances scheduled in ``slot`` (streams of rate ``b``)."""
        if slot < self._released_before:
            return 0
        index = slot - self._base
        if index >= len(self._loads):
            return 0
        return self._loads[index]

    def weight(self, slot: int) -> float:
        """Weighted load of ``slot`` (bytes, when weights are byte sizes)."""
        if self._weight_loads is None:
            return float(self.load(slot))
        if slot < self._released_before:
            return 0.0
        index = slot - self._base
        if index >= len(self._weight_loads):
            return 0.0
        return self._weight_loads[index]

    def _span(self, cells: array, start: int, stop: int, zero) -> list:
        """Cells of slots ``[start, stop)`` as a list, one slice of ``cells``;
        ``zero`` below the released floor and past the capacity."""
        base = self._base
        if start >= self._released_before and stop - base <= len(cells):
            return cells[start - base : stop - base].tolist()
        low = min(max(start, self._released_before), stop)
        high = max(min(stop, base + len(cells)), low)
        return (
            [zero] * (low - start)
            + cells[low - base : high - base].tolist()
            + [zero] * (stop - high)
        )

    def loads(self, start: int, stop: int) -> List[int]:
        """``[load(slot) for slot in range(start, stop)]``, read in one slice."""
        return self._span(self._loads, start, stop, 0)

    def weights(self, start: int, stop: int) -> List[float]:
        """``[weight(slot) for slot in range(start, stop)]``, read in one slice."""
        if self._weight_loads is None:
            return list(map(float, self.loads(start, stop)))
        return self._span(self._weight_loads, start, stop, 0.0)

    def segments_in(self, slot: int) -> List[int]:
        """The segment instances scheduled in ``slot`` (copy, in add order)."""
        return list(self._slots.get(slot, ()))

    def next_transmission(self, segment: int):
        """Slot of ``segment``'s latest scheduled instance, or ``None``.

        Callers compare this against the current slot: an instance at a slot
        ``> current`` is in the future and can be shared.
        """
        self._check_segment(segment)
        slot = self._next_tx[segment - 1]
        return None if slot < 0 else slot

    def shareable(self, segment: int, slot: int, window_end: int) -> Optional[int]:
        """Latest instance of ``segment`` in ``(slot, window_end]``, or ``None``.

        The sharing query of Figure 6 for a request arriving during
        ``slot``.  Latest-slot mode reads the single future instance the
        invariant allows; sorted mode first prunes instances at or before
        ``slot`` (transmitted already, or transmitting now — arrivals during
        a slot cannot receive that same slot), so successive queries must
        not move ``slot`` backwards past an instance they still need.
        """
        future = self._future
        if future is None:
            scheduled = self._next_tx[segment - 1]
            return scheduled if slot < scheduled <= window_end else None
        instances = future[segment - 1]
        if instances and instances[0] <= slot:
            del instances[: bisect_right(instances, slot)]
        end = bisect_right(instances, window_end)
        return instances[end - 1] if end else None

    def future_instances(self, from_slot: int) -> List[Tuple[int, int]]:
        """Every ``(segment, slot)`` instance at ``slot >= from_slot``, sorted.

        Read from the per-slot store, so every owed instance is listed in
        either index mode — a segment with two future instances (a shrunk
        window, a failover placement) yields both.
        """
        return sorted(
            (segment, slot)
            for slot, bucket in self._slots.items()
            if slot >= from_slot
            for segment in bucket
        )

    def place_latest_min(self, first_slot: int, last_slot: int, segment: int) -> int:
        """Schedule ``segment`` in the least-loaded slot of ``[first_slot, last_slot]``.

        Ties go to the latest slot.  The one-window, no-sharing case of
        :meth:`admit`, with the checks that :meth:`add` makes: the segment
        and a non-empty window are checked before anything is placed.
        Returns the chosen slot.
        """
        if not 1 <= segment <= self.n_segments:
            self._check_segment(segment)
        if last_slot < first_slot:
            raise SchedulingError(f"empty slot window [{first_slot}, {last_slot}]")
        return self.admit(first_slot - 1, segment, (last_slot - first_slot + 1,), False)

    def admit(
        self, slot: int, first_segment: int, windows: Sequence[int], share: bool = True
    ) -> Optional[int]:
        """Figure 6 for one request of ``slot``; returns the last slot placed in.

        The request needs ``S_j`` within ``(slot, slot + windows[k]]`` for
        ``j = first_segment + k``.  In ascending order, each segment shares
        an instance already in its window or is placed in the window's
        least-loaded slot, ties going to the latest — the paper's heuristic
        (:func:`repro.core.heuristic.latest_min_load_chooser`) plus
        :meth:`add`, reading the loads earlier placements left.
        ``share=False`` places every segment (the no-sharing ablation).
        Returns ``None`` when nothing was placed.

        Latest-slot mode answers the sharing test with one compare on the
        suffix of :attr:`next_transmissions`, trusting the window ends (the
        invariant), and overwrites the index (a needed segment's old
        instance is at or before ``slot``); sorted mode prunes and tests
        each segment's list as the loop reaches it.  A window whose last
        slot is idle takes it (no load is below 0); any other is scanned
        from its end, in Python when small and by a reversed argmin
        otherwise.  Only the released floor is checked: windows of width
        ``>= 1`` are the caller's contract.
        """
        if slot + 1 < self._released_before:
            raise SchedulingError(
                f"window start {slot + 1} below released floor "
                f"{self._released_before}"
            )
        start = first_segment - 1
        future = self._future
        trusted = share and future is None
        if trusted:
            needed = (
                (self._next_tx_np[start : start + len(windows)] <= slot).nonzero()[0].tolist()
            )
        else:
            needed = range(len(windows))
        loads = self._loads
        loads_np = self._loads_np
        weight_loads = self._weight_loads
        weights = self._weights
        occupied = self._slots
        next_tx = self._next_tx
        log = self.placement_log
        base = self._base
        limit = base + len(loads)
        chosen = None
        shared = 0
        for offset in needed:
            index = start + offset
            window_end = slot + windows[offset]
            if future is not None and share:
                instances = future[index]
                if instances and instances[0] <= slot:
                    del instances[: bisect_right(instances, slot)]
                if instances and instances[0] <= window_end:
                    shared += 1
                    continue
            if window_end >= limit:
                self._ensure_capacity(window_end)
                loads, loads_np = self._loads, self._loads_np
                weight_loads, base = self._weight_loads, self._base
                limit = base + len(loads)
            high = window_end - base
            if not loads[high]:
                chosen_index = high
            else:
                low = slot + 1 - base
                if high - low < _SMALL_WINDOW:
                    chosen_index = high
                    best_load = loads[high]
                    for cell in range(high - 1, low - 1, -1):
                        load = loads[cell]
                        if load < best_load:
                            chosen_index, best_load = cell, load
                else:
                    chosen_index = high - int(loads_np[low : high + 1][::-1].argmin())
            chosen = base + chosen_index
            loads[chosen_index] += 1
            if weight_loads is not None:
                weight_loads[chosen_index] += weights[index]
            bucket = occupied.get(chosen)
            if bucket is None:
                occupied[chosen] = [index + 1]
            else:
                bucket.append(index + 1)
            if log is not None:
                log.append(chosen)
            if trusted:
                next_tx[index] = chosen
            else:
                if chosen > next_tx[index]:
                    next_tx[index] = chosen
                if future is not None:
                    insort(future[index], chosen)
        self._total_instances += len(needed) - shared
        return chosen

    def release_before(self, slot: int) -> None:
        """Drop per-slot bookkeeping for slots ``< slot`` (bounded memory).

        O(released audit entries) amortised, independent of the slot gap:
        sparse traces may jump the floor forward by millions of slots and
        pay only for the (small) set of actually occupied slots.
        """
        if slot <= self._released_before:
            return
        occupied = self._slots
        if occupied:
            gap = slot - self._released_before
            if gap <= len(occupied):
                for old in range(self._released_before, slot):
                    occupied.pop(old, None)
            else:
                for old in [s for s in occupied if s < slot]:
                    del occupied[old]
        self._released_before = slot
        # Keep the backing array aligned with the active span: once the
        # released prefix dominates the capacity, slide the window forward
        # (amortised O(1) per released slot; when everything stored is
        # released, this restarts the array at the floor).
        if slot - self._base >= max(_INITIAL_CAPACITY, len(self._loads) // 2):
            self._ensure_capacity(slot)

    def occupied_slots(self) -> List[int]:
        """Sorted list of not-yet-released slots carrying any instance."""
        return sorted(self._slots)
