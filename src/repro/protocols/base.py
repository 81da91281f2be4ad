"""Shared machinery for the fixed (proactive) broadcasting protocols.

A fixed broadcasting protocol is completely described by a **static map**,
stored as one *train* per segment: the slots ``offset + t * period`` of one
stream, during each of which that stream transmits the segment.  FB, NPB and
SB differ only in their trains (the paper's Figures 1–3).  NPB (Pâris 1999)
is defined by trains; FB and SB cycle each stream through a group of ``W``
segments, so the group's ``i``-th segment rides train ``(stream, W, i)``.
They share :class:`StaticBroadcastProtocol`, which

* answers the slotted-simulation interface (the server bandwidth of a fixed
  protocol is simply its stream count — "their bandwidth requirements are
  not affected by the request arrival rate"), and
* exposes the map itself, so tests can verify the delivery guarantee and the
  experiment harness can print the paper's figures.

Trains keep every lookup independent of the map's hyperperiod, which for
the six-stream pagoda map is 7,927,920 slots on its last stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Mapping

from ..errors import ConfigurationError, SchedulingError
from ..sim.slotted import SlottedModel

#: What :meth:`StaticMap.segment_at` reports for a slot no train occupies.
IDLE = 0


@dataclass(frozen=True)
class Train:
    """The slots ``offset + t * period`` of 0-based ``stream``."""

    stream: int
    period: int
    offset: int


class StaticMap:
    """A fixed segment-to-stream map stored as trains.

    Parameters
    ----------
    trains:
        ``{train: segment}`` for segments ``1..n``.
    n_streams:
        Number of data streams the map occupies.

    Raises
    ------
    SchedulingError
        Unless ``0 <= offset < period`` and the stream is in range for
        every train, each segment ``1..n`` rides exactly one train, and no
        two trains of one stream share a slot.

    Examples
    --------
    >>> simple = StaticMap({Train(0, 1, 0): 1, Train(1, 2, 0): 2,
    ...                     Train(1, 2, 1): 3}, n_streams=2)
    >>> print(simple.render(4))
    Stream 1  S1 S1 S1 S1
    Stream 2  S2 S3 S2 S3
    """

    def __init__(self, trains: Mapping[Train, int], n_streams: int):
        by_segment: Dict[int, Train] = {}
        for train, segment in trains.items():
            if not (0 <= train.offset < train.period and 0 <= train.stream < n_streams):
                raise SchedulingError(f"S{segment}: {train} invalid in {n_streams} streams")
            if segment in by_segment:
                raise SchedulingError(f"S{segment} rides two trains")
            by_segment[segment] = train
        missing = sorted(set(range(1, len(by_segment) + 1)) - set(by_segment))
        if missing:
            raise SchedulingError(f"map never broadcasts segments {missing}")
        self.trains = tuple(by_segment[j] for j in range(1, len(by_segment) + 1))
        self.n_streams = n_streams
        # Per stream: {period: {offset: segment}}, read on ``slot % period``.
        self._lookup: List[Dict[int, Dict[int, int]]] = [{} for _ in range(n_streams)]
        for segment, train in enumerate(self.trains, start=1):
            stream = self._lookup[train.stream]
            for period, by_offset in stream.items():
                # Two trains meet iff their offsets agree mod gcd(periods).
                step = gcd(period, train.period)
                if any((offset - train.offset) % step == 0 for offset in by_offset):
                    raise SchedulingError(f"S{segment}: {train} collides")
            stream.setdefault(train.period, {})[train.offset] = segment

    @property
    def n_segments(self) -> int:
        """Total number of video segments covered by the map."""
        return len(self.trains)

    def segment_at(self, stream: int, slot: int) -> int:
        """Segment broadcast by 0-based ``stream`` during ``slot`` (or IDLE)."""
        for period, by_offset in self._lookup[stream].items():
            segment = by_offset.get(slot % period)
            if segment is not None:
                return segment
        return IDLE

    def segments_in_slot(self, slot: int) -> List[int]:
        """Segments broadcast during ``slot``, in stream order; idle streams
        contribute nothing."""
        segments = (self.segment_at(stream, slot) for stream in range(self.n_streams))
        return [segment for segment in segments if segment != IDLE]

    def period_of(self, segment: int) -> int:
        """Broadcast period of ``segment``: gap between consecutive instances."""
        if not 1 <= segment <= len(self.trains):
            raise SchedulingError(f"segment S{segment} missing from the map")
        return self.trains[segment - 1].period

    def render(self, n_slots: int = 6) -> str:
        """ASCII rendering in the style of the paper's Figures 1–3."""
        width = len(f"S{self.n_segments}")
        lines = []
        for stream in range(self.n_streams):
            cells = " ".join(
                f"S{self.segment_at(stream, slot)}".ljust(width)
                for slot in range(n_slots)
            )
            lines.append(f"Stream {stream + 1}  {cells.rstrip()}")
        return "\n".join(lines)


def cycling_map(widths: List[int]) -> StaticMap:
    """Map in which stream ``s`` cycles through the next ``widths[s]``
    segments; the ``i``-th of them rides train ``(s, widths[s], i)``.

    >>> print(cycling_map([1, 2]).render(4))
    Stream 1  S1 S1 S1 S1
    Stream 2  S2 S3 S2 S3
    """
    trains: Dict[Train, int] = {}
    for stream, width in enumerate(widths):
        for position in range(width):
            trains[Train(stream, width, position)] = len(trains) + 1
    return StaticMap(trains, n_streams=len(widths))


def verify_static_map(static_map: StaticMap, exhaustive_arrivals: int = 0) -> None:
    """Check the delivery guarantee of a fixed map.

    A client arriving during slot ``i`` must find every segment ``S_j``
    broadcast at least once during ``[i+1, i+j]``.  ``S_j`` rides one train,
    which visits its stream every ``period_of(S_j)`` slots, so the guarantee
    is *exactly* equivalent to every segment ``1..n`` having a train with
    ``period_of(S_j) <= j`` — any window of ``j`` consecutive slots then
    contains an occurrence.  That check is one lookup per segment, however
    large the map's hyperperiod.

    Parameters
    ----------
    exhaustive_arrivals:
        Additionally replay this many concrete arrival slots with a sliding
        window — a redundant cross-check that costs
        ``exhaustive_arrivals * n_segments`` slot lookups (0 skips it).

    Raises
    ------
    SchedulingError
        On the first violated segment or (arrival slot, segment) pair.
    """
    for segment in range(1, static_map.n_segments + 1):
        period = static_map.period_of(segment)
        if period > segment:
            raise SchedulingError(
                f"S{segment} is broadcast every {period} slots, beyond its "
                f"deadline window of {segment}"
            )
    for arrival in range(exhaustive_arrivals):
        pending = set(range(1, static_map.n_segments + 1))
        for offset in range(1, static_map.n_segments + 1):
            slot = arrival + offset
            for segment in static_map.segments_in_slot(slot):
                pending.discard(segment)
            # Segment j's deadline is relative slot j.
            if offset in pending:
                raise SchedulingError(
                    f"arrival in slot {arrival}: S{offset} not broadcast by "
                    f"relative slot {offset}"
                )


class StaticBroadcastProtocol(SlottedModel):
    """A fixed broadcasting protocol driven by a :class:`StaticMap`.

    Requests never change the schedule; the per-slot bandwidth is always the
    stream count.  Subclasses (FB, NPB, SB) construct the map.
    """

    def __init__(self, static_map: StaticMap):
        if static_map.n_streams < 1:
            raise ConfigurationError("a broadcast protocol needs >= 1 stream")
        self.map = static_map
        self.requests_admitted = 0

    @property
    def n_segments(self) -> int:
        """Number of video segments."""
        return self.map.n_segments

    @property
    def n_streams(self) -> int:
        """Number of permanently allocated data streams."""
        return self.map.n_streams

    def handle_request(self, slot: int) -> None:
        """Requests are served by the fixed schedule; nothing to do."""
        self.requests_admitted += 1
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc()

    def handle_batch(self, slot: int, count: int) -> None:
        """Fixed schedules ignore requests entirely: O(1) per batch."""
        if count <= 0:
            return
        self.requests_admitted += count
        if self.metrics is not None:
            self.metrics.counter("protocol.requests").inc(count)

    def bind_placements(self, log: List[int]) -> None:
        """Requests never change a load, so nothing is ever logged."""

    def slot_load(self, slot: int) -> int:
        """Fixed protocols keep every stream busy in every slot."""
        return self.map.n_streams

    def slot_loads(self, start: int, stop: int) -> List[int]:
        """Every slot carries the same load (NPB's override included)."""
        return [self.slot_load(start)] * (stop - start)

    def slot_weights(self, start: int, stop: int) -> List[float]:
        """Every slot carries the same weight."""
        return [self.slot_weight(start)] * (stop - start)

    def slot_instances(self, slot: int) -> List[int]:
        """The map's segments for ``slot`` (fixed protocols always transmit)."""
        return self.map.segments_in_slot(slot)

    def release_before(self, slot: int) -> None:
        """Stateless; nothing to release."""
