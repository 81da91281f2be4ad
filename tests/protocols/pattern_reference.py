"""Expanded-pattern reference semantics of the fixed broadcast maps.

:class:`repro.protocols.base.StaticMap` stores one ``(stream, period,
offset)`` train per segment.  This module keeps the older representation
literally: every stream is a list of segment numbers, expanded to the lcm of
the stream's train periods, with idle slots holding ``IDLE``.  Tests check
the train maps against these patterns rather than against themselves.
"""

from dataclasses import dataclass
from math import gcd
from typing import List, Optional

from repro.errors import ConfigurationError, SchedulingError
from repro.protocols.fb import fb_segments_for_streams
from repro.protocols.npb import _pack, pagoda_capacity
from repro.protocols.sb import skyscraper_widths

#: Idle-slot marker in patterns when capacity exceeds the requested segments.
IDLE = 0


@dataclass(frozen=True)
class PatternMap:
    """A fixed segment-to-stream map.

    Attributes
    ----------
    patterns:
        ``patterns[s]`` is the repeating segment pattern of stream ``s``
        (0-based streams); stream ``s`` transmits
        ``patterns[s][slot % len(patterns[s])]`` during ``slot``.
    n_segments:
        Total number of video segments covered by the map.
    """

    patterns: List[List[int]]
    n_segments: int

    @property
    def n_streams(self) -> int:
        """Number of data streams the map occupies."""
        return len(self.patterns)

    def segment_at(self, stream: int, slot: int) -> int:
        """Segment broadcast by 0-based ``stream`` during ``slot``."""
        pattern = self.patterns[stream]
        return pattern[slot % len(pattern)]

    def segments_in_slot(self, slot: int) -> List[int]:
        """All segments broadcast during ``slot``, one per stream."""
        return [self.segment_at(stream, slot) for stream in range(self.n_streams)]

    def period_of(self, segment: int) -> int:
        """Broadcast period of ``segment``: gap between consecutive instances.

        Raises :class:`~repro.errors.SchedulingError` when the segment's
        occurrences are not evenly spaced within its stream pattern (every
        protocol reproduced here uses evenly spaced instances).
        """
        for pattern in self.patterns:
            hits = [idx for idx, seg in enumerate(pattern) if seg == segment]
            if not hits:
                continue
            length = len(pattern)
            gaps = {
                (hits[(k + 1) % len(hits)] - hits[k]) % length or length
                for k in range(len(hits))
            }
            if len(gaps) != 1:
                raise SchedulingError(
                    f"segment S{segment} is unevenly spaced in its stream"
                )
            return gaps.pop()
        raise SchedulingError(f"segment S{segment} missing from the map")

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


def fb_patterns(n_streams: int, n_segments: Optional[int] = None) -> PatternMap:
    """FB: stream ``s`` cycles segments ``2**(s-1) .. min(2**s - 1, n)``."""
    capacity = fb_segments_for_streams(n_streams)
    if n_segments is None:
        n_segments = capacity
    patterns: List[List[int]] = []
    for stream in range(1, n_streams + 1):
        first = 2 ** (stream - 1)
        last = min(2 * first - 1, n_segments)
        patterns.append(list(range(first, last + 1)))
    return PatternMap(patterns=patterns, n_segments=n_segments)


def sb_patterns(n_streams: int, width_cap: Optional[int] = None) -> PatternMap:
    """SB: stream ``i`` cycles its group of ``W[i]`` consecutive segments."""
    widths = skyscraper_widths(n_streams, width_cap)
    patterns: List[List[int]] = []
    first = 1
    for width in widths:
        patterns.append(list(range(first, first + width)))
        first += width
    return PatternMap(patterns=patterns, n_segments=first - 1)


def pagoda_patterns(n_streams: int, n_segments: Optional[int] = None) -> PatternMap:
    """NPB: the packer's trains expanded to each stream's lcm period."""
    capacity = pagoda_capacity(n_streams)
    if n_segments is None:
        n_segments = capacity
    if n_segments > capacity:
        raise ConfigurationError(
            f"{n_streams} streams fit {capacity} segments, not {n_segments}"
        )
    free, assignment = _pack(n_streams, max_segments=n_segments)
    used_streams = 1 + max(train.stream for train in assignment)
    # Per-stream pattern length: lcm of that stream's train periods.
    lengths = [1] * used_streams
    for train in list(assignment) + list(free):
        if train.stream < used_streams:
            lengths[train.stream] = (
                lengths[train.stream]
                * train.period
                // gcd(lengths[train.stream], train.period)
            )
    patterns: List[List[int]] = [[IDLE] * lengths[s] for s in range(used_streams)]
    for train, segment in assignment.items():
        for slot in range(train.offset, lengths[train.stream], train.period):
            if patterns[train.stream][slot] != IDLE:
                raise SchedulingError("pagoda trains collided; packer bug")
            patterns[train.stream][slot] = segment
    return PatternMap(patterns=patterns, n_segments=n_segments)
