"""New Pagoda Broadcasting (Pâris 1999) — the paper's Figure 2.

NPB improves on FB "by using a more complex segment-to-stream mapping": each
stream is time-multiplexed into interleaved *trains* (arithmetic slot
progressions ``offset + t * period``) and each segment rides one train whose
period never exceeds the segment's index — the on-time condition.  Three
streams carry nine segments where FB carries seven.

The original paper gives the mapping by construction; here we rebuild it
with a greedy train packer that captures the pagoda idea directly:

1. process segments in increasing order;
2. for segment ``S_j``, consider every free train ``(period p, offset o)``
   of the ``k`` streams (an unopened stream is one free train ``(1, 0)``)
   and the *achievable period* ``p * floor(j / p)`` — the longest train
   period not exceeding ``j`` reachable by subdividing;
3. pick the train with the largest achievable period (ties: the largest
   ``p``, i.e. the least subdividing, then the lowest stream/offset);
4. subdivide hierarchically by the prime factors of ``floor(j / p)``,
   keeping one branch for ``S_j`` and returning the siblings — at mixed
   granularities — to the free pool.

For three streams this packer emits the paper's Figure 2 *verbatim*
(``S2 S4 S2 S5 S2 S4`` / ``S3 S6 S8 S3 S7 S9``; asserted in the test suite),
and it beats FB's ``2**k - 1`` capacity for every ``k >= 3``.  Like every
pagoda-family protocol its capacity tracks the harmonic bound: 99 segments —
the configuration of Figures 7 and 8 — fit in six streams.

The packer's ``{train: segment}`` assignment is stored as is: it is the
:class:`~repro.protocols.base.StaticMap`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .base import StaticBroadcastProtocol, StaticMap, Train

def _prime_factors(value: int) -> List[int]:
    """Prime factors of ``value`` in ascending order (with multiplicity)."""
    factors: List[int] = []
    remaining = value
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1
    if remaining > 1:
        factors.append(remaining)
    return factors


def _pack(n_streams: int, max_segments: Optional[int]) -> Tuple[List[Train], Dict[Train, int]]:
    """Greedy pagoda packing of segments onto ``n_streams`` streams.

    Returns the leftover free trains and the segment assignment.
    """
    free: List[Train] = []
    next_stream = 0
    assignment: Dict[Train, int] = {}
    segment = 0
    while max_segments is None or segment < max_segments:
        segment += 1
        candidates = list(free)
        if next_stream < n_streams:
            candidates.append(Train(next_stream, 1, 0))
        best: Optional[Train] = None
        best_period = 0
        for train in candidates:
            achievable = train.period * (segment // train.period)
            if achievable == 0:
                continue
            if (
                best is None
                or achievable > best_period
                or (
                    achievable == best_period
                    and (train.period, -train.stream, -train.offset)
                    > (best.period, -best.stream, -best.offset)
                )
            ):
                best, best_period = train, achievable
        if best is None:
            segment -= 1
            break
        if best.period == 1 and best.offset == 0 and best.stream == next_stream:
            next_stream += 1
        else:
            free.remove(best)
        # Subdivide hierarchically by prime factors, pooling the siblings.
        current = best
        for factor in _prime_factors(segment // best.period):
            for branch in range(1, factor):
                free.append(
                    Train(
                        current.stream,
                        current.period * factor,
                        current.offset + branch * current.period,
                    )
                )
            current = Train(current.stream, current.period * factor, current.offset)
        assignment[current] = segment
    return free, assignment


def pagoda_capacity(n_streams: int) -> int:
    """Segments the greedy pagoda packer fits into ``n_streams`` streams.

    >>> pagoda_capacity(1)
    1
    >>> pagoda_capacity(2)
    3
    >>> pagoda_capacity(3)
    9
    """
    if n_streams < 1:
        raise ConfigurationError(f"need >= 1 stream, got {n_streams}")
    _, assignment = _pack(n_streams, max_segments=None)
    return len(assignment)


def pagoda_streams_for_segments(n_segments: int) -> int:
    """Fewest streams whose pagoda capacity reaches ``n_segments``."""
    if n_segments < 1:
        raise ConfigurationError(f"need >= 1 segment, got {n_segments}")
    streams = 1
    while pagoda_capacity(streams) < n_segments:
        streams += 1
    return streams


def pagoda_map(n_streams: int, n_segments: Optional[int] = None) -> StaticMap:
    """Build the NPB segment-to-stream map.

    Parameters
    ----------
    n_streams:
        Stream count ``k``.
    n_segments:
        Segments to place (defaults to the full capacity).  Unused trains
        stay idle: nothing is sent on them, but the allocated bandwidth is
        still ``k`` streams, as in the paper's flat NPB curve.

    Examples
    --------
    >>> print(pagoda_map(3).render(6))
    Stream 1  S1 S1 S1 S1 S1 S1
    Stream 2  S2 S4 S2 S5 S2 S4
    Stream 3  S3 S6 S8 S3 S7 S9
    """
    capacity = pagoda_capacity(n_streams)
    if n_segments is None:
        n_segments = capacity
    if n_segments > capacity:
        raise ConfigurationError(
            f"{n_streams} streams fit {capacity} segments, not {n_segments}"
        )
    _, assignment = _pack(n_streams, max_segments=n_segments)
    used_streams = 1 + max(train.stream for train in assignment)
    return StaticMap(assignment, n_streams=used_streams)


class NewPagodaBroadcasting(StaticBroadcastProtocol):
    """NPB as a fixed slotted broadcast schedule.

    Parameters
    ----------
    n_streams:
        Stream count; defaults to the fewest streams fitting ``n_segments``.
    n_segments:
        Segment count; defaults to the full capacity of ``n_streams``.

    Examples
    --------
    >>> npb = NewPagodaBroadcasting(n_streams=3)
    >>> npb.n_segments
    9
    """

    def __init__(
        self, n_streams: Optional[int] = None, n_segments: Optional[int] = None
    ):
        if n_streams is None and n_segments is None:
            raise ConfigurationError("give n_streams and/or n_segments")
        if n_streams is None:
            n_streams = pagoda_streams_for_segments(n_segments)
        super().__init__(pagoda_map(n_streams, n_segments))
        self.n_allocated_streams = n_streams

    def slot_load(self, slot: int) -> int:
        """Allocated bandwidth: all ``k`` streams, idle trains included."""
        return self.n_allocated_streams
