"""Fast Broadcasting (Juhn & Tseng 1998) — the paper's Figure 1.

FB allocates ``k`` streams of the video consumption rate and partitions the
video into ``2**k - 1`` equal segments.  Stream ``s`` (1-based) cyclically
transmits segments ``2**(s-1) .. 2**s - 1``, so segment ``S_j`` appears once
every ``2**floor(log2 j)`` slots — always within its deadline window of ``j``
slots.  Clients watch stream 1 immediately (after the slot-boundary wait)
while their set-top box downloads from every other stream concurrently.

The map generaliser also supports an exact segment count ``n`` below the full
capacity: the last stream then cycles through fewer segments
(``2**(k-1) .. n``, period ``n - 2**(k-1) + 1 <= 2**(k-1)``), which keeps
every deadline and lets UD be configured with the paper's 99 segments.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import ConfigurationError
from .base import StaticBroadcastProtocol, StaticMap, cycling_map


def fb_segments_for_streams(n_streams: int) -> int:
    """Segments ``2**k - 1`` that ``k`` FB streams can carry.

    >>> fb_segments_for_streams(3)
    7
    """
    if n_streams < 1:
        raise ConfigurationError(f"need >= 1 stream, got {n_streams}")
    return 2**n_streams - 1


def fb_streams_for_segments(n_segments: int) -> int:
    """Fewest FB streams whose capacity reaches ``n_segments``.

    >>> fb_streams_for_segments(99)
    7
    >>> fb_streams_for_segments(63)
    6
    """
    if n_segments < 1:
        raise ConfigurationError(f"need >= 1 segment, got {n_segments}")
    return int(math.ceil(math.log2(n_segments + 1)))


def fb_map(n_streams: int, n_segments: Optional[int] = None) -> StaticMap:
    """The FB segment-to-stream map for ``k`` streams.

    >>> print(fb_map(3).render(4))
    Stream 1  S1 S1 S1 S1
    Stream 2  S2 S3 S2 S3
    Stream 3  S4 S5 S6 S7
    """
    capacity = fb_segments_for_streams(n_streams)
    if n_segments is None:
        n_segments = capacity
    if not 2 ** (n_streams - 1) <= n_segments <= capacity:
        raise ConfigurationError(
            f"{n_streams} FB streams carry between {2 ** (n_streams - 1)} and "
            f"{capacity} segments, not {n_segments}"
        )
    last = 2 ** (n_streams - 1)  # first segment of the last stream
    return cycling_map([2**s for s in range(n_streams - 1)] + [n_segments - last + 1])


class FastBroadcasting(StaticBroadcastProtocol):
    """The FB protocol as a fixed slotted broadcast schedule.

    Parameters
    ----------
    n_streams:
        Number of streams ``k``; defaults to the fewest covering
        ``n_segments``.
    n_segments:
        Segment count; defaults to the full capacity ``2**k - 1``.

    Examples
    --------
    >>> fb = FastBroadcasting(n_streams=3)
    >>> fb.n_segments, fb.n_streams
    (7, 3)
    >>> FastBroadcasting(n_segments=99).n_streams
    7
    """

    def __init__(
        self, n_streams: Optional[int] = None, n_segments: Optional[int] = None
    ):
        if n_streams is None and n_segments is None:
            raise ConfigurationError("give n_streams and/or n_segments")
        if n_streams is None:
            n_streams = fb_streams_for_segments(n_segments)
        super().__init__(fb_map(n_streams, n_segments))
