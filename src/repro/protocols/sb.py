"""Skyscraper Broadcasting (Hua & Sheu 1997) — the paper's Figure 3.

SB trades server bandwidth for a hard client constraint: a set-top box never
receives more than **two** streams at once.  Stream ``i`` cyclically
broadcasts a group of ``W[i]`` consecutive segments, where ``W`` is the
"skyscraper" width series::

    1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ...
    W[i] = W[i-1]            for even-positioned repeats
    W[i] = 2*W[i-1] + 1  /  2*W[i-1] + 2  alternating otherwise

(the classic recurrence; each width also never exceeds the index of the
group's first segment, which is what keeps delivery on time).  Because the
groups are narrower than FB's doubling, "SB will always require more server
bandwidth than NPB and FB to guarantee the same maximum waiting time d".
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigurationError
from .base import StaticBroadcastProtocol, StaticMap, cycling_map


def skyscraper_widths(n_streams: int, width_cap: Optional[int] = None) -> List[int]:
    """The SB width series ``W[1..k]``.

    The classic series is 1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ... —
    Hua & Sheu's recurrence: odd positions (beyond 1) repeat the previous
    width, position ``i ≡ 0 (mod 4)`` doubles-plus-one, and position
    ``i ≡ 2 (mod 4)`` (beyond 2) doubles-plus-two.  ``width_cap`` implements
    the original paper's optional cap that bounds client buffer space.

    >>> skyscraper_widths(6)
    [1, 2, 2, 5, 5, 12]
    """
    if n_streams < 1:
        raise ConfigurationError(f"need >= 1 stream, got {n_streams}")
    widths = [1]
    while len(widths) < n_streams:
        i = len(widths) + 1  # 1-based index of the next width
        if i in (2, 3):
            widths.append(2)
        elif i % 2 == 1:
            widths.append(widths[-1])
        elif i % 4 == 0:
            widths.append(2 * widths[-1] + 1)
        else:  # i % 4 == 2
            widths.append(2 * widths[-1] + 2)
    if width_cap is not None:
        if width_cap < 1:
            raise ConfigurationError(f"width_cap must be >= 1, got {width_cap}")
        widths = [min(w, width_cap) for w in widths]
    return widths[:n_streams]


def sb_segments_for_streams(n_streams: int, width_cap: Optional[int] = None) -> int:
    """Total segments ``k`` SB streams carry: the sum of the widths.

    >>> sb_segments_for_streams(3)
    5
    """
    return sum(skyscraper_widths(n_streams, width_cap))


def sb_streams_for_segments(n_segments: int, width_cap: Optional[int] = None) -> int:
    """Fewest SB streams covering ``n_segments``."""
    if n_segments < 1:
        raise ConfigurationError(f"need >= 1 segment, got {n_segments}")
    streams = 1
    while sb_segments_for_streams(streams, width_cap) < n_segments:
        streams += 1
    return streams


def sb_map(n_streams: int, width_cap: Optional[int] = None) -> StaticMap:
    """The SB segment-to-stream map.

    >>> print(sb_map(3).render(4))
    Stream 1  S1 S1 S1 S1
    Stream 2  S2 S3 S2 S3
    Stream 3  S4 S5 S4 S5
    """
    return cycling_map(skyscraper_widths(n_streams, width_cap))


class SkyscraperBroadcasting(StaticBroadcastProtocol):
    """SB as a fixed slotted broadcast schedule.

    Parameters
    ----------
    n_streams:
        Stream count; or derive from ``n_segments``.
    n_segments:
        Minimum segment count to cover (the realised count is the full
        capacity of the chosen stream count).
    width_cap:
        Optional cap on group widths (bounds the client buffer).

    Examples
    --------
    >>> sb = SkyscraperBroadcasting(n_streams=3)
    >>> sb.n_segments
    5

    The signature SB property — at most two concurrent receptions:

    >>> sb.max_client_streams()
    2
    """

    def __init__(
        self,
        n_streams: Optional[int] = None,
        n_segments: Optional[int] = None,
        width_cap: Optional[int] = None,
    ):
        if n_streams is None and n_segments is None:
            raise ConfigurationError("give n_streams and/or n_segments")
        if n_streams is None:
            n_streams = sb_streams_for_segments(n_segments, width_cap)
        super().__init__(sb_map(n_streams, width_cap))
        self.widths = skyscraper_widths(n_streams, width_cap)

    def max_client_streams(self, n_arrival_slots: int = 64) -> int:
        """Peak concurrent receptions over clients of many arrival slots.

        A client downloads group ``g`` from the first group-aligned
        broadcast at or after the moment group ``g-1`` finishes; with the
        skyscraper widths this pipeline never needs more than two concurrent
        streams (the property SB is designed around).
        """
        peak = 1
        for arrival in range(n_arrival_slots):
            intervals = self._client_download_intervals(arrival)
            events = []
            for start, end in intervals:
                events.append((start, 1))
                events.append((end, -1))
            events.sort(key=lambda e: (e[0], e[1]))
            level = 0
            for _, delta in events:
                level += delta
                peak = max(peak, level)
        return peak

    def _client_download_intervals(self, arrival_slot: int):
        """(start, end) download slots per group for one client (half-open).

        The client joins each group's *latest* broadcast cycle that still
        meets the playout deadline: group ``g`` (first segment ``f_g``,
        width ``W_g``) is consumed live if its cycle starting at slot
        ``floor((a + f_g) / W_g) * W_g`` is used, because segment
        ``f_g + m`` then arrives during slot ``start + m <= a + f_g + m`` —
        exactly when (or before) it is played.  Since ``W_g <= f_g`` the
        start always falls after the arrival slot.  Downloading as late as
        possible is what keeps at most two loaders busy.
        """
        intervals = []
        group_first_segment = 1
        for width in self.widths:
            start = ((arrival_slot + group_first_segment) // width) * width
            intervals.append((start, start + width))
            group_first_segment += width
        return intervals
