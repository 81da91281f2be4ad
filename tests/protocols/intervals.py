"""Small interval-set arithmetic for the stream-tapping test oracle.

Stream tapping needs to answer "which parts of the video prefix ``[0, Δ)``
are *not* covered by any tappable transmission?".  Intervals are half-open
``[start, end)`` pairs of floats.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

Interval = Tuple[float, float]


def normalize(intervals: Iterable[Interval]) -> List[Interval]:
    """Sort, drop empties, and merge overlapping/adjacent intervals.

    >>> normalize([(3.0, 5.0), (1.0, 2.0), (2.0, 3.5)])
    [(1.0, 5.0)]
    """
    cleaned = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Interval] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def subtract(base: Interval, covers: Iterable[Interval]) -> List[Interval]:
    """The parts of ``base`` not covered by ``covers``.

    >>> subtract((0.0, 10.0), [(2.0, 4.0), (6.0, 12.0)])
    [(0.0, 2.0), (4.0, 6.0)]
    """
    start, end = base
    if end <= start:
        return []
    gaps: List[Interval] = []
    cursor = start
    for cover_start, cover_end in normalize(covers):
        if cover_end <= cursor:
            continue
        if cover_start >= end:
            break
        if cover_start > cursor:
            gaps.append((cursor, min(cover_start, end)))
        cursor = max(cursor, cover_end)
        if cursor >= end:
            break
    if cursor < end:
        gaps.append((cursor, end))
    return gaps


def total_length(intervals: Iterable[Interval]) -> float:
    """Total measure of a normalised-or-not interval collection.

    >>> total_length([(0.0, 1.0), (0.5, 2.0)])
    2.0
    """
    return sum(end - start for start, end in normalize(intervals))


def clip(interval: Interval, lo: float, hi: float) -> Interval:
    """Clamp ``interval`` to ``[lo, hi]`` (may come back empty).

    >>> clip((1.0, 9.0), 2.0, 5.0)
    (2.0, 5.0)
    """
    start, end = interval
    return (max(start, lo), min(end, hi))
