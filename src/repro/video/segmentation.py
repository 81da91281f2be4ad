"""Equal-duration segmentation and per-segment bandwidth analysis.

Every protocol in the paper partitions the video into ``n`` segments of
equal duration ``d = D / n``.  For compressed video, Section 4 additionally
needs the *byte total of each segment* (solution DHB-b sets the stream
bandwidth to the maximum per-segment average) — this module computes those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..errors import VideoModelError
from .model import Video


@dataclass(frozen=True)
class SegmentedVideo:
    """A video partitioned into equal-duration segments.

    Attributes
    ----------
    video:
        The underlying video.
    n_segments:
        Number of segments ``n``.
    segment_duration:
        Segment duration ``d`` in seconds.
    segment_bytes:
        ``segment_bytes[j]`` is the byte total of segment ``S_{j+1}``
        (0-based list, 1-based segment naming as in the paper).
    """

    video: Video
    n_segments: int
    segment_duration: float
    segment_bytes: List[float]

    @property
    def max_segment_bytes(self) -> float:
        """Largest per-segment byte total."""
        return max(self.segment_bytes)

    @property
    def max_segment_rate(self) -> float:
        """Maximum of the per-segment average bandwidths (bytes/second).

        This is the stream bandwidth of the paper's solution DHB-b: every
        segment must be fully downloadable within one slot, so each stream
        must carry the heaviest segment in ``d`` seconds.
        """
        return self.max_segment_bytes / self.segment_duration


def segments_for_wait(duration: float, max_wait: float) -> int:
    """Number of equal segments needed to cap the waiting time at ``max_wait``.

    The maximum waiting time of a slotted protocol equals the segment
    duration, so ``n = ceil(D / max_wait)``.  For the paper's video:

    >>> segments_for_wait(8170.0, 60.0)
    137
    """
    if duration <= 0 or max_wait <= 0:
        raise VideoModelError("duration and max_wait must be > 0")
    return int(math.ceil(duration / max_wait - 1e-12))


def segment_video(video: Video, n_segments: int) -> SegmentedVideo:
    """Partition ``video`` into ``n_segments`` equal-duration segments.

    Byte totals are computed from the video's cumulative-consumption curve,
    so fractional-second segment boundaries are handled exactly (segment
    durations need not align with trace seconds).

    Examples
    --------
    >>> from .model import CBRVideo
    >>> seg = segment_video(CBRVideo(duration=100.0, rate=2.0), 4)
    >>> seg.segment_duration
    25.0
    >>> seg.segment_bytes
    [50.0, 50.0, 50.0, 50.0]
    """
    if n_segments < 1:
        raise VideoModelError(f"need >= 1 segment, got {n_segments}")
    d = video.duration / n_segments
    boundaries = [video.cumulative_bytes(j * d) for j in range(n_segments + 1)]
    segment_bytes = [boundaries[j + 1] - boundaries[j] for j in range(n_segments)]
    if any(b < -1e-9 for b in segment_bytes):
        raise VideoModelError("cumulative byte curve is not monotone")
    return SegmentedVideo(
        video=video,
        n_segments=n_segments,
        segment_duration=d,
        segment_bytes=[max(b, 0.0) for b in segment_bytes],
    )
