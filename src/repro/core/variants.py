"""The four DHB configurations for compressed video (Section 4).

Given a VBR video and a target maximum waiting time, the paper derives:

* **DHB-a** — partition into ``ceil(D / wait)`` segments, allocate each data
  stream the video's *1-second peak* bandwidth (951 KB/s for their trace).
  The base solution: correct but wasteful — every transmission occupies the
  full peak-rate container for a whole slot.
* **DHB-b** — same segments, but require every segment to be fully
  downloaded one slot ahead of playout; the stream allocation drops to the
  *maximum per-segment average* (789 KB/s) and, more importantly, each
  transmission only moves the segment's actual bytes.
* **DHB-c** — smoothing by work-ahead: a constant stream rate packs the
  video into fewer segments (137 → 129) at a lower rate (671 KB/s).
* **DHB-d** — additionally relaxes each segment's minimum transmission
  frequency to its real data deadline (``T[2] = 3`` etc. for their trace).

Bandwidth accounting follows the paper's Figure 9 semantics: the *average
bandwidth* of a configuration is the **bytes it actually transmits per
second** (which is why the paper can say that going from 137 to 129 segments
"could not have had any significant impact" even though the c stream rate is
much lower than b's — the film's bytes are the same either way).  Each
variant therefore carries per-segment byte weights alongside its allocated
stream rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import ConfigurationError
from ..smoothing.deadlines import maximum_periods
from ..smoothing.packing import PackedSegments, pack_video
from ..video.segmentation import segment_video, segments_for_wait
from ..video.vbr import VBRVideo
from .dhb import DHBProtocol
from .periods import PeriodVector


@dataclass(frozen=True)
class DHBVariant:
    """A fully derived DHB configuration for one video.

    Attributes
    ----------
    name:
        "DHB-a" .. "DHB-d".
    n_segments:
        Segment count ``n``.
    stream_rate:
        Allocated bandwidth of one data stream, bytes/second.
    slot_duration:
        Slot length ``d`` in seconds.
    periods:
        Maximum-period vector ``T``.
    segment_bytes:
        Bytes moved by one transmission of each segment (``segment_bytes[j-1]``
        for ``S_j``); the Figure 9 byte-accounting weights.
    """

    name: str
    n_segments: int
    stream_rate: float
    slot_duration: float
    periods: PeriodVector
    segment_bytes: List[float]

    def build_protocol(self, track_clients: bool = False) -> DHBProtocol:
        """Instantiate a fresh :class:`~repro.core.dhb.DHBProtocol`."""
        return DHBProtocol(
            periods=self.periods,
            segment_weights=self.segment_bytes,
            track_clients=track_clients,
        )


def _check_wait(video: VBRVideo, max_wait: float) -> None:
    if max_wait <= 0:
        raise ConfigurationError(f"max_wait must be > 0, got {max_wait}")
    if max_wait >= video.duration:
        raise ConfigurationError(
            f"max_wait {max_wait} must be below the video duration "
            f"{video.duration}"
        )


def dhb_a(video: VBRVideo, max_wait: float) -> DHBVariant:
    """Base solution: uniform periods, peak-rate containers."""
    _check_wait(video, max_wait)
    n = segments_for_wait(video.duration, max_wait)
    peak = video.peak_bandwidth(window_seconds=1)
    return DHBVariant(
        name="DHB-a",
        n_segments=n,
        stream_rate=peak,
        slot_duration=max_wait,
        periods=PeriodVector.uniform(n),
        # Fixed-bandwidth container: a transmission occupies the whole
        # peak-rate stream for the slot regardless of the segment's content.
        segment_bytes=[peak * max_wait] * n,
    )


def dhb_b(video: VBRVideo, max_wait: float) -> DHBVariant:
    """Deterministic waiting time: move each segment's actual bytes."""
    _check_wait(video, max_wait)
    n = segments_for_wait(video.duration, max_wait)
    segmented = segment_video(video, n)
    return DHBVariant(
        name="DHB-b",
        n_segments=n,
        stream_rate=segmented.max_segment_rate,
        slot_duration=max_wait,
        periods=PeriodVector.uniform(n),
        segment_bytes=list(segmented.segment_bytes),
    )


def _packed_bytes(packed: PackedSegments) -> List[float]:
    """Per-segment byte totals of a packed video (last chunk is partial)."""
    full = packed.bytes_per_segment
    weights = [full] * packed.n_segments
    weights[-1] = packed.video.total_bytes - full * (packed.n_segments - 1)
    return weights


def dhb_c(video: VBRVideo, max_wait: float) -> DHBVariant:
    """Work-ahead smoothing: fewer, denser segments at the smoothed rate.

    The scheduler still uses conservative windows: each packed segment keeps
    the *smaller* of its data deadline and its ordinal position, so DHB-c
    isolates the effect of packing alone (frequency relaxation is DHB-d's
    contribution).
    """
    _check_wait(video, max_wait)
    packed = pack_video(video, slot_duration=max_wait)
    deadlines = maximum_periods(packed)
    conservative = [min(j + 1, t) for j, t in enumerate(deadlines)]
    conservative[0] = 1
    return DHBVariant(
        name="DHB-c",
        n_segments=packed.n_segments,
        stream_rate=packed.rate,
        slot_duration=max_wait,
        periods=PeriodVector(conservative),
        segment_bytes=_packed_bytes(packed),
    )


def dhb_d(video: VBRVideo, max_wait: float) -> DHBVariant:
    """Work-ahead smoothing plus relaxed minimum transmission frequencies."""
    _check_wait(video, max_wait)
    packed = pack_video(video, slot_duration=max_wait)
    return DHBVariant(
        name="DHB-d",
        n_segments=packed.n_segments,
        stream_rate=packed.rate,
        slot_duration=max_wait,
        periods=PeriodVector(maximum_periods(packed)),
        segment_bytes=_packed_bytes(packed),
    )


def make_all_variants(video: VBRVideo, max_wait: float) -> Dict[str, DHBVariant]:
    """All four Section 4 configurations, keyed by name.

    >>> from ..video.matrix import matrix_like_video
    >>> variants = make_all_variants(matrix_like_video(), 60.0)
    >>> sorted(variants)
    ['DHB-a', 'DHB-b', 'DHB-c', 'DHB-d']
    """
    builders = [dhb_a, dhb_b, dhb_c, dhb_d]
    variants: List[DHBVariant] = [build(video, max_wait) for build in builders]
    return {variant.name: variant for variant in variants}
