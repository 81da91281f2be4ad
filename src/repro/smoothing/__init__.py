"""Bandwidth smoothing for compressed video (Section 4 of the paper).

The paper derives four DHB configurations for a VBR video:

* **DHB-a** — streams at the video's 1-second peak rate (no smoothing);
* **DHB-b** — deterministic waiting time: every segment fully downloaded one
  slot ahead, streams at the maximum per-segment average rate
  (:mod:`repro.video.segmentation`);
* **DHB-c** — *smoothing by work-ahead* (Salehi et al.): continuous use of a
  constant stream rate packs the video into fewer segments
  (:mod:`repro.smoothing.workahead`, :mod:`repro.smoothing.packing`);
* **DHB-d** — additionally relaxes each segment's minimum transmission
  frequency to the latest slot its data is actually needed
  (:mod:`repro.smoothing.deadlines`).
"""

from .deadlines import chunk_deadline_slots, maximum_periods
from .packing import PackedSegments, pack_video
from .workahead import minimum_workahead_rate

__all__ = [
    "PackedSegments",
    "chunk_deadline_slots",
    "maximum_periods",
    "minimum_workahead_rate",
    "pack_video",
]
