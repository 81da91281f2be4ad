"""Dynamic Skyscraper Broadcasting (Eager & Vernon 1998).

"Eager and Vernon's dynamic skyscraper broadcasting (DSB) is a reactive
protocol based upon the SB protocol.  Since it abides by the same
restriction on client bandwidth as the original SB protocol, it also
requires a higher server bandwidth than the UD protocol."

Model: the skyscraper timing is kept — stream ``g`` carries its group of
``W[g]`` consecutive segments in cycles aligned to multiples of ``W[g]`` —
but a cycle's slots are transmitted only when some admitted client consumes
them.  A client arriving during slot ``a`` uses, for each group, the
*latest* cycle that still meets its playout deadlines (exactly the SB client
schedule of :class:`repro.protocols.sb.SkyscraperBroadcasting`, which is
what preserves the two-concurrent-streams client property).  Marking is
idempotent, so overlapping clients share cycles; at saturation every cycle
runs and DSB reverts to SB's full stream count — which exceeds UD's, as the
paper notes, because the skyscraper widths pack fewer segments per stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import ConfigurationError
from ..sim.slotted import SlottedModel
from .sb import sb_streams_for_segments, skyscraper_widths


class DynamicSkyscraperProtocol(SlottedModel):
    """On-demand transmission of skyscraper cycles.

    Parameters
    ----------
    n_segments:
        Minimum segment count to cover (rounded up to the width series'
        capacity), or give ``n_streams``.
    n_streams:
        Stream count (full capacity of the widths).
    width_cap:
        Optional skyscraper width cap (bounds the client buffer).

    Examples
    --------
    >>> dsb = DynamicSkyscraperProtocol(n_streams=3)
    >>> dsb.handle_request(slot=0)
    >>> [dsb.slot_load(s) for s in range(1, 6)]   # one marked cycle per group
    [1, 1, 1, 1, 1]
    """

    def __init__(
        self,
        n_segments: Optional[int] = None,
        n_streams: Optional[int] = None,
        width_cap: Optional[int] = None,
    ):
        if n_segments is None and n_streams is None:
            raise ConfigurationError("give n_segments and/or n_streams")
        if n_streams is None:
            n_streams = sb_streams_for_segments(n_segments, width_cap)
        self.widths = skyscraper_widths(n_streams, width_cap)
        # Per stream: set of marked cycle start slots.
        self._marked_cycles: Dict[int, Set[int]] = {
            g: set() for g in range(len(self.widths))
        }
        self._released_before = 0
        self._placement_log: Optional[List[int]] = None
        self.requests_admitted = 0

    @property
    def n_segments(self) -> int:
        """Total segments covered by the widths."""
        return sum(self.widths)

    @property
    def n_streams(self) -> int:
        """Stream count (DSB's saturation bandwidth)."""
        return len(self.widths)

    def handle_request(self, slot: int) -> None:
        """Mark, per group, the client's latest feasible broadcast cycle."""
        self.requests_admitted += 1
        first_segment = 1
        log = self._placement_log
        for group, width in enumerate(self.widths):
            cycle_start = ((slot + first_segment) // width) * width
            marked = self._marked_cycles[group]
            if log is not None and cycle_start not in marked:
                log.extend(range(cycle_start, cycle_start + width))
            marked.add(cycle_start)
            first_segment += width

    def bind_placements(self, log: List[int]) -> None:
        """Log each slot of every cycle marked from now on."""
        self._placement_log = log

    def slot_load(self, slot: int) -> int:
        """Streams transmitting during ``slot`` (marked cycles only)."""
        load = 0
        for group, width in enumerate(self.widths):
            cycle_start = (slot // width) * width
            if cycle_start in self._marked_cycles[group]:
                load += 1
        return load

    def release_before(self, slot: int) -> None:
        """Drop cycles that ended before ``slot``."""
        if slot <= self._released_before:
            return
        for group, width in enumerate(self.widths):
            keep = {s for s in self._marked_cycles[group] if s + width > slot}
            self._marked_cycles[group] = keep
        self._released_before = slot
