"""Dynamic Skyscraper Broadcasting (Eager & Vernon 1998).

"Eager and Vernon's dynamic skyscraper broadcasting (DSB) is a reactive
protocol based upon the SB protocol.  Since it abides by the same
restriction on client bandwidth as the original SB protocol, it also
requires a higher server bandwidth than the UD protocol."

Model: SB's map (:func:`repro.protocols.sb.sb_map`) with every occurrence
transmitted only on demand, like UD over FB's.  The occurrence rule is SB's
client schedule: a client arriving during slot ``a`` takes each segment
``S_j`` at its *latest* occurrence at or before its deadline ``a + j``.
Within a group of width ``W`` starting at segment ``f`` those occurrences
form the broadcast cycle starting at ``((a + f) // W) * W`` — the latest
cycle that still meets the playout deadlines, exactly the schedule of
:class:`repro.protocols.sb.SkyscraperBroadcasting`, which is what preserves
the two-concurrent-streams client property.  Since ``W <= f`` the cycle
starts after the arrival slot.  Overlapping clients share cycles; at
saturation every cycle runs and DSB reverts to SB's full stream count —
which exceeds UD's, as the paper notes, because the skyscraper widths pack
fewer segments per stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .on_demand import OnDemandMapProtocol
from .sb import sb_map, sb_streams_for_segments, skyscraper_widths


class DynamicSkyscraperProtocol(OnDemandMapProtocol):
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
        super().__init__(sb_map(n_streams, width_cap))

    def occurrences(self, slot: int) -> np.ndarray:
        """Each segment's latest occurrence at or before ``slot + j``."""
        periods = self._periods_np
        deadlines = np.arange(slot + 1, slot + 1 + len(periods))
        offsets = self._offsets_np
        return offsets + (deadlines - offsets) // periods * periods
