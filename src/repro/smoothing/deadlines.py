"""Per-segment deadlines and maximum transmission periods (DHB-d).

The last optimisation of Section 4: "as many video data are now transmitted
ahead of time, most segments will not need to be transmitted as frequently as
before".  Each packed segment ``S_j`` gets a **maximum period** ``T[j]`` — the
largest number of slots by which its transmission may trail the start of a
client's schedule while still arriving before its first byte is consumed.

Timeline conventions (matching :mod:`repro.core`): a client admitted after
slot ``i`` starts *receiving* at the beginning of slot ``i+1`` and starts
*watching* one slot later.  A segment transmitted during relative slot ``m``
(``m = 1`` being the first reception slot) is fully buffered at relative time
``m * d``; its first byte is consumed at relative time ``p_j + d``, where
``p_j`` is the playout time of that byte.  On-time delivery therefore needs
``m <= p_j / d + 1``, i.e.::

    T[j] = floor(p_j / d) + 1

For an unsmoothed CBR video ``p_j = (j-1) d`` and ``T[j] = j`` — the uniform
window of the base DHB protocol, as required.
"""

from __future__ import annotations

import math
from typing import List

from ..errors import SmoothingError
from .packing import PackedSegments

#: Tolerance for boundary-exact deadlines (a byte needed exactly at a slot
#: boundary may be delivered in the slot ending at that boundary).
_BOUNDARY_EPS = 1e-9


def chunk_deadline_slots(packed: PackedSegments) -> List[int]:
    """Latest relative slot in which each packed segment may be transmitted.

    Returns a list ``deadlines`` with ``deadlines[j-1] = T[j]`` for the
    1-based segment ``S_j``.  ``T[1] == 1`` always (the first segment feeds
    playout immediately after the one-slot startup delay).
    """
    d = packed.slot_duration
    deadlines: List[int] = []
    for playout_time in packed.first_byte_playout_times:
        slot = int(math.floor(playout_time / d + 1 + _BOUNDARY_EPS))
        deadlines.append(max(slot, 1))
    if deadlines and deadlines[0] != 1:
        raise SmoothingError(
            f"first segment deadline must be slot 1, got {deadlines[0]}"
        )
    for j in range(1, len(deadlines)):
        if deadlines[j] < deadlines[j - 1]:
            raise SmoothingError("deadline slots must be non-decreasing")
    return deadlines


def maximum_periods(packed: PackedSegments) -> List[int]:
    """Maximum transmission periods ``T[j]`` for the DHB-d scheduler.

    ``T[j]`` equals the deadline slot: a segment due by relative slot
    ``T[j]`` for every client must appear at least once in every window of
    ``T[j]`` consecutive slots, so its maximum period *is* its deadline.
    """
    return chunk_deadline_slots(packed)


def delay_gained(packed: PackedSegments) -> List[int]:
    """Slots of slack DHB-d gains over the naive ``T[j] = j`` window.

    The paper reports "nearly all other segments could be delayed by one to
    eight slots"; this helper quantifies that per segment.
    """
    periods = maximum_periods(packed)
    return [t - (j + 1) for j, t in enumerate(periods)]
