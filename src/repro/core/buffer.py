"""Client set-top-box buffer occupancy.

The whole broadcasting-protocol family exists because Viswanathan and
Imielinski "proposed to add to the customer set-top box enough buffer space
to store between, say, thirty minutes and one hour of video data", letting
the STB "receive most video data out of sequence".  This module quantifies
how much buffer a DHB client actually needs: given a client's reception plan
and the per-segment sizes, it replays reception against playout and reports
the occupancy profile.

Conventions (slotted): segment assigned to absolute slot ``k`` is fully
buffered at the end of slot ``k``; the client starts watching at the
beginning of slot ``i + 1`` and consumes segment ``S_j`` during relative
slot ``j``, releasing its bytes at that slot's end.  A segment consumed
in the same slot it arrives (``k == i + j``) streams through and never
occupies the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, SchedulingError
from .client import ClientPlan


@dataclass(frozen=True)
class BufferProfile:
    """Buffer occupancy of one client across its viewing session.

    Attributes
    ----------
    arrival_slot:
        The client's arrival slot ``i``.
    occupancy:
        ``occupancy[t]`` is the buffered byte count at the end of absolute
        slot ``arrival_slot + 1 + t`` (one entry per slot of the session).
    peak_bytes:
        Maximum buffered bytes at any slot boundary.
    total_bytes:
        Total size of the video (sum of segment sizes).
    """

    arrival_slot: int
    occupancy: List[float]
    peak_bytes: float
    total_bytes: float


def buffer_profile(
    plan: ClientPlan,
    segment_bytes: Optional[Sequence[float]] = None,
) -> BufferProfile:
    """Replay ``plan`` and compute the client's buffer occupancy.

    Parameters
    ----------
    plan:
        A complete reception plan (every segment assigned).
    segment_bytes:
        Per-segment byte sizes; defaults to 1.0 per segment, making the
        occupancy read in *segments*.

    Examples
    --------
    A Figure-4 client (idle system, slot 1) streams every segment live and
    never buffers:

    >>> from .dhb import DHBProtocol
    >>> protocol = DHBProtocol(n_segments=6, track_clients=True)
    >>> plan = protocol.handle_request(slot=1)
    >>> buffer_profile(plan).peak_bytes
    0.0

    A Figure-5 client (arriving in slot 3) receives shared segments early
    and buffers them until playout:

    >>> plan = protocol.handle_request(slot=3)
    >>> buffer_profile(plan).peak_bytes
    2.0
    """
    n_segments = len(plan.assignments)
    if n_segments == 0:
        raise ConfigurationError("plan has no assignments")
    if set(plan.assignments) != set(range(1, n_segments + 1)):
        raise SchedulingError("plan is not a contiguous 1..n assignment")
    if segment_bytes is None:
        sizes: Dict[int, float] = {j: 1.0 for j in plan.assignments}
    else:
        if len(segment_bytes) != n_segments:
            raise ConfigurationError(
                f"{len(segment_bytes)} sizes for {n_segments} segments"
            )
        sizes = {j: float(segment_bytes[j - 1]) for j in plan.assignments}

    # Session spans relative slots 1..n (playout) and any earlier arrivals.
    last_relative = max(
        max(slot - plan.arrival_slot for slot in plan.assignments.values()),
        n_segments,
    )
    arrivals_at: Dict[int, float] = {}
    for segment, slot in plan.assignments.items():
        relative = slot - plan.arrival_slot
        consume_at = segment  # consumed during relative slot `segment`
        if relative >= consume_at:
            continue  # streamed live (or late, which verify() would reject)
        arrivals_at[relative] = arrivals_at.get(relative, 0.0) + sizes[segment]

    occupancy: List[float] = []
    level = 0.0
    for relative in range(1, last_relative + 1):
        level += arrivals_at.get(relative, 0.0)
        if relative <= n_segments:
            # Consuming segment `relative` releases it if it was buffered.
            assigned = plan.assignments[relative]
            if assigned - plan.arrival_slot < relative:
                level -= sizes[relative]
        occupancy.append(level)
    if occupancy and abs(occupancy[-1]) < 1e-9:
        occupancy[-1] = 0.0
    return BufferProfile(
        arrival_slot=plan.arrival_slot,
        occupancy=occupancy,
        peak_bytes=max([0.0] + occupancy),
        total_bytes=sum(sizes.values()),
    )


def worst_case_buffer(
    plans: Sequence[ClientPlan],
    segment_bytes: Optional[Sequence[float]] = None,
) -> float:
    """Largest peak buffer across a population of clients.

    >>> from .dhb import DHBProtocol
    >>> protocol = DHBProtocol(n_segments=8, track_clients=True)
    >>> for slot in range(12):
    ...     _ = protocol.handle_request(slot)
    >>> worst_case_buffer(protocol.clients) <= 8.0
    True
    """
    peak = 0.0
    for plan in plans:
        peak = max(peak, buffer_profile(plan, segment_bytes).peak_bytes)
    return peak
