"""Client reception plans and on-time verification.

A customer whose request arrives during slot ``i`` starts receiving at the
beginning of slot ``i + 1`` and starts watching at the same moment (the wait
until the slot boundary *is* the protocol's maximum waiting time ``d``).
Segment ``S_j`` must therefore be fully received by the end of relative slot
``T[j]`` — absolute slot ``i + T[j]``.

:class:`ClientPlan` records which transmission each admitted client will use
for each segment, and :meth:`ClientPlan.verify` replays the playout deadline
check — the property the whole protocol exists to guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import DeadlineMissedError, SchedulingError
from .periods import PeriodVector


@dataclass
class ClientPlan:
    """The reception plan handed to one admitted request.

    Attributes
    ----------
    arrival_slot:
        Slot ``i`` during which the request arrived.
    assignments:
        ``assignments[j]`` is the absolute slot in which the client receives
        segment ``S_j`` (either a shared pre-existing instance or one newly
        scheduled for this request).
    shared:
        ``shared[j]`` is True when the client reuses an instance scheduled by
        an earlier request (cost-free for the server).
    """

    arrival_slot: int
    assignments: Dict[int, int] = field(default_factory=dict)
    shared: Dict[int, bool] = field(default_factory=dict)

    def assign(self, segment: int, slot: int, shared: bool) -> None:
        """Record that ``segment`` will be received from ``slot``."""
        if segment in self.assignments:
            raise SchedulingError(
                f"segment S{segment} already assigned for this client"
            )
        self.assignments[segment] = slot
        self.shared[segment] = shared

    def verify(self, periods: PeriodVector) -> None:
        """Check every playout deadline; raise on any violation.

        Raises
        ------
        DeadlineMissedError
            If any segment is received after its deadline slot
            ``arrival_slot + T[j]``.
        SchedulingError
            If a segment is missing, or scheduled in the past (at or before
            the arrival slot).
        """
        if set(self.assignments) != set(range(1, periods.n_segments + 1)):
            missing = set(range(1, periods.n_segments + 1)) - set(self.assignments)
            raise SchedulingError(
                f"client plan incomplete: missing segments {sorted(missing)}"
            )
        for segment, slot in self.assignments.items():
            if slot <= self.arrival_slot:
                raise SchedulingError(
                    f"segment S{segment} assigned to slot {slot}, not after "
                    f"arrival slot {self.arrival_slot}"
                )
            deadline = self.arrival_slot + periods[segment]
            if slot > deadline:
                raise DeadlineMissedError(self.arrival_slot, segment, deadline)

    def max_concurrent_receptions(self) -> int:
        """Peak number of segments this client downloads in a single slot.

        The paper's future-work item caps this at two or three streams; the
        base DHB protocol leaves it unbounded.
        """
        per_slot: Dict[int, int] = {}
        for slot in self.assignments.values():
            per_slot[slot] = per_slot.get(slot, 0) + 1
        return max(per_slot.values()) if per_slot else 0
