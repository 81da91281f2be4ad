"""Interactive (VCR) extension: pause/resume under DHB.

The DHB paper's companion work (Pâris's interactive broadcasting protocols)
extends broadcasting to VCR actions.  The natural DHB formulation: a viewer
who paused during segment ``j0`` and later resumes is simply a *mid-video
request* — it needs segments ``j0 .. n`` with playout deadlines counted from
its resume slot, so segment ``S_j`` must be received within
``j - j0 + 1`` slots (the uniform case; with custom periods,
``T[j] - T[j0] + 1``, floored at 1).  That is DHB's Figure-6 loop over a
shorter window vector.

The twist for scheduling: resumed clients carry *tighter* windows for the
same segments than fresh clients do (a fresh client's instance of ``S_j``
may sit beyond a resumed client's window, forcing a second future
instance), so the schedule runs its sorted future-instance index — see
:class:`~repro.core.schedule.SlotSchedule` — and shares the *latest one
inside the window*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..errors import ConfigurationError, SchedulingError
from .client import ClientPlan
from .dhb import DHBProtocol
from .heuristic import SlotChooser, latest_min_load_chooser
from .periods import PeriodVector


class InteractiveDHB(DHBProtocol):
    """DHB with mid-video (resume) requests.

    Parameters
    ----------
    n_segments:
        Segment count (uniform periods), or pass ``periods``.
    periods:
        Optional custom maximum-period vector for the *fresh-request* case.
    chooser:
        Slot-selection heuristic.
    track_clients:
        Keep per-client :class:`~repro.core.client.ClientPlan` objects.

    Examples
    --------
    >>> protocol = InteractiveDHB(n_segments=6, track_clients=True)
    >>> fresh = protocol.handle_request(slot=0)
    >>> resumed = protocol.handle_request(slot=0, start_segment=4)
    >>> sorted(resumed.assignments)
    [4, 5, 6]
    >>> resumed.assignments[4]   # needed by the resumer's first slot
    1
    """

    shrinking_windows = True

    def __init__(
        self,
        n_segments: Optional[int] = None,
        periods: Union[PeriodVector, List[int], None] = None,
        chooser: SlotChooser = latest_min_load_chooser,
        track_clients: bool = False,
    ):
        super().__init__(n_segments, periods, chooser, track_clients=track_clients)
        self.resumes_admitted = 0
        self._resume_windows: Dict[int, List[int]] = {1: self._windows}

    def window_length(self, segment: int, start_segment: int) -> int:
        """Slots by which ``S_segment`` may trail a request starting at
        ``start_segment`` (>= 1 by construction)."""
        if segment < start_segment:
            raise SchedulingError(
                f"segment {segment} precedes the start segment {start_segment}"
            )
        length = self.periods[segment] - self.periods[start_segment] + 1
        return max(length, 1)

    def handle_request(
        self, slot: int, start_segment: int = 1
    ) -> Optional[ClientPlan]:
        """Admit a fresh (``start_segment=1``) or resumed request.

        Resumed clients watch segment ``start_segment`` during slot
        ``slot + 1`` and everything after on the usual cadence.
        """
        if not 1 <= start_segment <= self.n_segments:
            raise ConfigurationError(
                f"start_segment {start_segment} outside 1..{self.n_segments}"
            )
        if start_segment not in self._resume_windows:
            shift = self.periods[start_segment] - 1
            self._resume_windows[start_segment] = [max(t - shift, 1) for t in self.periods]
        plan = self._admit(slot, start_segment, 1, self._resume_windows[start_segment])
        if start_segment > 1:
            self.resumes_admitted += 1
        return plan

    def verify_resumed_plan(self, plan: ClientPlan, start_segment: int) -> None:
        """Deadline check for a (possibly resumed) plan.

        Segment ``S_j`` must land within
        ``[arrival+1, arrival + window_length(j, start_segment)]``.
        """
        expected = set(range(start_segment, self.n_segments + 1))
        if set(plan.assignments) != expected:
            raise SchedulingError("plan does not cover the resumed suffix")
        for segment, assigned in plan.assignments.items():
            deadline = plan.arrival_slot + self.window_length(segment, start_segment)
            if not plan.arrival_slot < assigned <= deadline:
                raise SchedulingError(
                    f"S{segment} at slot {assigned} outside "
                    f"({plan.arrival_slot}, {deadline}]"
                )
