"""Extension: DHB with a bounded client receive bandwidth.

The paper's closing future-work item: "we would like to investigate dynamic
heuristic broadcasting protocols that limit the client bandwidth to two or
three data streams".  Base DHB may require a set-top box to download many
segments in the same slot; skyscraper-family protocols cap that at two.

:class:`BandwidthLimitedDHB` adds the cap: a client never receives more than
``client_cap`` segments during any one slot.  Consequences for scheduling:

* an otherwise-shareable instance is useless to a client whose cap is
  already exhausted in that slot, so the schedule may legitimately carry
  *duplicate* future instances of a segment and runs its sorted
  future-instance index (see :class:`~repro.core.schedule.SlotSchedule`);
* a new instance must be placed in a window slot where the client still has
  reception capacity.

A greedy segment-by-segment pass remains feasible for any cap >= 1 under
uniform periods: when segment ``S_j`` is processed, the client holds ``j-1``
assignments while the window offers ``j`` slots, so at least one window slot
has spare client capacity even at ``cap == 1``.  With custom (smoothed)
period vectors a pathological vector could exhaust the window; we then raise
:class:`~repro.errors.SchedulingError` rather than silently violate either
the deadline or the cap.

Everything but that share/place step is DHB's (:mod:`repro.core.dhb`).
Batches are admitted request by request: each client's receive budget
makes same-slot admissions non-idempotent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..errors import ConfigurationError, SchedulingError
from .client import ClientPlan
from .dhb import DHBProtocol
from .heuristic import SlotChooser, latest_min_load_chooser
from .periods import PeriodVector


class BandwidthLimitedDHB(DHBProtocol):
    """DHB with at most ``client_cap`` concurrent receptions per client.

    Parameters
    ----------
    n_segments:
        Number of segments (uniform periods), or pass ``periods``.
    client_cap:
        Maximum segments a client may download during one slot (>= 1).
    periods:
        Optional custom maximum-period vector.
    chooser:
        Slot-selection heuristic among capacity-feasible window slots.
    track_clients:
        Keep per-client :class:`~repro.core.client.ClientPlan` objects.

    Examples
    --------
    >>> protocol = BandwidthLimitedDHB(n_segments=6, client_cap=2,
    ...                                track_clients=True)
    >>> plan = protocol.handle_request(slot=0)
    >>> plan.max_concurrent_receptions() <= 2
    True
    """

    shrinking_windows = True

    def __init__(
        self,
        n_segments: Optional[int] = None,
        client_cap: int = 2,
        periods: Union[PeriodVector, List[int], None] = None,
        chooser: SlotChooser = latest_min_load_chooser,
        track_clients: bool = False,
    ):
        if client_cap < 1:
            raise ConfigurationError(f"client_cap must be >= 1, got {client_cap}")
        super().__init__(n_segments, periods, chooser, track_clients=track_clients)
        self.client_cap = int(client_cap)

    def _admit(
        self, slot: int, first_segment: int, count: int, windows: List[int]
    ) -> Optional[ClientPlan]:
        """Figure 6 with a cap-aware share/place step, one request at a time.

        A request shares the latest window instance in a slot where it
        still has reception capacity, else places a new instance in the
        least-loaded (latest on ties) window slot that has some.
        """
        schedule = self.schedule
        cap = self.client_cap
        metrics = self.metrics
        instances_before = schedule.total_instances
        plan = None
        for _ in range(count):
            plan = ClientPlan(arrival_slot=slot) if self.track_clients else None
            usage: Dict[int, int] = {}
            for segment in range(first_segment, self.n_segments + 1):
                window_end = slot + windows[segment - 1]
                shared = schedule.shareable(segment, slot, window_end)
                while shared is not None and usage.get(shared, 0) >= cap:
                    shared = schedule.shareable(segment, slot, shared - 1)
                chosen = shared
                if shared is None:
                    chosen = self._place(segment, slot + 1, window_end, usage)
                usage[chosen] = usage.get(chosen, 0) + 1
                if plan is not None:
                    plan.assign(segment, chosen, shared=shared is not None)
            if plan is not None:
                self.clients.append(plan)
        self.requests_admitted += count
        if metrics is not None:
            metrics.counter("protocol.requests").inc(count)
            metrics.counter("protocol.instances_scheduled").inc(
                schedule.total_instances - instances_before
            )
        return plan

    def _place(
        self, segment: int, window_start: int, window_end: int, usage: Dict[int, int]
    ) -> int:
        """Apply the heuristic over the window slots with client capacity.

        The chooser interface works on contiguous windows, so the paper's
        rule is reproduced directly over a possibly non-contiguous set:
        least-loaded feasible slot, ties to the latest.  A custom chooser
        is consulted when the feasible slots are contiguous.
        """
        feasible = [
            k for k in range(window_start, window_end + 1) if usage.get(k, 0) < self.client_cap
        ]
        if not feasible:
            raise SchedulingError(
                f"client cap {self.client_cap} leaves no feasible slot for "
                f"S{segment} in window [{window_start}, {window_end}]"
            )
        load = self.schedule.load
        if self.chooser is not latest_min_load_chooser and (
            feasible[-1] - feasible[0] == len(feasible) - 1
        ):
            chosen = self.chooser(load, feasible[0], feasible[-1])
        else:
            chosen = max(feasible, key=lambda k: (-load(k), k))
        self.schedule.add(chosen, segment)
        return chosen

    def __repr__(self) -> str:
        return (
            f"BandwidthLimitedDHB(n_segments={self.n_segments}, "
            f"cap={self.client_cap}, requests={self.requests_admitted})"
        )
