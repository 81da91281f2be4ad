"""The Dynamic Heuristic Broadcasting protocol (the paper's Figure 6).

Algorithm, verbatim from the paper::

    Assumptions:
        slot k already contains m_k segment instances
        video contains n segments
        new video request arrives during slot i
    Algorithm:
        for j := 1 to n do
            search slots i+1 to i+j for an already scheduled instance of S_j
            if not found then
                let m_min := min { m_k | i+1 <= k <= i+j }
                let k_max := max { k | i+1 <= k <= i+j and m_k = m_min }
                schedule one instance of S_j in slot k_max
            end if
        end for loop

Section 4 replaces the window bound ``i + j`` by ``i + T[j]`` for compressed
video; the uniform CBR case is just ``T[j] = j``.  The heuristic is pluggable
(see :mod:`repro.core.heuristic`) so the ablation benches can swap it.

The loop is written once, as :meth:`DHBProtocol._admit`, over a window
vector: entry ``j - 1`` is how many slots after the arrival ``S_j`` is due.
Every variant is a window policy on top of it — suffix joins
(:meth:`~DHBProtocol.handle_suffix_request`) start the loop later, adaptive
DHB (:mod:`repro.core.adaptive`) adds a slack to every window, resumes
(:mod:`repro.core.interactive`) shorten them — and the receive-cap extension
(:mod:`repro.core.bandwidth_limited`) swaps in a cap-aware share/place step.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..errors import ConfigurationError
from ..sim.slotted import SlottedModel
from .client import ClientPlan
from .heuristic import SlotChooser, latest_min_load_chooser
from .periods import PeriodVector
from .schedule import SlotSchedule


class DHBProtocol(SlottedModel):
    """Dynamic Heuristic Broadcasting.

    Parameters
    ----------
    n_segments:
        Number of equal-duration segments (99 in Figures 7 and 8).
    periods:
        Maximum-period vector ``T``; defaults to the uniform CBR vector
        ``T[j] = j``.  May also be given as a plain sequence.
    chooser:
        Slot-selection heuristic; defaults to the paper's
        least-loaded/latest-tie rule.
    enable_sharing:
        Ablation switch: ``False`` skips the "already scheduled?" check and
        schedules every segment for every request.  Isolates how much of
        DHB's bandwidth saving comes from sharing (all of it, at high rates).
    segment_weights:
        Optional per-segment byte sizes.  ``slot_weight`` then reports the
        bytes transmitted per slot (compressed-video accounting, Figure 9);
        ``slot_load`` remains the occupied stream count.
    track_clients:
        Keep every admitted request's :class:`~repro.core.client.ClientPlan`
        (memory grows with request count — used by tests and examples, not by
        long sweeps).

    Examples
    --------
    The paper's Figure 4 — a request into an idle system during slot 1 gets
    segment ``S_j`` scheduled in slot ``j + 1``:

    >>> protocol = DHBProtocol(n_segments=6, track_clients=True)
    >>> plan = protocol.handle_request(slot=1)
    >>> plan.assignments
    {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7}

    Figure 5 — a second request during slot 3 shares ``S_3 .. S_6`` and only
    adds ``S_1`` in slot 4 and ``S_2`` in slot 5:

    >>> plan = protocol.handle_request(slot=3)
    >>> {j: s for j, s in plan.assignments.items() if not plan.shared[j]}
    {1: 4, 2: 5}
    """

    #: Whether this protocol's windows can shrink under instances already
    #: scheduled, which selects :class:`SlotSchedule`'s sorted index mode.
    shrinking_windows = False

    def __init__(
        self,
        n_segments: Optional[int] = None,
        periods: Union[PeriodVector, List[int], None] = None,
        chooser: SlotChooser = latest_min_load_chooser,
        enable_sharing: bool = True,
        segment_weights: Optional[List[float]] = None,
        track_clients: bool = False,
    ):
        if periods is None:
            if n_segments is None:
                raise ConfigurationError("give n_segments or an explicit periods vector")
            periods = PeriodVector.uniform(n_segments)
        elif not isinstance(periods, PeriodVector):
            periods = PeriodVector(periods)
        if n_segments is not None and n_segments != periods.n_segments:
            raise ConfigurationError(
                f"n_segments ({n_segments}) conflicts with periods "
                f"(n={periods.n_segments})"
            )
        self.periods = periods
        self.chooser = chooser
        self.enable_sharing = enable_sharing
        self.schedule = SlotSchedule(
            periods.n_segments, segment_weights, sorted_future=self.shrinking_windows
        )
        self.track_clients = track_clients
        self.clients: List[ClientPlan] = []
        self.requests_admitted = 0
        # Window vector of a fresh request: S_j is due T[j] slots after it.
        self._windows = periods.as_list()

    @property
    def n_segments(self) -> int:
        """Number of segments ``n``."""
        return self.periods.n_segments

    def handle_request(self, slot: int) -> Optional[ClientPlan]:
        """Admit a request that arrived during ``slot`` (Figure 6).

        Returns the client's reception plan when ``track_clients`` is on.
        """
        return self._admit(slot, 1, 1, self._windows)

    def handle_suffix_request(
        self, slot: int, first_segment: int
    ) -> Optional[ClientPlan]:
        """Admit a client that already holds segments ``1 .. first_segment-1``.

        The origin→edge hierarchy (:mod:`repro.edge`) serves video prefixes
        from edge caches; the client joining the origin broadcast only needs
        the *suffix*, so Figure 6's loop runs over segments
        ``first_segment .. n`` with unchanged per-segment windows (segment
        ``j`` is still due ``T[j]`` slots after the join) — the paper's
        sharing rule applies to suffix joins for free.  ``first_segment = 1``
        is exactly :meth:`handle_request`; ``first_segment`` past the last
        segment is a configuration error (a fully cached title never joins
        the origin).
        """
        if first_segment > self.n_segments:
            raise ConfigurationError(
                f"first_segment {first_segment} beyond the last segment "
                f"{self.n_segments}; fully cached titles do not join the origin"
            )
        return self._admit(slot, max(first_segment, 1), 1, self._windows)

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` same-slot requests in one batched admission.

        Observably identical to ``count`` repeated :meth:`handle_request`
        calls (schedule, counters, metrics); see :meth:`_admit` for why a
        sharing batch costs one admission.
        """
        self._admit(slot, 1, count, self._windows)

    def _admit(
        self, slot: int, first_segment: int, count: int, windows: List[int]
    ) -> Optional[ClientPlan]:
        """Figure 6, for every variant: admit ``count`` requests of ``slot``.

        Each request needs segments ``first_segment .. n``, ``S_j`` within
        ``(slot, slot + windows[j-1]]``: share an instance already in that
        window, else place one in its least-loaded, latest slot.  Returns
        the last request's plan when ``track_clients`` is on.

        Sharing collapses a batch to a single pass: the first request leaves
        every segment with an instance inside every later same-slot
        request's window, so requests 2..count share everything and
        schedule nothing.  Without sharing, or with per-client plans to
        record, each request takes its own pass.

        The default configuration splits that loop in two: the schedule
        answers the sharing half for every segment at once
        (:meth:`SlotSchedule.unshared_segments` — one vectorised compare on
        the latest-slot index; at saturation only ~H(n) of n segments
        qualify), then :meth:`SlotSchedule.place_latest_min_many` places
        the rest in ascending segment order reading loads live —
        bit-for-bit the loop's schedule.
        """
        if count <= 0:
            return None
        schedule = self.schedule
        metrics = self.metrics
        instances_before = schedule.total_instances if metrics is not None else 0
        fused = self.chooser is latest_min_load_chooser
        plan = None
        if fused and self.enable_sharing and not self.track_clients:
            needed = schedule.unshared_segments(first_segment, slot, windows)
            if needed:
                schedule.place_latest_min_many(
                    slot + 1, [slot + windows[segment - 1] for segment in needed], needed
                )
        else:
            share = schedule.shareable if self.enable_sharing else None
            passes = count if self.track_clients or share is None else 1
            for _ in range(passes):
                plan = ClientPlan(arrival_slot=slot) if self.track_clients else None
                for segment in range(first_segment, self.n_segments + 1):
                    window_end = slot + windows[segment - 1]
                    shared = share(segment, slot, window_end) if share else None
                    if shared is not None:
                        chosen = shared
                    elif fused:
                        chosen = schedule.place_latest_min(slot + 1, window_end, segment)
                    else:
                        chosen = self.chooser(schedule.load, slot + 1, window_end)
                        schedule.add(chosen, segment)
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

    def bind_placements(self, log: List[int]) -> None:
        """Log every instance the schedule gets (admissions and repairs)."""
        self.schedule.placement_log = log

    def slot_load(self, slot: int) -> int:
        """Segment instances transmitted during ``slot`` (streams of rate b)."""
        return self.schedule.load(slot)

    def slot_weight(self, slot: int) -> float:
        """Weighted load of ``slot`` (bytes when weights are byte sizes)."""
        return self.schedule.weight(slot)

    def slot_loads(self, start: int, stop: int) -> List[int]:
        """Loads of slots ``[start, stop)``, one slice of the schedule."""
        return self.schedule.loads(start, stop)

    def slot_weights(self, start: int, stop: int) -> List[float]:
        """Weighted loads of slots ``[start, stop)``, one slice of the schedule."""
        return self.schedule.weights(start, stop)

    def slot_instances(self, slot: int) -> List[int]:
        """Segment numbers scheduled in ``slot`` (for per-slot traces)."""
        return self.schedule.segments_in(slot)

    def release_before(self, slot: int) -> None:
        """Garbage-collect schedule bookkeeping for slots ``< slot``."""
        self.schedule.release_before(slot)

    def __repr__(self) -> str:
        kind = "uniform" if self.periods.is_uniform else "custom-periods"
        return (
            f"{type(self).__name__}(n_segments={self.n_segments}, {kind}, "
            f"requests={self.requests_admitted})"
        )
