"""Adaptive DHB: online retuning of the delivery windows as the rate moves.

Static DHB pins each segment's delivery window to ``(i, i + T[j]]`` — one
slot of startup wait, whatever the demand.  Under the nonstationary
workloads the paper's introduction motivates (diurnal swings, premiere
flash crowds, event rings) that single operating point is wrong twice a
day: at night it hardly matters (requests are sparse, sharing is rare),
but at the evening peak DHB transmits at its saturation bandwidth
``H(n)`` when a slightly later playback start would cost the server a
fraction of that.

:class:`AdaptiveDHBProtocol` retunes with a **slack dial** instead of a
segment-count change: at a retune the protocol switches the window vector
to ``T[j] = j + S`` for a slack of ``S`` slots, i.e. admitted clients
defer playback start by ``S`` extra slots and every segment's window
stretches by the same ``S``.  The segment grid — and with it the slot
duration, the slotted timeline, and every already-scheduled instance —
stays fixed, which is what makes the retune loss-free:

* **Owed instances are never moved or dropped.**  A client admitted under
  slack ``S0`` had every segment assigned to a concrete slot inside its
  ``(i, i + j + S0]`` window at admission time; those instances stay in
  the schedule untouched, so later retunes (up *or* down) cannot invalidate
  a plan already handed out.  This is the same zero-loss invariant the
  cluster layer's fail-over re-homing relies on.
* **No double-scheduling.**  Admission is DHB's own Figure-6 loop
  (:meth:`~repro.core.dhb.DHBProtocol._admit`) over the window vector
  ``T[j] + S``: it shares whenever a future instance falls inside the
  current window.  A freshly placed instance lands inside every later
  same-slot request's window, so at most one instance of a segment is ever
  placed per admission — and never twice in one slot.

A slack drop shrinks windows under instances already scheduled, so the
schedule runs its sorted future-instance index
(:class:`~repro.core.schedule.SlotSchedule` explains why the latest-slot
index static DHB reads is not enough then).

At saturation with slack ``S`` the expected bandwidth drops from ``H(n)``
to ``H(n + S) − H(S)`` (each segment ``j`` broadcast every ``j + S``
slots), e.g. ``n = 99``: 5.18 streams static vs 1.63 at ``S = 24`` — the
margin the ``repro-cli adaptive-study`` day study measures.

The rate signal is an EWMA over per-slot admission counts with geometric
decay across empty slots; retunes happen lazily at the first admission of
each ``epoch_slots``-slot epoch, so the protocol stays deterministic in
its arrival sequence (batched and per-request admission agree bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .client import ClientPlan
from .dhb import DHBProtocol

#: ``(requests_per_slot_threshold, slack_slots)`` rungs, ascending.
SlackLadder = Tuple[Tuple[float, int], ...]


def default_slack_ladder(n_segments: int) -> SlackLadder:
    """A conservative three-rung ladder scaled to the segment count.

    Idle-to-moderate demand runs at zero slack (exactly static DHB);
    sustained demand above ~2 requests/slot — where sharing is already
    dense and the marginal request is nearly free — buys ``n/8`` slots of
    slack; saturation (several requests every slot) buys ``n/4``.
    """
    if n_segments < 1:
        raise ConfigurationError(f"n_segments must be >= 1, got {n_segments}")
    return (
        (0.0, 0),
        (2.0, max(1, n_segments // 8)),
        (8.0, max(2, n_segments // 4)),
    )


@dataclass(frozen=True)
class RetuneEvent:
    """One slack change, recorded at the admission that triggered it."""

    slot: int
    estimated_rate: float  # requests per slot, EWMA at the epoch boundary
    old_slack: int
    new_slack: int


class SlotRateEstimator:
    """EWMA of per-slot admission counts with decay over empty slots.

    Counts accumulate per slot and fold into the EWMA when a later slot
    arrives; a gap of ``g`` empty slots decays the average by
    ``(1 - alpha)**g`` so the estimate tracks the *rate*, not just the
    nonzero samples.  Folding is deferred, so feeding one ``add(slot, n)``
    or ``n`` separate ``add(slot, 1)`` calls is indistinguishable — the
    property that keeps batched and per-request admission bit-for-bit equal.
    """

    def __init__(self, alpha: float = 0.1):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._ewma = 0.0
        self._slot: Optional[int] = None
        self._count = 0

    def add(self, slot: int, count: int = 1) -> None:
        """Record ``count`` admissions during ``slot`` (non-decreasing slots)."""
        if self._slot is None or slot == self._slot:
            self._slot = slot
            self._count += count
            return
        if slot < self._slot:
            raise ConfigurationError(
                f"estimator fed slot {slot} after slot {self._slot}"
            )
        # Fold the finished slot's count (and any empty slots) into the EWMA.
        self._ewma = self.estimate_before(slot)
        self._slot, self._count = slot, count

    def estimate_before(self, slot: int) -> float:
        """The EWMA as of just before ``slot``'s own arrivals (pure)."""
        if self._slot is None:
            return 0.0
        if slot <= self._slot:
            return self._ewma
        alpha = self.alpha
        value = alpha * self._count + (1.0 - alpha) * self._ewma
        gap = slot - self._slot - 1
        if gap > 0:
            value *= (1.0 - alpha) ** gap
        return value


class AdaptiveDHBProtocol(DHBProtocol):
    """DHB with an epoch-retuned slack dial (see module docstring).

    Parameters
    ----------
    n_segments:
        Number of equal-duration segments (the grid never changes).
    slack_ladder:
        Ascending ``(requests_per_slot_threshold, slack)`` rungs; the rung
        with the largest threshold at or below the estimated rate sets the
        slack.  The first threshold must be ``0.0`` (there is always an
        applicable rung).  Defaults to :func:`default_slack_ladder`.
    epoch_slots:
        Retune cadence: the slack may change only at the first admission
        whose slot falls in a new epoch (``slot // epoch_slots``).
    alpha:
        EWMA smoothing factor of the rate estimator.
    track_clients:
        Keep every admitted request's
        :class:`~repro.core.client.ClientPlan`, plus the parallel
        :attr:`client_slacks` list recording the slack each client was
        admitted under (property tests replay the deadline windows from
        these).

    With a single-rung ladder ``((0.0, 0),)`` the protocol *is* static
    DHB, schedule-for-schedule — the equivalence test pins that.
    """

    shrinking_windows = True

    def __init__(
        self,
        n_segments: int,
        slack_ladder: Optional[Sequence[Tuple[float, int]]] = None,
        epoch_slots: int = 16,
        alpha: float = 0.1,
        track_clients: bool = False,
    ):
        if epoch_slots < 1:
            raise ConfigurationError(f"epoch_slots must be >= 1, got {epoch_slots}")
        ladder = (
            default_slack_ladder(n_segments)
            if slack_ladder is None
            else tuple((float(t), int(s)) for t, s in slack_ladder)
        )
        if not ladder:
            raise ConfigurationError("slack ladder needs at least one rung")
        if ladder[0][0] != 0.0:
            raise ConfigurationError(
                f"the first ladder threshold must be 0.0, got {ladder[0][0]}"
            )
        thresholds = [t for t, _ in ladder]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigurationError(
                f"ladder thresholds must be strictly increasing, got {thresholds}"
            )
        if any(s < 0 for _, s in ladder):
            raise ConfigurationError("slack values must be >= 0")
        super().__init__(n_segments, track_clients=track_clients)
        self.slack_ladder: SlackLadder = ladder
        self.max_slack = max(s for _, s in ladder)
        self.epoch_slots = int(epoch_slots)
        #: Slack each tracked client was admitted under (parallel to clients).
        self.client_slacks: List[int] = []
        self._set_slack(ladder[0][1])
        self.max_slack_used = self.slack
        self.retunes: List[RetuneEvent] = []
        self._estimator = SlotRateEstimator(alpha)
        self._epoch: Optional[int] = None

    # ------------------------------------------------------------------
    # Retuning
    # ------------------------------------------------------------------

    def _set_slack(self, slack: int) -> None:
        self.slack = slack
        # Uniform periods T[j] = j, so the window vector is T[j] + S.
        self._windows = list(range(1 + slack, self.n_segments + 1 + slack))

    def _slack_for(self, rate_per_slot: float) -> int:
        slack = self.slack_ladder[0][1]
        for threshold, rung_slack in self.slack_ladder:
            if rate_per_slot >= threshold:
                slack = rung_slack
            else:
                break
        return slack

    def _retune(self, slot: int, count: int) -> None:
        """Retune at the first admission of an epoch, then count ``count``.

        The first epoch has no signal yet and holds the ladder's initial
        slack.
        """
        epoch = slot // self.epoch_slots
        if self._epoch is not None and epoch != self._epoch:
            estimate = self._estimator.estimate_before(slot)
            new_slack = self._slack_for(estimate)
            if new_slack != self.slack:
                self.retunes.append(
                    RetuneEvent(
                        slot=slot,
                        estimated_rate=estimate,
                        old_slack=self.slack,
                        new_slack=new_slack,
                    )
                )
                self._set_slack(new_slack)
                if new_slack > self.max_slack_used:
                    self.max_slack_used = new_slack
                if self.metrics is not None:
                    self.metrics.counter("protocol.retunes").inc()
        self._epoch = epoch
        self._estimator.add(slot, count)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def handle_request(self, slot: int) -> Optional[ClientPlan]:
        """Admit one request arriving during ``slot``."""
        self._retune(slot, 1)
        return self._admit(slot, 1, 1, self._windows)

    def handle_suffix_request(
        self, slot: int, first_segment: int
    ) -> Optional[ClientPlan]:
        """Admit a suffix join (see DHB's) under the current slack."""
        self._retune(slot, 1)
        return super().handle_suffix_request(slot, first_segment)

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` same-slot requests in one batched admission.

        The slack cannot change mid-slot (retunes fire only at the first
        admission of an epoch), so the batch shares exactly as static DHB's
        does.  Bit-for-bit equal to ``count`` scalar calls.
        """
        if count > 0:
            self._retune(slot, count)
            self._admit(slot, 1, count, self._windows)

    def _admit(self, slot, first_segment, count, windows):
        """DHB's kernel, recording each tracked client's admission slack."""
        plan = super()._admit(slot, first_segment, count, windows)
        if self.track_clients:
            self.client_slacks.extend([self.slack] * count)
        return plan

    def __repr__(self) -> str:
        return (
            f"AdaptiveDHBProtocol(n_segments={self.n_segments}, "
            f"slack={self.slack}, retunes={len(self.retunes)}, "
            f"requests={self.requests_admitted})"
        )
