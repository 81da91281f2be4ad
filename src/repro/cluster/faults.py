"""Deterministic fault injection and degraded-mode failover.

Faults are declared up front as a :class:`FaultSchedule` — crash windows
(server down for a slot range, its whole transmission schedule lost) and
channel-loss windows (a fraction of a server's per-slot capacity gone, e.g.
a failed NIC in a bond) — so a faulted run is exactly as reproducible as a
clean one.

Degraded mode is where the paper's protocol earns its "dynamic": a crashed
server's clients still hold playout deadlines, and every segment instance
the dead schedule owed them must reappear on a surviving replica within the
remaining delivery window.  DHB can do this because its state *is* a
:class:`~repro.core.schedule.SlotSchedule` — its per-slot store enumerates
exactly what was lost (:func:`lost_instances`), and the window heuristic
replaces each loss with a least-loaded placement in
``[crash_slot, due_slot]`` (:func:`reschedule_instance`), sharing an
already-scheduled instance on the survivor when the schedule's sharing
query finds one inside the window.  Map-timing protocols (UD, dnpb) keep no
reschedulable state, so crash scenarios are refused for them
(:func:`supports_rescheduling`) rather than silently dropping segments.

A rescheduled instance may land *earlier* than a survivor's own future
instance of the same segment; the survivor's schedule then briefly carries
two future instances.  That costs a little bandwidth, never correctness:
a latest-slot index keeps pointing at the later one, so subsequent
admissions still share it, and a sorted index sees both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Tuple

from ..core.schedule import SlotSchedule
from ..errors import ClusterError
from .admission import CappedServer
from .topology import ClusterTopology


@dataclass(frozen=True)
class CrashWindow:
    """Server ``server_id`` is down for slots ``[start_slot, end_slot)``.

    The crash takes effect at the *start* of ``start_slot`` — before that
    slot's transmissions are finalized, so every instance the server had
    scheduled for ``start_slot`` or later is lost and must fail over.  The
    server returns (with empty schedules) at the start of ``end_slot``.
    """

    server_id: int
    start_slot: int
    end_slot: int

    def __post_init__(self):
        if self.start_slot < 0:
            raise ClusterError(f"crash start_slot must be >= 0, got {self.start_slot}")
        if self.end_slot <= self.start_slot:
            raise ClusterError(
                f"crash window [{self.start_slot}, {self.end_slot}) is empty"
            )


@dataclass(frozen=True)
class ChannelLoss:
    """A fraction of one server's channels is lost for ``[start_slot, end_slot)``.

    The effective capacity during the window is
    ``floor(nominal * (1 - fraction))`` — demand over it defers through the
    admission ledger like any other overload.
    """

    server_id: int
    start_slot: int
    end_slot: int
    fraction: float

    def __post_init__(self):
        if self.start_slot < 0:
            raise ClusterError(f"loss start_slot must be >= 0, got {self.start_slot}")
        if self.end_slot <= self.start_slot:
            raise ClusterError(
                f"loss window [{self.start_slot}, {self.end_slot}) is empty"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ClusterError(f"loss fraction must be in [0, 1], got {self.fraction}")

    def covers(self, slot: int) -> bool:
        """Whether the loss applies during ``slot``."""
        return self.start_slot <= slot < self.end_slot


@dataclass(frozen=True)
class FaultSchedule:
    """The complete, declared-up-front fault plan for one cluster run."""

    crashes: Tuple[CrashWindow, ...] = ()
    losses: Tuple[ChannelLoss, ...] = ()

    def __post_init__(self):
        by_server: dict = {}
        for crash in self.crashes:
            by_server.setdefault(crash.server_id, []).append(crash)
        for server_id, windows in by_server.items():
            windows.sort(key=lambda w: w.start_slot)
            for earlier, later in zip(windows, windows[1:]):
                if later.start_slot < earlier.end_slot:
                    raise ClusterError(
                        f"server {server_id} has overlapping crash windows "
                        f"[{earlier.start_slot}, {earlier.end_slot}) and "
                        f"[{later.start_slot}, {later.end_slot})"
                    )

    def validate_against(self, topology: ClusterTopology) -> None:
        """Reject windows that reference servers the topology lacks."""
        known = {spec.server_id for spec in topology.servers}
        for window in (*self.crashes, *self.losses):
            if window.server_id not in known:
                raise ClusterError(
                    f"fault window references unknown server {window.server_id}"
                )

    def crashes_at(self, slot: int) -> List[int]:
        """Server ids whose crash window starts at ``slot``."""
        return [c.server_id for c in self.crashes if c.start_slot == slot]

    def recoveries_at(self, slot: int) -> List[int]:
        """Server ids whose crash window ends at ``slot``."""
        return [c.server_id for c in self.crashes if c.end_slot == slot]

    def chunk_stop(self, slot: int, stop: int) -> int:
        """The first crash or recovery slot in ``(slot, stop)``, else ``stop``.

        A runner that works in runs of slots ends a run there, so every
        server is up or down for a whole run.
        """
        return min(
            (
                edge
                for crash in self.crashes
                for edge in (crash.start_slot, crash.end_slot)
                if slot < edge < stop
            ),
            default=stop,
        )

    def effective_capacity(self, server_id: int, nominal: int, slot: int) -> int:
        """Per-slot channel budget after applying loss windows.

        Overlapping losses do not stack; the worst (largest) fraction wins.
        """
        fraction = 0.0
        for loss in self.losses:
            if loss.server_id == server_id and loss.covers(slot):
                fraction = max(fraction, loss.fraction)
        if fraction == 0.0:
            return nominal
        return int(math.floor(nominal * (1.0 - fraction)))


#: A schedule that injects nothing — the default for clean scenarios.
NO_FAULTS = FaultSchedule()


# -- degraded-mode failover ----------------------------------------------------


class LostInstance(NamedTuple):
    """One segment instance a crashed server owed its admitted clients."""

    title: int
    segment: int
    due_slot: int


def supports_rescheduling(protocol) -> bool:
    """Whether degraded-mode failover can read and repair this protocol.

    True exactly when the protocol exposes its state as a public
    :class:`~repro.core.schedule.SlotSchedule` (DHB and its variants);
    map-timing protocols keep private, non-reschedulable state.
    """
    return isinstance(getattr(protocol, "schedule", None), SlotSchedule)


def lost_instances(server: CappedServer, crash_slot: int) -> List[LostInstance]:
    """Enumerate the future instances a crash at ``crash_slot`` destroys.

    Must be called *before* :meth:`CappedServer.crash` (which discards the
    schedules).  Anything at a slot ``>= crash_slot`` was not yet
    transmitted, including instances due in the crash slot itself (the
    crash lands before that slot is finalized).  Instances come per title
    in ``(segment, slot)`` order, every one of them — also a second future
    instance of a segment (a shrunk window, an earlier failover placement).
    """
    lost: List[LostInstance] = []
    for title in server.titles:
        protocol = server.protocols[title]
        if not supports_rescheduling(protocol):
            raise ClusterError(
                f"cannot enumerate lost instances of {type(protocol).__name__}; "
                "crash scenarios require a reschedulable protocol (DHB)"
            )
        lost.extend(
            LostInstance(title=title, segment=segment, due_slot=due)
            for segment, due in protocol.schedule.future_instances(crash_slot)
        )
    return lost


@dataclass
class FailoverEvent:
    """One lost instance's fate: shared with or placed on a survivor."""

    slot: int
    title: int
    segment: int
    due_slot: int
    from_server: int
    to_server: int
    placed_slot: int
    shared: bool


@dataclass
class FailoverReport:
    """Everything a crash transition did, for metrics and audits."""

    crashed_server: int
    slot: int
    events: List[FailoverEvent] = field(default_factory=list)
    lost_for_good: int = 0

    @property
    def rescheduled(self) -> int:
        """Instances newly placed on survivors (shared ones cost nothing)."""
        return sum(1 for event in self.events if not event.shared)


def reschedule_instance(
    protocol,
    crash_slot: int,
    segment: int,
    due_slot: int,
) -> Tuple[int, bool]:
    """Repair one lost instance on a survivor's protocol.

    Returns ``(slot, shared)``: if the survivor already transmits
    ``segment`` within ``[crash_slot, due_slot]`` the orphaned clients just
    listen there (``shared=True``); otherwise the window heuristic places a
    fresh instance in the least-loaded slot of that window — which always
    exists, because the window contains at least ``crash_slot`` itself (the
    crash slot's load is not yet finalized when failover runs).
    """
    if not supports_rescheduling(protocol):
        raise ClusterError(
            f"{type(protocol).__name__} cannot reschedule lost segment "
            "instances; degraded mode requires DHB"
        )
    schedule = protocol.schedule
    existing = schedule.shareable(segment, crash_slot - 1, due_slot)
    if existing is not None:
        return existing, True
    return schedule.place_latest_min(crash_slot, due_slot, segment), False


def fail_over(
    crashed: CappedServer,
    survivors_of_title,
    crash_slot: int,
) -> FailoverReport:
    """Run the full degraded-mode transition for one crashing server.

    ``survivors_of_title(title)`` must return the preference-ordered list
    of *alive* :class:`CappedServer` replicas of ``title``, excluding the
    crashing server.  Every lost instance is shared with or placed on the
    first survivor (failover is forced — admission headroom does not apply,
    because these clients were already admitted); a title with no surviving
    replica counts its instances in ``lost_for_good`` instead of raising,
    so sharded-catalog experiments can measure the damage.
    """
    lost = lost_instances(crashed, crash_slot)
    crashed.crash(crash_slot)
    report = FailoverReport(crashed_server=crashed.server_id, slot=crash_slot)
    for instance in lost:
        survivors = survivors_of_title(instance.title)
        if not survivors:
            report.lost_for_good += 1
            continue
        target = survivors[0]
        placed_slot, shared = reschedule_instance(
            target.protocols[instance.title],
            crash_slot,
            instance.segment,
            instance.due_slot,
        )
        target.failover_clients_in += 1
        report.events.append(
            FailoverEvent(
                slot=crash_slot,
                title=instance.title,
                segment=instance.segment,
                due_slot=instance.due_slot,
                from_server=crashed.server_id,
                to_server=target.server_id,
                placed_slot=placed_slot,
                shared=shared,
            )
        )
    return report
