"""Per-server admission control under a hard channel cap.

A :class:`CappedServer` hosts one slotted protocol instance per title it
carries and enforces the server's per-slot channel budget on their summed
demand.  The paper's protocols assume an uncapacitated server; the cap is
applied at transmission time through a *deferral ledger*:

* each slot, the server owes ``demand + backlog`` segment instances;
* it transmits at most ``capacity`` of them; the remainder carries over to
  the next slot as backlog (those instances go out late — the client-visible
  delay is accounted as *instance-slots of lateness*, one per deferred
  instance per slot);
* a server whose backlog reaches the admission limit reports no headroom,
  which is the signal routers use to reject or divert new requests.

The ledger is aggregate — it counts deferred instances without tracking
*which* instance is late.  That keeps the cap enforcement O(titles) per slot
regardless of load, and matches how the provisioning layer reasons about
overflow slots; scenarios that need exact per-segment delivery accounting
(the fault-injection tests) run with enough capacity that the backlog stays
zero, where scheduled and transmitted instances coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import ClusterError
from ..sim.slotted import SlottedModel
from .topology import ServerSpec


@dataclass(frozen=True)
class SlotReport:
    """What one server did during one slot.

    Attributes
    ----------
    demand:
        Segment instances the hosted protocols scheduled for the slot.
    transmitted:
        Instances actually sent (``min(demand + entering backlog, capacity)``).
    backlog:
        Instances still owed after the slot (deferred to later slots).
    capacity:
        The effective channel budget applied (post fault injection).
    alive:
        Whether the server was up during the slot.
    title_loads:
        Title → instances its protocol scheduled for the slot (``demand``
        is their sum); empty while the server is down.
    """

    demand: int
    transmitted: int
    backlog: int
    capacity: int
    alive: bool
    title_loads: Dict[int, int] = field(default_factory=dict)


class CappedServer:
    """One bandwidth-capped server running a protocol instance per title.

    Parameters
    ----------
    spec:
        The server's identity and nominal per-slot capacity.
    titles:
        The titles this server holds a replica of.
    protocol_factory:
        ``protocol_factory(title)`` builds a fresh slotted protocol for one
        title; also used to rebuild state after a crash (a crashed server
        loses its schedule).
    backlog_limit:
        Admission threshold in instances: the server reports headroom only
        while its backlog is strictly below this limit.  Defaults to the
        nominal capacity (i.e. less than one full slot of deferred work).
    """

    def __init__(
        self,
        spec: ServerSpec,
        titles: List[int],
        protocol_factory: Callable[[int], SlottedModel],
        backlog_limit: Optional[int] = None,
    ):
        self.spec = spec
        self.titles = list(titles)
        self._factory = protocol_factory
        self.protocols: Dict[int, SlottedModel] = {
            title: protocol_factory(title) for title in titles
        }
        self.backlog_limit = (
            int(backlog_limit) if backlog_limit is not None else spec.capacity
        )
        if self.backlog_limit < 1:
            raise ClusterError(
                f"server {spec.server_id}: backlog_limit must be >= 1"
            )
        self.alive = True
        self.backlog = 0
        # Lifetime counters (never reset, survive crashes).
        self.admitted = 0
        self.failover_clients_in = 0
        self.transmitted_instances = 0
        self.deferred_instance_slots = 0
        self.down_slots = 0

    @property
    def server_id(self) -> int:
        """The server's id (mirrors the spec)."""
        return self.spec.server_id

    # -- admission ------------------------------------------------------------

    def has_headroom(self) -> bool:
        """Whether a router may send a new request here."""
        return self.alive and self.backlog < self.backlog_limit

    def admit(self, title: int, slot: int) -> None:
        """Admit one request for ``title`` that arrived during ``slot``."""
        self.admit_suffix(title, slot, 1)

    def admit_suffix(self, title: int, slot: int, first_segment: int) -> None:
        """Admit a suffix join: the client holds segments ``< first_segment``.

        The origin→edge hierarchy serves prefixes from edge caches; the
        origin only schedules the remaining suffix.  ``first_segment <= 1``
        is a plain admission (the zero-budget pass-through path); anything
        else requires a protocol exposing ``handle_suffix_request`` (DHB —
        see :func:`repro.cluster.faults.supports_rescheduling` for the
        analogous capability check).
        """
        if not self.alive:
            raise ClusterError(
                f"server {self.server_id} is down; cannot admit title {title}"
            )
        try:
            protocol = self.protocols[title]
        except KeyError:
            raise ClusterError(
                f"server {self.server_id} holds no replica of title {title}"
            ) from None
        if first_segment <= 1:
            protocol.handle_request(slot)
        else:
            handle = getattr(protocol, "handle_suffix_request", None)
            if handle is None:
                raise ClusterError(
                    f"protocol {type(protocol).__name__} cannot admit suffix "
                    "joins; hierarchy scenarios with a cache budget require DHB"
                )
            handle(slot, first_segment)
        self.admitted += 1

    def pressure(self, slot: int) -> int:
        """Routing load signal: backlog plus the next slot's scheduled demand.

        Deterministic and cheap (O(titles)); the least-loaded and
        prefix-aware routers rank candidates by it.
        """
        return self.backlog + self.demand(slot + 1)

    # -- the capped timeline --------------------------------------------------

    def demand(self, slot: int) -> int:
        """Segment instances the hosted protocols scheduled for ``slot``."""
        return sum(protocol.slot_load(slot) for protocol in self.protocols.values())

    def finalize_slot(self, slot: int, capacity: Optional[int] = None) -> SlotReport:
        """Apply the channel cap to ``slot`` and advance the deferral ledger.

        ``capacity`` is the effective budget for the slot (fault injection
        may shrink it); ``None`` uses the nominal spec capacity.  Call once
        per slot, before delivering the slot's arrivals (mirroring the
        slotted driver's record-then-deliver order).
        """
        if not self.alive:
            self.down_slots += 1
            return SlotReport(
                demand=0, transmitted=0, backlog=0, capacity=0, alive=False
            )
        cap = self.spec.capacity if capacity is None else int(capacity)
        if cap < 0:
            raise ClusterError(f"effective capacity must be >= 0, got {cap}")
        title_loads = {
            title: protocol.slot_load(slot)
            for title, protocol in self.protocols.items()
        }
        demand = sum(title_loads.values())
        owed = self.backlog + demand
        transmitted = min(owed, cap)
        self.backlog = owed - transmitted
        self.transmitted_instances += transmitted
        self.deferred_instance_slots += self.backlog
        return SlotReport(
            demand=demand,
            transmitted=transmitted,
            backlog=self.backlog,
            capacity=cap,
            alive=True,
            title_loads=title_loads,
        )

    def slot_instances(self, slot: int) -> Dict[int, List[int]]:
        """Title → segment numbers scheduled in ``slot`` (for delivery audits)."""
        return {
            title: protocol.slot_instances(slot)
            for title, protocol in self.protocols.items()
        }

    def release_before(self, slot: int) -> None:
        """Drop per-slot bookkeeping for slots ``< slot`` on every title."""
        for protocol in self.protocols.values():
            protocol.release_before(slot)

    # -- fault transitions ----------------------------------------------------

    def crash(self, slot: int) -> None:
        """Take the server down at ``slot``: all scheduled state is lost.

        Hosted protocols are rebuilt fresh (their pending transmissions are
        gone — the degraded-mode machinery reschedules what clients still
        need on surviving replicas) and the deferral backlog is cleared
        (those instances belonged to the lost schedule).
        """
        if not self.alive:
            return
        self.alive = False
        self.backlog = 0
        self.protocols = {title: self._factory(title) for title in self.titles}
        for protocol in self.protocols.values():
            protocol.release_before(slot)

    def recover(self) -> None:
        """Bring the server back up (with the fresh, empty schedules)."""
        self.alive = True
