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

The deferral ledger is aggregate — it counts deferred instances without
tracking *which* instance is late, and matches how the provisioning layer
reasons about overflow slots; scenarios that need exact per-segment
delivery accounting (the fault-injection tests) run with enough capacity
that the backlog stays zero, where scheduled and transmitted instances
coincide.

The summed demand itself lives in a *demand ledger*: one count per slot,
the sum of the hosted protocols' :meth:`~repro.sim.slotted.SlottedModel.slot_load`.
Every hosted protocol logs the slot of each instance it schedules into one
list the server owns (:meth:`~repro.sim.slotted.SlottedModel.bind_placements`)
— admissions, suffix joins and failover repairs alike — and the ledger
folds that log in before each read.  It is seeded in bulk, one
``slot_loads`` slice per title, for a run of slots at a time (so a
protocol's fixed load and writes made before the slot was seeded count
too), and a crash resets it with the schedules.  :meth:`demand`, hence
:meth:`finalize_slot` and the routers' :meth:`pressure`, costs O(1) per
read instead of one ``slot_load`` per title.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, List, Optional

from ..errors import ClusterError
from ..sim.slotted import SlottedModel
from .topology import ServerSpec

#: Slots the demand ledger seeds at once when a read runs past its end: one
#: ``slot_loads`` slice per title then serves that many slots of reads.
_SEED_SLOTS = 64


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
    """

    demand: int
    transmitted: int
    backlog: int
    capacity: int
    alive: bool


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
        # The demand ledger: _demand[i] is the summed load of slot
        # _floor + i; _placed logs the slot of every instance the hosted
        # protocols schedule, not yet added in.
        self._placed: List[int] = []
        self._build(0)
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

        Deterministic and O(1), read off the demand ledger; the
        least-loaded and prefix-aware routers rank candidates by it.
        """
        return self.backlog + self.demand(slot + 1)

    # -- the demand ledger ----------------------------------------------------

    def _build(self, slot: int) -> None:
        """Fresh protocols released below ``slot``, logging into an empty ledger."""
        self.protocols: Dict[int, SlottedModel] = {
            title: self._factory(title) for title in self.titles
        }
        for protocol in self.protocols.values():
            protocol.release_before(slot)
            protocol.bind_placements(self._placed)
        self._placed.clear()
        self._floor = slot
        self._demand: List[int] = []

    def demand(self, slot: int) -> int:
        """Segment instances the hosted protocols scheduled for ``slot``.

        Always ``sum(p.slot_load(slot) for p in protocols.values())``: the
        ledger adds the logged placements into the slots it has seeded,
        then seeds up to ``slot`` if it must.  A placement at or past the
        seeded end is left out, because the seed reads it from the
        protocols' loads; one below the floor was released.
        """
        index = slot - self._floor
        if index < 0:
            return sum(protocol.slot_load(slot) for protocol in self.protocols.values())
        ledger = self._demand
        if self._placed:
            seeded = len(ledger)
            floor = self._floor
            for placed in self._placed:
                offset = placed - floor
                if 0 <= offset < seeded:
                    ledger[offset] += 1
            self._placed.clear()
        if index >= len(ledger):
            start = self._floor + len(ledger)
            stop = max(slot + 1, start + _SEED_SLOTS)
            totals = [0] * (stop - start)
            for protocol in self.protocols.values():
                totals = list(map(add, totals, protocol.slot_loads(start, stop)))
            ledger.extend(totals)
        return ledger[index]

    # -- the capped timeline --------------------------------------------------

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
        demand = self.demand(slot)
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
        )

    def release_before(self, slot: int) -> None:
        """Drop per-slot bookkeeping for slots ``< slot``: titles and ledger.

        Monotone like :meth:`SlottedModel.release_before`, so a runner may
        release once per run of slots.
        """
        for protocol in self.protocols.values():
            protocol.release_before(slot)
        if slot > self._floor:
            del self._demand[: slot - self._floor]
            self._floor = slot

    # -- fault transitions ----------------------------------------------------

    def crash(self, slot: int) -> None:
        """Take the server down at ``slot``: all scheduled state is lost.

        Hosted protocols are rebuilt fresh (their pending transmissions are
        gone — the degraded-mode machinery reschedules what clients still
        need on surviving replicas), the demand ledger restarts empty at
        ``slot`` and the deferral backlog is cleared (those instances
        belonged to the lost schedule).
        """
        if not self.alive:
            return
        self.alive = False
        self.backlog = 0
        self._build(slot)

    def recover(self) -> None:
        """Bring the server back up (with the fresh, empty schedules)."""
        self.alive = True
