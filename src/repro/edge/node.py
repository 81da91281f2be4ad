"""Edge nodes: one prefix cache + shaper each, and the tier the loop drives.

The cluster slot loop (:func:`repro.cluster.scenario.run_scenario`) knows
the edge tier through two calls only: ``begin_slot(slot)`` at the top of
every slot and ``admit(title, t, slot, slot_end)`` per arrival, returning
an :class:`EdgeDecision` the loop acts on.  Everything hierarchical —
which node an arrival lands on, how caches re-allocate under popularity
drift, how shaping defers a join — stays behind that seam, which is what
keeps a zero-budget hierarchy bit-for-bit identical to the pure cluster:
every decision degenerates to a *miss* and the loop's delivery path is
untouched.

Timing of a prefix hit: the client starts the cached prefix (segments
``1..k``) from its edge after any shaper deferral and plays segment ``m``
during the ``m``-th slot after the start.  Joining the origin broadcast
*at the start slot* with ``first_segment = k + 1`` is always in time: DHB
guarantees segment ``j`` within ``T[j] = j`` slots of the join, and the
client does not need segment ``k+1`` until ``k+1`` slots in.  The
client-visible wait is therefore the deferral alone — zero in the
unshaped case, the "near-zero wait" the hierarchy buys.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from ..cluster.routing import PrefixAwareRouter
from ..cluster.topology import EdgeSpec
from ..errors import ConfigurationError
from ..workload.popularity import ZipfCatalog
from .cache import CacheAllocation, allocate_prefixes
from .shaping import PolicyShaper


class EdgeDecision(NamedTuple):
    """What the edge tier decided about one arrival.

    ``hit = False`` means the arrival falls through to the unmodified
    origin path (cold title, or a shaped-out class).  On a hit the client
    takes ``edge_segments`` from the cache; ``served_fully`` marks a fully
    cached title that never joins the origin, otherwise the client joins
    the origin broadcast at ``join_slot`` needing ``first_segment``
    onwards.  ``wait`` is the client-visible start delay in seconds.

    A named tuple, not a dataclass: one is built per arrival, and a tuple
    costs a fraction of a frozen dataclass to make.  Every miss is the one
    shared ``_MISS`` instance.
    """

    hit: bool
    served_fully: bool = False
    first_segment: int = 1
    join_slot: int = 0
    wait: float = 0.0
    edge_segments: int = 0
    traffic_class: str = ""


_MISS = EdgeDecision(hit=False)


class EdgeNode:
    """One edge: a prefix cache under an allocation plus a shaped uplink."""

    def __init__(
        self,
        spec: EdgeSpec,
        allocation: CacheAllocation,
        shaper: PolicyShaper,
        slot_duration: float,
    ):
        if allocation.total_segments > spec.cache_segments:
            raise ConfigurationError(
                f"edge {spec.edge_id}: allocation uses "
                f"{allocation.total_segments} segments, budget is "
                f"{spec.cache_segments}"
            )
        if slot_duration <= 0:
            raise ConfigurationError(
                f"slot_duration must be > 0, got {slot_duration}"
            )
        self.spec = spec
        self.allocation = allocation
        self.shaper = shaper
        self.slot_duration = float(slot_duration)
        # Lifetime counters.
        self.hits = 0
        self.misses = 0
        self.bypassed = 0
        self.segments_served = 0
        self.reallocations = 0

    @property
    def edge_id(self) -> int:
        """The node's id (mirrors the spec)."""
        return self.spec.edge_id

    def begin_slot(self) -> None:
        """Per-slot upkeep: refill the shaper's class buckets."""
        self.shaper.begin_slot()

    def reallocate(self, allocation: CacheAllocation) -> None:
        """Swap in a fresh prefix allocation (popularity-drift response)."""
        if allocation.total_segments > self.spec.cache_segments:
            raise ConfigurationError(
                f"edge {self.edge_id}: re-allocation uses "
                f"{allocation.total_segments} segments, budget is "
                f"{self.spec.cache_segments}"
            )
        self.allocation = allocation
        self.reallocations += 1

    def admit(self, title: int, slot: int) -> EdgeDecision:
        """Decide one arrival landing on this node during ``slot``."""
        prefix = self.allocation.prefix_of(title)
        if prefix <= 0:
            self.misses += 1
            return _MISS
        shaper = self.shaper
        index = shaper.pick()
        defer = shaper.draw(index, prefix)
        if defer is None:
            # Shaped out: the class has no uplink, so the client fetches
            # the whole video from the origin like a cold title.
            self.bypassed += 1
            return _MISS
        self.hits += 1
        self.segments_served += prefix
        wait = defer * self.slot_duration
        name = shaper.names[index]
        # Fields by position (hit, served_fully, first_segment, join_slot,
        # wait, edge_segments, traffic_class): keywords triple the cost.
        if prefix >= self.allocation.n_segments:
            return EdgeDecision(True, True, 1, 0, wait, prefix, name)
        return EdgeDecision(True, False, prefix + 1, slot + defer, wait, prefix, name)


class EdgeTier:
    """The edge fleet the cluster loop drives, plus dynamic re-allocation.

    Arrivals are dealt round-robin across nodes in arrival order — a
    deterministic stand-in for geographic client↔edge attachment.  When
    ``drift > 0`` the tier resamples the catalog every
    ``reallocate_every`` slots (a geometric random walk on the popularity
    simplex, drawn from its own named RNG stream so the cluster's seeded
    arrival streams are untouched), recomputes every node's allocation,
    and pushes the union prefix map into the prefix-aware router.
    """

    def __init__(
        self,
        nodes: Sequence[EdgeNode],
        policy: str,
        catalog: ZipfCatalog,
        router: Optional[PrefixAwareRouter] = None,
        drift: float = 0.0,
        reallocate_every: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if not nodes:
            raise ConfigurationError("edge tier needs >= 1 node")
        if drift < 0:
            raise ConfigurationError(f"drift must be >= 0, got {drift}")
        if reallocate_every < 0:
            raise ConfigurationError(
                f"reallocate_every must be >= 0, got {reallocate_every}"
            )
        if drift > 0 and reallocate_every == 0:
            raise ConfigurationError(
                "drift > 0 needs reallocate_every >= 1 slot"
            )
        if drift > 0 and rng is None:
            raise ConfigurationError("drift > 0 needs a seeded generator")
        self.nodes = list(nodes)
        self.policy = policy
        self.catalog = catalog
        self.router = router
        self.drift = float(drift)
        self.reallocate_every = int(reallocate_every)
        self._rng = rng
        self._turn = 0
        self._admits = [node.admit for node in self.nodes]
        if router is not None:
            router.set_prefixes(self.prefix_map())

    def prefix_map(self) -> Dict[int, int]:
        """Title → longest cached prefix across the tier (the router's map)."""
        prefixes: Dict[int, int] = {}
        for node in self.nodes:
            for title, k in enumerate(node.allocation.prefixes):
                if k > prefixes.get(title, 0):
                    prefixes[title] = k
        return prefixes

    def begin_slot(self, slot: int) -> None:
        """Slot upkeep: bucket refills, then any scheduled re-allocation."""
        for node in self.nodes:
            node.begin_slot()
        if (
            self.drift > 0
            and slot > 0
            and slot % self.reallocate_every == 0
        ):
            self.catalog = self.catalog.resample(self.drift, self._rng)
            shares = self.catalog.probabilities
            for node in self.nodes:
                node.reallocate(
                    allocate_prefixes(
                        self.policy,
                        shares,
                        node.spec.cache_segments,
                        node.allocation.n_segments,
                    )
                )
            if self.router is not None:
                self.router.set_prefixes(self.prefix_map())

    def admit(self, title: int, t: float, slot: int, slot_end: float) -> EdgeDecision:
        """Deal the arrival to its node and return that node's decision."""
        turn = self._turn
        self._turn = turn + 1
        admits = self._admits
        return admits[turn % len(admits)](title, slot)

    def class_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-class request / deferral totals across the tier."""
        totals: Dict[str, Dict[str, int]] = {}
        for node in self.nodes:
            shaper = node.shaper
            for cls in shaper.classes:
                entry = totals.setdefault(
                    cls.name,
                    {
                        "requests": 0,
                        "deferrals": 0,
                        "deferral_slots": 0,
                        "bypassed": 0,
                    },
                )
                entry["requests"] += shaper.requests[cls.name]
                entry["deferrals"] += shaper.deferrals[cls.name]
                entry["deferral_slots"] += shaper.deferral_slots[cls.name]
                entry["bypassed"] += shaper.bypassed[cls.name]
        return totals
