"""Edge nodes: one prefix cache + shaper each, and the tier the loop drives.

The cluster slot loop (:func:`repro.cluster.scenario.run_scenario`) knows
the edge tier through two calls: ``chunk_stop(slot, stop)``, which bounds a
chunk of slots at the next popularity re-allocation, and
``decide(slot, counts, titles)``, which decides every arrival of that chunk
at once and returns ``(prefix, defer)`` arrays the loop acts on.  The edge
reads no cluster state, so deciding a chunk ahead of its delivery changes
nothing.  Everything hierarchical — which node an arrival lands on, how
caches re-allocate under popularity drift, how shaping defers a join —
stays behind that seam, which is what keeps a zero-budget hierarchy
bit-for-bit identical to the pure cluster: every decision degenerates to a
*miss* and the loop's delivery path is untouched.  ``begin_slot(slot)`` and
``admit(title, t, slot, slot_end)`` are the same kernel for one slot start
or one arrival.

Inside a chunk each node looks up its arrivals' prefixes in one table and
hands its hits to :meth:`PolicyShaper.shape` as arrays: the class picks
come from a queue of picks verified ahead by cumulative sums, and each
class's bucket is replayed as one cumulative sum up to its first refill
that meets the capacity, its per-draw loop running only from there.  So a
node call costs a few array passes over its hits; per-hit Python work is
left only where buckets refill to capacity between draws, the low-load
case where hits are few.

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

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

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

    Only the one-arrival call :meth:`EdgeTier.admit` builds one; every
    miss is the one shared ``_MISS`` instance.
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
        # Title -> cached prefix, the table every decision reads.
        self._prefixes = np.array(allocation.prefixes, dtype=np.int64)

    @property
    def edge_id(self) -> int:
        """The node's id (mirrors the spec)."""
        return self.spec.edge_id

    def reallocate(self, allocation: CacheAllocation) -> None:
        """Swap in a fresh prefix allocation (popularity-drift response)."""
        if allocation.total_segments > self.spec.cache_segments:
            raise ConfigurationError(
                f"edge {self.edge_id}: re-allocation uses "
                f"{allocation.total_segments} segments, budget is "
                f"{self.spec.cache_segments}"
            )
        self.allocation = allocation
        self._prefixes = np.array(allocation.prefixes, dtype=np.int64)
        self.reallocations += 1

    def decide(
        self, titles: Sequence[int], epochs: Sequence[int], n_epochs: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide a run of arrivals on this node, slot starts between them.

        ``epochs[i]`` counts the slot starts before arrival ``i`` (see
        :meth:`PolicyShaper.shape`).  Returns ``(prefix, defer, classes)``
        arrays: the cached prefix each arrival takes from the edge (0 for a
        cold title or a shaped-out class), its deferral in slots and its
        traffic class index (-1 for a cold title).
        """
        titles = np.asarray(titles, dtype=np.int64)
        epochs = np.asarray(epochs, dtype=np.int64)
        catalog = len(self._prefixes)
        if len(titles) and not 0 <= titles.min() <= titles.max() < catalog:
            raise ConfigurationError(f"titles outside catalog of {catalog}")
        prefix = self._prefixes[titles]
        hit = np.flatnonzero(prefix)
        classes, hit_defers = self.shaper.shape(prefix[hit], epochs[hit], n_epochs)
        shaped_out = hit_defers < 0
        prefix[hit[shaped_out]] = 0
        hit_defers[shaped_out] = 0
        n_shaped_out = int(np.count_nonzero(shaped_out))
        self.misses += len(titles) - len(hit)
        self.bypassed += n_shaped_out
        self.hits += len(hit) - n_shaped_out
        self.segments_served += int(prefix.sum())
        defer = np.zeros(len(titles), dtype=np.int64)
        defer[hit] = hit_defers
        klass = np.full(len(titles), -1, dtype=np.int64)
        klass[hit] = classes
        return prefix, defer, klass


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

    def chunk_stop(self, slot: int, stop: int) -> int:
        """Where a decision chunk starting at ``slot`` must end, at most ``stop``.

        A chunk never runs past the next re-allocation slot: the router's
        prefix map changes there, so the slots before it are decided and
        delivered under the old allocation first.
        """
        if self.drift > 0:
            every = self.reallocate_every
            stop = min(stop, (slot // every + 1) * every)
        return stop

    def decide(
        self, slot: int, counts: Sequence[int], titles: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decide every arrival of the slots ``slot, slot + 1, ...`` at once.

        ``counts[i]`` arrivals land in slot ``slot + i`` and ``titles``
        lists them in arrival order.  Each slot's upkeep (a refill of every
        bucket and, at ``slot``, a due re-allocation) runs before its
        arrivals, exactly as slot-by-slot :meth:`begin_slot` and
        :meth:`admit` calls would.  Returns ``(prefix, defer)`` arrays: the
        prefix each arrival takes from its edge (0 = miss or shaped out,
        ``n_segments`` = served fully) and its deferral in slots.
        """
        stop = slot + len(counts)
        if self.chunk_stop(slot, stop) < stop:
            raise ConfigurationError(
                f"slots {slot}..{stop - 1} cross a re-allocation slot"
            )
        if self.drift > 0 and slot > 0 and slot % self.reallocate_every == 0:
            self._reallocate()
        epochs = np.repeat(np.arange(1, len(counts) + 1), counts)
        # Deal the arrivals round-robin from the current turn; each node
        # decides its share (a strided slice) in one call.
        titles = np.asarray(titles, dtype=np.int64)
        prefix = np.empty(len(titles), dtype=np.int64)
        defer = np.empty_like(prefix)
        n_nodes = len(self.nodes)
        turn = self._turn
        self._turn = turn + len(titles)
        for offset, node in enumerate(self.nodes):
            mine = slice((offset - turn) % n_nodes, None, n_nodes)
            prefix[mine], defer[mine], _ = node.decide(
                titles[mine], epochs[mine], len(counts) + 1
            )
        return prefix, defer

    def _reallocate(self) -> None:
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

    def begin_slot(self, slot: int) -> None:
        """Slot upkeep: bucket refills, then any scheduled re-allocation."""
        self.decide(slot, (0,), ())

    def admit(self, title: int, t: float, slot: int, slot_end: float) -> EdgeDecision:
        """Deal one arrival to its node and return that node's decision.

        The kernel of :meth:`decide` run for one arrival on the one node it
        is dealt to; ``t`` and ``slot_end`` are unused.
        """
        node = self.nodes[self._turn % len(self.nodes)]
        self._turn += 1
        prefix, defer, klass = node.decide((title,), (0,), 1)
        prefix, defer = int(prefix[0]), int(defer[0])
        if prefix <= 0:
            return _MISS
        wait = defer * node.slot_duration
        name = node.shaper.names[int(klass[0])]
        if prefix >= node.allocation.n_segments:
            return EdgeDecision(
                True, served_fully=True, wait=wait, edge_segments=prefix,
                traffic_class=name,
            )
        return EdgeDecision(
            True, first_segment=prefix + 1, join_slot=slot + defer, wait=wait,
            edge_segments=prefix, traffic_class=name,
        )

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
