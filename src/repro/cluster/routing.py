"""Request routing: pick a replica for each arriving request, or reject.

A :class:`Router` sees one request at a time — ``(title, slot)`` plus the
title's preference-ordered replica list — and returns the chosen server or
``None`` for a rejection.  Only servers that report headroom (alive, backlog
under the admission limit) are candidates; a request whose every replica is
saturated or down is rejected at the door: the cluster's blocking.

Three policies, mirroring the usual trade-off triangle:

* :class:`RoundRobinRouter` — spread requests evenly regardless of load;
  fair, oblivious, and the baseline everything else is measured against.
* :class:`LeastLoadedRouter` — send each request to the candidate with the
  smallest deferral pressure (backlog + next slot's scheduled demand).
  Best at dodging hot servers, but splitting one title's viewers across
  replicas costs broadcast sharing: each replica runs its own protocol
  instance, so a popular title served from k servers pays for k schedules.
* :class:`AffinityRouter` — keep each title on the earliest preferred
  replica with headroom (the placement's rotation spreads primaries).
  Maximizes per-title sharing — the property the multiplexing experiments
  rely on — and falls back down the preference list only under overload
  or failure.

All policies are deterministic: same request sequence, same decisions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterError
from .admission import CappedServer

#: Router names accepted by :func:`make_router`.
ROUTER_NAMES = ("round-robin", "least-loaded", "affinity", "prefix-aware")


class Router(ABC):
    """Strategy choosing a replica server for each arriving request."""

    @abstractmethod
    def choose(
        self,
        title: int,
        slot: int,
        candidates: Sequence[CappedServer],
    ) -> Optional[CappedServer]:
        """Pick one of ``candidates`` (preference order) or ``None`` to reject.

        ``candidates`` holds only servers with headroom; it may be empty,
        in which case the router must reject.
        """


def _least_pressured(
    candidates: Sequence[CappedServer], slot: int
) -> Tuple[int, List[int]]:
    """Index of the least-pressured candidate, and every candidate's pressure.

    Ties go to the earlier candidate in the preference order.
    """
    pressures = [server.pressure(slot) for server in candidates]
    return pressures.index(min(pressures)), pressures


class RoundRobinRouter(Router):
    """Deal each title's requests around its replica ring in arrival order."""

    def __init__(self):
        self._next: Dict[int, int] = {}

    def choose(
        self,
        title: int,
        slot: int,
        candidates: Sequence[CappedServer],
    ) -> Optional[CappedServer]:
        if not candidates:
            return None
        turn = self._next.get(title, 0)
        chosen = candidates[turn % len(candidates)]
        self._next[title] = turn + 1
        return chosen


class LeastLoadedRouter(Router):
    """Send the request to the candidate with the least deferral pressure.

    Pressure is ``backlog + demand(slot + 1)`` (see
    :meth:`CappedServer.pressure`); ties break toward the earlier entry in
    the preference order, keeping the policy deterministic.
    """

    def choose(
        self,
        title: int,
        slot: int,
        candidates: Sequence[CappedServer],
    ) -> Optional[CappedServer]:
        if not candidates:
            return None
        best, _ = _least_pressured(candidates, slot)
        return candidates[best]


class AffinityRouter(Router):
    """Stick to the earliest preferred replica that still has headroom.

    Concentrating a title's viewers on one server lets its broadcast
    protocol share segment transmissions across all of them; the fallback
    order is exactly the placement's preference list.
    """

    def choose(
        self,
        title: int,
        slot: int,
        candidates: Sequence[CappedServer],
    ) -> Optional[CappedServer]:
        if not candidates:
            return None
        return candidates[0]


class PrefixAwareRouter(Router):
    """Affinity routing that spends prefix slack only under pressure.

    The origin→edge hierarchy changes what a request *needs* from the
    origin: a client whose title has a cached prefix of ``k`` segments
    joins the broadcast for the suffix only, and its first origin deadline
    is ``k`` slots out — slack the router *may* spend.  Spending it
    eagerly backfires: splitting one title's viewers across replicas costs
    broadcast sharing (each replica runs its own schedule), which at small
    prefixes outweighs any levelling gain.  So the policy stays on the
    affinity primary — preserving per-title sharing — and diverts a
    prefix-hit join to the least-pressured replica only when the primary's
    deferral pressure exceeds that replica's by more than ``k``: exactly
    when the join's slack no longer covers riding out the primary's queue.

    With an empty prefix map (``make_router("prefix-aware")``) every title
    is cold and the policy is exactly :class:`AffinityRouter` — which is
    what makes a zero-budget hierarchy bit-for-bit a pure-cluster run.
    """

    def __init__(self, prefixes: Optional[Dict[int, int]] = None):
        self._prefixes: Dict[int, int] = dict(prefixes) if prefixes else {}

    def set_prefixes(self, prefixes: Dict[int, int]) -> None:
        """Replace the title → cached-prefix-length map (re-allocation hook)."""
        self._prefixes = dict(prefixes)

    def choose(
        self,
        title: int,
        slot: int,
        candidates: Sequence[CappedServer],
    ) -> Optional[CappedServer]:
        if not candidates:
            return None
        slack = self._prefixes.get(title, 0)
        if slack <= 0:
            return candidates[0]
        best, pressures = _least_pressured(candidates, slot)
        if pressures[0] - pressures[best] > slack:
            return candidates[best]
        return candidates[0]


def make_router(name: str) -> Router:
    """Build the router policy called ``name`` (see :data:`ROUTER_NAMES`)."""
    if name == "round-robin":
        return RoundRobinRouter()
    if name == "least-loaded":
        return LeastLoadedRouter()
    if name == "affinity":
        return AffinityRouter()
    if name == "prefix-aware":
        return PrefixAwareRouter()
    raise ClusterError(f"unknown router {name!r}; choose from {list(ROUTER_NAMES)}")
