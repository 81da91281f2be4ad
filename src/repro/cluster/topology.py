"""Cluster topology: bandwidth-capped servers and catalog placement.

The paper measures one video on an unlimited server; a deployment runs a
*fleet* of servers, each with a hard per-slot channel budget, carrying a
catalog whose titles are placed on one or more servers.  This module owns
the static side of that picture:

* :class:`ServerSpec` — one server's identity and per-slot channel capacity;
* :class:`CatalogPlacement` — which servers hold a replica of which title,
  built by one of three strategies:

  - **sharded** — every title lives on exactly one server (round-robin),
    maximal capacity, zero redundancy;
  - **replicated** — every title lives on every server (rotated preference
    order so primaries spread across the fleet), maximal redundancy;
  - **popularity-weighted** — replica counts follow the Zipf share of each
    title (driven by :class:`~repro.workload.popularity.ZipfCatalog`): hot
    titles are widely replicated, the long tail gets the configured minimum.

* :class:`ClusterTopology` — the validated pair of the two.

Placements are deterministic functions of their parameters — no RNG — so a
seeded cluster scenario is reproducible end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ClusterError
from ..workload.popularity import ZipfCatalog

#: Placement strategy names accepted by :func:`build_placement`.
PLACEMENT_NAMES = ("sharded", "replicated", "popularity")


@dataclass(frozen=True)
class ServerSpec:
    """One VOD server: an id and a hard per-slot channel capacity.

    ``capacity`` is in data streams of the video consumption rate ``b`` —
    the same unit as every slot load in the repo — and bounds how many
    segment instances the server can transmit during one slot.
    """

    server_id: int
    capacity: int

    def __post_init__(self):
        if self.server_id < 0:
            raise ClusterError(f"server_id must be >= 0, got {self.server_id}")
        if self.capacity < 1:
            raise ClusterError(
                f"server {self.server_id}: capacity must be >= 1, got {self.capacity}"
            )


@dataclass(frozen=True)
class CatalogPlacement:
    """Which servers hold a replica of which title.

    ``replicas[title]`` is the preference-ordered tuple of server ids that
    carry the title; the first entry is the title's *primary* replica (the
    affinity router's default target).
    """

    replicas: Tuple[Tuple[int, ...], ...]

    @property
    def n_titles(self) -> int:
        """Number of catalog titles the placement covers."""
        return len(self.replicas)

    def replicas_of(self, title: int) -> Tuple[int, ...]:
        """Preference-ordered server ids holding ``title`` (0-based rank)."""
        if not 0 <= title < self.n_titles:
            raise ClusterError(
                f"title {title} outside catalog of {self.n_titles}"
            )
        return self.replicas[title]

    def titles_on(self, server_id: int) -> List[int]:
        """Sorted titles that ``server_id`` holds a replica of."""
        return [
            title
            for title, servers in enumerate(self.replicas)
            if server_id in servers
        ]

    def replica_counts(self) -> List[int]:
        """Replica count per title (most popular first)."""
        return [len(servers) for servers in self.replicas]


def sharded_placement(n_titles: int, n_servers: int) -> CatalogPlacement:
    """Each title on exactly one server, dealt round-robin.

    >>> sharded_placement(4, 2).replicas
    ((0,), (1,), (0,), (1,))
    """
    _check_sizes(n_titles, n_servers)
    return CatalogPlacement(
        replicas=tuple((title % n_servers,) for title in range(n_titles))
    )


def replicated_placement(n_titles: int, n_servers: int) -> CatalogPlacement:
    """Every title on every server, preference order rotated per title.

    The rotation spreads primaries across the fleet so affinity routing
    does not pile every title onto server 0.

    >>> replicated_placement(2, 3).replicas
    ((0, 1, 2), (1, 2, 0))
    """
    _check_sizes(n_titles, n_servers)
    return CatalogPlacement(
        replicas=tuple(
            tuple((title + k) % n_servers for k in range(n_servers))
            for title in range(n_titles)
        )
    )


def popularity_placement(
    n_titles: int,
    n_servers: int,
    theta: float = 1.0,
    min_replicas: int = 1,
) -> CatalogPlacement:
    """Replica counts proportional to each title's Zipf(θ) share.

    The most popular title is fully replicated; title ``r`` gets
    ``ceil(n_servers * p_r / p_0)`` replicas (clamped to
    ``[min_replicas, n_servers]``), so replication decays exactly as fast
    as popularity.  Replica sets start at ``title % n_servers`` and take
    consecutive servers, spreading the catalog around the ring.

    >>> popularity_placement(3, 4, theta=1.0).replica_counts()
    [4, 2, 2]
    """
    _check_sizes(n_titles, n_servers)
    if not 1 <= min_replicas <= n_servers:
        raise ClusterError(
            f"min_replicas must be in [1, {n_servers}], got {min_replicas}"
        )
    catalog = ZipfCatalog(n_videos=n_titles, theta=theta)
    shares = catalog.probabilities
    top = shares[0]
    replicas: List[Tuple[int, ...]] = []
    for title in range(n_titles):
        count = math.ceil(n_servers * shares[title] / top)
        count = max(min_replicas, min(n_servers, count))
        start = title % n_servers
        replicas.append(tuple((start + k) % n_servers for k in range(count)))
    return CatalogPlacement(replicas=tuple(replicas))


def build_placement(
    name: str,
    n_titles: int,
    n_servers: int,
    theta: float = 1.0,
    min_replicas: int = 1,
) -> CatalogPlacement:
    """Build the placement strategy called ``name`` (see :data:`PLACEMENT_NAMES`)."""
    if name == "sharded":
        return sharded_placement(n_titles, n_servers)
    if name == "replicated":
        return replicated_placement(n_titles, n_servers)
    if name == "popularity":
        return popularity_placement(
            n_titles, n_servers, theta=theta, min_replicas=min_replicas
        )
    raise ClusterError(
        f"unknown placement {name!r}; choose from {list(PLACEMENT_NAMES)}"
    )


def _check_sizes(n_titles: int, n_servers: int) -> None:
    if n_titles < 1:
        raise ClusterError(f"need >= 1 title, got {n_titles}")
    if n_servers < 1:
        raise ClusterError(f"need >= 1 server, got {n_servers}")


@dataclass(frozen=True)
class ClusterTopology:
    """A validated fleet: server specs plus a catalog placement.

    Every replica must reference a configured server, and every title must
    have at least one replica — checked eagerly so a broken placement can
    never silently drop a title.
    """

    servers: Tuple[ServerSpec, ...]
    placement: CatalogPlacement

    def __post_init__(self):
        if not self.servers:
            raise ClusterError("topology needs >= 1 server")
        ids = [spec.server_id for spec in self.servers]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate server ids in {ids}")
        known = set(ids)
        for title, replicas in enumerate(self.placement.replicas):
            if not replicas:
                raise ClusterError(f"title {title} has no replica")
            if len(set(replicas)) != len(replicas):
                raise ClusterError(f"title {title} lists a server twice: {replicas}")
            unknown = set(replicas) - known
            if unknown:
                raise ClusterError(
                    f"title {title} placed on unknown servers {sorted(unknown)}"
                )

    @property
    def n_servers(self) -> int:
        """Fleet size."""
        return len(self.servers)

    @property
    def n_titles(self) -> int:
        """Catalog size."""
        return self.placement.n_titles

    @property
    def total_capacity(self) -> int:
        """Sum of per-slot channel capacities across the fleet."""
        return sum(spec.capacity for spec in self.servers)

    def spec_of(self, server_id: int) -> ServerSpec:
        """The :class:`ServerSpec` with ``server_id``."""
        for spec in self.servers:
            if spec.server_id == server_id:
                return spec
        raise ClusterError(f"unknown server {server_id}")


def uniform_topology(
    n_servers: int,
    capacity: int,
    n_titles: int,
    placement: str = "replicated",
    theta: float = 1.0,
    min_replicas: int = 1,
) -> ClusterTopology:
    """A fleet of ``n_servers`` identical servers under one placement strategy.

    >>> topo = uniform_topology(3, capacity=10, n_titles=5)
    >>> (topo.n_servers, topo.total_capacity, topo.placement.replica_counts()[0])
    (3, 30, 3)
    """
    specs = tuple(ServerSpec(server_id=i, capacity=capacity) for i in range(n_servers))
    built = build_placement(
        placement, n_titles, n_servers, theta=theta, min_replicas=min_replicas
    )
    return ClusterTopology(servers=specs, placement=built)


#: Server-id → titles map, occasionally handy for reports.
@dataclass(frozen=True)
class EdgeSpec:
    """One edge node: a prefix cache and a capped unicast uplink.

    ``cache_segments`` is the node's prefix-cache budget in video segments
    (the unit every prefix allocation works in — see
    :mod:`repro.edge.cache`); ``uplink_streams`` is the per-slot unicast
    capacity, in streams of the consumption rate ``b``, that the node's
    traffic classes share (:mod:`repro.edge.shaping`).  A budget of zero is
    legal and degrades the node to a pass-through.
    """

    edge_id: int
    cache_segments: int
    uplink_streams: float

    def __post_init__(self):
        if self.edge_id < 0:
            raise ClusterError(f"edge_id must be >= 0, got {self.edge_id}")
        if self.cache_segments < 0:
            raise ClusterError(
                f"edge {self.edge_id}: cache_segments must be >= 0, "
                f"got {self.cache_segments}"
            )
        if self.uplink_streams < 0:
            raise ClusterError(
                f"edge {self.edge_id}: uplink_streams must be >= 0, "
                f"got {self.uplink_streams}"
            )


@dataclass(frozen=True)
class TieredTopology:
    """An origin cluster fronted by a tier of edge nodes.

    The ``origin`` fleet broadcasts (suffixes, in the hierarchy scenarios);
    each :class:`EdgeSpec` caches title prefixes and unicasts them to its
    attached clients.  Client↔edge attachment is a runtime concern (the
    hierarchy scenario deals arrivals round-robin across edges); the
    topology only owns the validated static picture.
    """

    origin: ClusterTopology
    edges: Tuple[EdgeSpec, ...]

    def __post_init__(self):
        if not self.edges:
            raise ClusterError("tiered topology needs >= 1 edge node")
        ids = [spec.edge_id for spec in self.edges]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate edge ids in {ids}")

    @property
    def n_edges(self) -> int:
        """Number of edge nodes."""
        return len(self.edges)

    @property
    def n_titles(self) -> int:
        """Catalog size (delegates to the origin placement)."""
        return self.origin.n_titles

    @property
    def total_cache_segments(self) -> int:
        """Sum of prefix-cache budgets across the edge tier."""
        return sum(spec.cache_segments for spec in self.edges)


def tiered_topology(
    n_servers: int,
    capacity: int,
    n_titles: int,
    n_edges: int,
    cache_segments: int,
    uplink_streams: float,
    placement: str = "replicated",
    theta: float = 1.0,
    min_replicas: int = 1,
) -> TieredTopology:
    """A uniform origin fleet fronted by ``n_edges`` identical edge nodes.

    >>> topo = tiered_topology(2, capacity=10, n_titles=4, n_edges=2,
    ...                        cache_segments=12, uplink_streams=8.0)
    >>> (topo.n_edges, topo.total_cache_segments, topo.origin.n_servers)
    (2, 24, 2)
    """
    if n_edges < 1:
        raise ClusterError(f"need >= 1 edge node, got {n_edges}")
    origin = uniform_topology(
        n_servers,
        capacity=capacity,
        n_titles=n_titles,
        placement=placement,
        theta=theta,
        min_replicas=min_replicas,
    )
    edges = tuple(
        EdgeSpec(
            edge_id=i,
            cache_segments=cache_segments,
            uplink_streams=uplink_streams,
        )
        for i in range(n_edges)
    )
    return TieredTopology(origin=origin, edges=edges)
