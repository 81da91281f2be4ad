"""Hierarchy scenarios: origin DHB broadcast composed with edge prefixes.

A :class:`HierarchyScenario` freezes one origin+edge experiment — tiered
topology, prefix policy, traffic classes, plus every knob the
underlying :class:`~repro.cluster.scenario.ClusterScenario` takes — so the
same value always reproduces the same :class:`HierarchyResult` on any
runtime backend (the ``"edge-scenario"`` task kind).

The run composes the two tiers through the cluster loop's edge seam: the
edge tier intercepts each arrival, serves cached prefixes locally (near
zero wait) and turns the remainder into origin *suffix joins* (DHB's
Figure 6 loop over segments ``k+1 .. n``).  The zero-budget degenerate
case is the acceptance anchor: with no cache the tier decides *miss* for
every arrival, the prefix-aware router has an empty map, and the run is
bit-for-bit the pure-cluster baseline — same arrivals (the seeded streams
are untouched), same routing, same schedules, same waits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.tables import format_simple_table
from ..analysis.theory import edge_backbone_savings_bound
from ..cluster.routing import PrefixAwareRouter
from ..cluster.scenario import ClusterResult, ClusterScenario, run_scenario
from ..cluster.topology import TieredTopology, tiered_topology
from ..errors import ConfigurationError
from ..obs.trace import Observation
from ..sim.rng import DEFAULT_SEED
from ..workload.popularity import ZipfCatalog
from ..workload.spec import WorkloadSpec, as_workload
from .cache import PREFIX_POLICY_NAMES, allocate_prefixes
from .node import EdgeNode, EdgeTier
from .shaping import DEFAULT_CLASSES, PolicyShaper, TrafficClass, validate_classes


@dataclass(frozen=True)
class HierarchyScenario:
    """One complete origin+edge experiment, reproducible from its value."""

    name: str
    topology: TieredTopology
    prefix_policy: str = "popularity"
    classes: Tuple[TrafficClass, ...] = DEFAULT_CLASSES
    protocol: str = "dhb"
    n_segments: int = 60
    slot_duration: float = 20.0
    horizon_slots: int = 720
    warmup_slots: int = 120
    total_rate_per_hour: float = 300.0
    zipf_theta: float = 1.0
    seed: int = DEFAULT_SEED
    #: Optional nonstationary aggregate arrivals for the whole hierarchy;
    #: forwarded to the origin :class:`ClusterScenario` (``None`` keeps the
    #: seeded Poisson at ``total_rate_per_hour`` bit-for-bit).
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self):
        if self.workload is not None:
            object.__setattr__(self, "workload", as_workload(self.workload))
        if self.prefix_policy not in PREFIX_POLICY_NAMES:
            raise ConfigurationError(
                f"unknown prefix policy {self.prefix_policy!r}; "
                f"choose from {list(PREFIX_POLICY_NAMES)}"
            )
        validate_classes(self.classes)
        if self.topology.total_cache_segments > 0 and self.protocol != "dhb":
            raise ConfigurationError(
                f"protocol {self.protocol!r} cannot admit suffix joins; "
                "hierarchies with a cache budget require DHB"
            )
        # Building the origin scenario validates every shared knob eagerly.
        self.cluster()

    def cluster(self) -> ClusterScenario:
        """The origin side as a pure :class:`ClusterScenario`.

        This is also the zero-budget *baseline*: running it directly must
        agree bit-for-bit with a zero-budget hierarchy run (the golden
        test), which is why the router is pinned to ``prefix-aware`` —
        with an empty prefix map it behaves exactly like ``affinity``.
        """
        return ClusterScenario(
            name=self.name,
            topology=self.topology.origin,
            router="prefix-aware",
            protocol=self.protocol,
            n_segments=self.n_segments,
            slot_duration=self.slot_duration,
            horizon_slots=self.horizon_slots,
            warmup_slots=self.warmup_slots,
            total_rate_per_hour=self.total_rate_per_hour,
            zipf_theta=self.zipf_theta,
            seed=self.seed,
            workload=self.workload,
        )

    def with_cache_budget(self, cache_segments: int) -> "HierarchyScenario":
        """A copy with every edge's cache budget set to ``cache_segments``."""
        edges = tuple(
            replace(spec, cache_segments=int(cache_segments))
            for spec in self.topology.edges
        )
        return replace(
            self,
            topology=TieredTopology(origin=self.topology.origin, edges=edges),
        )


@dataclass(frozen=True)
class EdgeSummary:
    """Per-edge-node outcome of one hierarchy run."""

    edge_id: int
    cache_segments: int
    uplink_streams: float
    hits: int
    misses: int
    bypassed: int
    segments_served: int


@dataclass
class HierarchyResult:
    """Everything one hierarchy run measured.

    ``cluster`` is the origin-side :class:`ClusterResult` — under a zero
    cache budget its :meth:`~ClusterResult.to_dict` snapshot equals the
    pure-cluster baseline's exactly.  The edge-side counters quantify what
    the cache bought: ``segments_served`` moved off the backbone, and
    ``backbone_saved_vs`` compares origin demand against a baseline run.
    """

    scenario: str
    cluster: ClusterResult
    edges: List[EdgeSummary]
    class_totals: Dict[str, Dict[str, int]] = field(default_factory=dict)
    theory_bound: float = 0.0

    @property
    def hits(self) -> int:
        """Prefix-cache hits across the edge tier."""
        return sum(edge.hits for edge in self.edges)

    @property
    def misses(self) -> int:
        """Cold-title misses across the edge tier."""
        return sum(edge.misses for edge in self.edges)

    @property
    def bypassed(self) -> int:
        """Arrivals shaped out to the origin (zero-uplink classes)."""
        return sum(edge.bypassed for edge in self.edges)

    @property
    def hit_ratio(self) -> float:
        """Measured fraction of edge-decided arrivals hitting a prefix."""
        decided = self.hits + self.misses + self.bypassed
        return self.hits / decided if decided else 0.0

    @property
    def joins_dropped(self) -> int:
        """Hits whose origin join fell at or past the horizon: never served."""
        return self.cluster.edge_joins_dropped

    @property
    def joins_deferred(self) -> int:
        """Hits whose origin join the shaper deferred to a later slot in the run."""
        return self.cluster.edge_joins_deferred

    @property
    def max_deferral_slots(self) -> int:
        """The longest shaper deferral of any hit, in slots."""
        return self.cluster.edge_max_deferral_slots

    @property
    def median_deferral_slots(self) -> int:
        """The median shaper deferral of the hits, in slots (exact)."""
        return self.cluster.edge_median_deferral_slots

    @property
    def p99_deferral_slots(self) -> int:
        """The 99th-percentile shaper deferral of the hits, in slots (exact)."""
        return self.cluster.edge_p99_deferral_slots

    @property
    def edge_segments_served(self) -> int:
        """Prefix segment instances unicast from edge caches."""
        return sum(edge.segments_served for edge in self.edges)

    @property
    def origin_segments_transmitted(self) -> int:
        """Segment instances the origin fleet put on the backbone."""
        return sum(
            summary.transmitted_instances for summary in self.cluster.servers
        )

    @property
    def origin_mean_streams(self) -> float:
        """Average origin (backbone) demand in streams."""
        return self.cluster.mean_streams

    def backbone_saved_vs(self, baseline: ClusterResult) -> float:
        """Fraction of the baseline's mean backbone streams saved.

        ``baseline`` is the pure-DHB run of :meth:`HierarchyScenario.cluster`
        (equivalently, the zero-budget hierarchy).  A hit whose origin join
        was dropped at the horizon never loaded the origin, so with
        :attr:`joins_dropped` > 0 the value is an upper bound on the saving;
        the budget study and ``repro-cli edge`` print it as one.
        """
        if baseline.mean_streams <= 0:
            return 0.0
        return 1.0 - self.origin_mean_streams / baseline.mean_streams

    def to_dict(self) -> Dict:
        """JSON-safe snapshot; nests the origin result's snapshot."""
        return {
            "scenario": self.scenario,
            "cluster": self.cluster.to_dict(),
            "edges": [asdict(edge) for edge in self.edges],
            "class_totals": self.class_totals,
            "theory_bound": self.theory_bound,
            "hit_ratio": self.hit_ratio,
            "edge_segments_served": self.edge_segments_served,
        }

    def render(self) -> str:
        """Human-readable edge table plus the origin summary."""
        rows = [
            [
                edge.edge_id,
                edge.cache_segments,
                edge.hits,
                edge.misses,
                edge.bypassed,
                edge.segments_served,
            ]
            for edge in self.edges
        ]
        table = format_simple_table(
            [
                "edge",
                "cache",
                "hits",
                "misses",
                "bypassed",
                "segments",
            ],
            rows,
        )
        class_lines = [
            f"  class {name}: {totals['requests']} requests, "
            f"{totals['deferrals']} deferred "
            f"({totals['deferral_slots']} slot(s)), "
            f"{totals['bypassed']} bypassed"
            for name, totals in sorted(self.class_totals.items())
        ]
        lines = [
            f"hierarchy {self.scenario}: hit ratio {self.hit_ratio:.3f} "
            f"({self.hits} hits / {self.misses} misses / "
            f"{self.bypassed} bypassed), "
            f"{self.edge_segments_served} prefix segments served at the edge",
            f"shaped joins: {self.joins_deferred} deferred, "
            f"{self.joins_dropped} dropped at the horizon; deferral median "
            f"{self.median_deferral_slots}, p99 {self.p99_deferral_slots}, "
            f"longest {self.max_deferral_slots} slot(s)",
            f"origin demand: mean {self.origin_mean_streams:.2f} streams, "
            f"peak {self.cluster.peak_streams}; analytic savings bound "
            f"{self.theory_bound:.3f}",
            table,
            *class_lines,
        ]
        return "\n".join(lines)


def run_hierarchy(
    scenario: HierarchyScenario,
    observation: Optional[Observation] = None,
) -> HierarchyResult:
    """Run one hierarchy scenario and collect both tiers' measurements."""
    topology = scenario.topology
    shares = ZipfCatalog(topology.n_titles, scenario.zipf_theta).probabilities
    nodes = [
        EdgeNode(
            spec,
            allocate_prefixes(
                scenario.prefix_policy,
                shares,
                spec.cache_segments,
                scenario.n_segments,
            ),
            PolicyShaper(scenario.classes, spec.uplink_streams),
            scenario.slot_duration,
        )
        for spec in topology.edges
    ]
    tier = EdgeTier(nodes)
    prefix_map = tier.prefix_map()
    cluster_result = run_scenario(
        scenario.cluster(),
        observation,
        edge_tier=tier,
        router_override=PrefixAwareRouter(prefix_map),
    )
    bound = edge_backbone_savings_bound(
        shares,
        [prefix_map.get(title, 0) for title in range(topology.n_titles)],
        scenario.n_segments,
    )
    summaries = [
        EdgeSummary(
            edge_id=node.edge_id,
            cache_segments=node.spec.cache_segments,
            uplink_streams=node.spec.uplink_streams,
            hits=node.hits,
            misses=node.misses,
            bypassed=node.bypassed,
            segments_served=node.segments_served,
        )
        for node in nodes
    ]
    result = HierarchyResult(
        scenario=scenario.name,
        cluster=cluster_result,
        edges=summaries,
        class_totals=tier.class_counters(),
        theory_bound=bound,
    )
    if observation is not None:
        metrics = observation.metrics
        metrics.gauge("edge.nodes").set(len(nodes))
        metrics.gauge("edge.cache.hit_ratio").set(result.hit_ratio)
        metrics.counter("edge.cache.hits").inc(result.hits)
        metrics.counter("edge.cache.misses").inc(result.misses)
        metrics.counter("edge.cache.bypassed").inc(result.bypassed)
        metrics.counter("edge.segments_served").inc(result.edge_segments_served)
        metrics.counter("edge.origin_segments").inc(
            result.origin_segments_transmitted
        )
        for name, totals in result.class_totals.items():
            prefix = f"edge.class.{name}"
            metrics.counter(f"{prefix}.requests").inc(totals["requests"])
            metrics.counter(f"{prefix}.deferrals").inc(totals["deferrals"])
            metrics.counter(f"{prefix}.deferral_slots").inc(
                totals["deferral_slots"]
            )
            metrics.counter(f"{prefix}.bypassed").inc(totals["bypassed"])
    return result


def preset_hierarchy(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    cache_fraction: float = 0.25,
    prefix_policy: str = "popularity",
    classes: Tuple[TrafficClass, ...] = DEFAULT_CLASSES,
) -> HierarchyScenario:
    """The CLI's stock hierarchy: a uniform origin fronted by two edges.

    ``cache_fraction`` sizes each edge's budget as a fraction of the whole
    catalog's segment count (``n_titles * n_segments``); the default 25 %
    is the acceptance configuration (hit ratio well above 0.5 under
    Zipf(1.0)).
    """
    if not 0.0 <= cache_fraction <= 1.0:
        raise ConfigurationError(
            f"cache_fraction must be in [0, 1], got {cache_fraction}"
        )
    if quick:
        n_servers, capacity, n_titles = 4, 16, 6
        n_segments, horizon, warmup = 30, 240, 40
        rate, uplink = 240.0, 12.0
    else:
        n_servers, capacity, n_titles = 4, 24, 8
        n_segments, horizon, warmup = 60, 720, 120
        rate, uplink = 360.0, 16.0
    cache_segments = int(cache_fraction * n_titles * n_segments)
    topology = tiered_topology(
        n_servers,
        capacity=capacity,
        n_titles=n_titles,
        n_edges=2,
        cache_segments=cache_segments,
        uplink_streams=uplink,
    )
    return HierarchyScenario(
        name="edge-quick" if quick else "edge",
        topology=topology,
        prefix_policy=prefix_policy,
        classes=classes,
        n_segments=n_segments,
        slot_duration=20.0,
        horizon_slots=horizon,
        warmup_slots=warmup,
        total_rate_per_hour=rate,
        seed=seed,
    )
