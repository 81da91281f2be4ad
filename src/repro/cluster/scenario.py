"""Cluster scenarios: the multi-server slotted runner and its results.

A :class:`ClusterScenario` is a complete, frozen description of one run —
topology, router policy, protocol, workload, fault plan, seed — so the same
scenario value always reproduces the same :class:`ClusterResult`, whether it
runs in this process or on a worker (``run_scenarios`` fans a batch across
the runtime Engine with bit-for-bit the serial results, the discipline every
fan-out shares — see :mod:`repro.runtime.engine`).

One simulated slot advances in four steps, preserving the slotted driver's
record-before-deliver convention (:mod:`repro.sim.slotted`):

1. **fault transitions** — recoveries, then crashes; a crash runs the full
   degraded-mode failover (:func:`repro.cluster.faults.fail_over`) *before*
   the slot is finalized, so rescheduled instances may still land in the
   current slot and no admitted client can miss a deadline-now segment;
2. **finalize** — each server applies its (possibly fault-reduced) channel
   cap to the slot's scheduled demand, read in O(1) off its demand ledger
   (:mod:`repro.cluster.admission`), and advances its deferral ledger;
   its :class:`~repro.cluster.admission.SlotReport` fills the run's
   per-server load matrix;
3. **deliver** — the slot's arrivals are routed: the title's replica list is
   filtered to alive servers with admission headroom, the router picks one
   (or rejects), and the chosen server admits the request into its protocol;
4. **release**, on the last slot of a chunk of at most
   :data:`DECISION_CHUNK_SLOTS` slots (chunks also end at every crash and
   recovery) — the chunk's loads are final, so each up server adds its
   per-title loads for the chunk's measured slots into the per-title
   matrix, one ``slot_loads`` slice per title, and then drops its
   bookkeeping below the current slot, keeping memory flat over long
   horizons.

The per-title series make the cluster's statistical-multiplexing argument
testable: provisioning each title alone costs the sum of per-title
:meth:`~ClusterResult.title_capacity_for_overflow` values, while the pooled
cluster only needs :meth:`~ClusterResult.capacity_for_overflow` of the
aggregate — strictly less whenever titles peak at different times.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_simple_table
from ..errors import ClusterError
from ..obs.trace import Observation
from ..protocols.registry import SLOTTED_NAMES, ProtocolContext, build_protocol
from ..runtime.seeds import (
    CLUSTER_ARRIVALS_STREAM,
    CLUSTER_TITLES_STREAM,
    CLUSTER_WORKLOAD_STREAM,
)
from ..server.provisioning import ProvisioningResult
from ..sim.rng import RandomStreams
from ..workload.arrivals import PoissonArrivals
from ..workload.popularity import ZipfCatalog
from ..workload.spec import WorkloadSpec, as_workload
from .admission import CappedServer
from .faults import (
    NO_FAULTS,
    CrashWindow,
    FailoverEvent,
    FailoverReport,
    FaultSchedule,
    fail_over,
    supports_rescheduling,
)
from .routing import ROUTER_NAMES, make_router
from .topology import ClusterTopology, uniform_topology

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..runtime import Engine, RunSpec

#: Slots whose arrivals :func:`run_scenario` decides in one edge-tier call
#: and prepares for delivery at once, and after which it reads the per-title
#: loads and releases the servers: long enough to amortise the per-call
#: cost, short enough that a chunk's arrays stay small.
DECISION_CHUNK_SLOTS = 64


@dataclass(frozen=True)
class ClusterScenario:
    """One complete cluster experiment, reproducible from its value alone."""

    name: str
    topology: ClusterTopology
    router: str = "affinity"
    protocol: str = "dhb"
    n_segments: int = 60
    slot_duration: float = 20.0
    horizon_slots: int = 720
    warmup_slots: int = 120
    total_rate_per_hour: float = 300.0
    zipf_theta: float = 1.0
    seed: int = 2001
    faults: FaultSchedule = NO_FAULTS
    backlog_limit: Optional[int] = None
    #: Optional nonstationary aggregate arrival process.  ``None`` keeps the
    #: seeded homogeneous Poisson at ``total_rate_per_hour`` bit-for-bit;
    #: a :class:`~repro.workload.spec.WorkloadSpec` (or spec string / rate,
    #: normalised on construction) replaces it, drawn from a stream named by
    #: the spec's canonical digest.  Titles stay Zipf-assigned either way.
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self):
        if self.workload is not None:
            object.__setattr__(self, "workload", as_workload(self.workload))
        if self.router not in ROUTER_NAMES:
            raise ClusterError(
                f"unknown router {self.router!r}; choose from {list(ROUTER_NAMES)}"
            )
        if self.protocol not in SLOTTED_NAMES:
            raise ClusterError(
                f"cluster scenarios need a slotted protocol, not {self.protocol!r}"
            )
        if self.n_segments < 1:
            raise ClusterError(f"n_segments must be >= 1, got {self.n_segments}")
        if self.slot_duration <= 0:
            raise ClusterError(
                f"slot_duration must be > 0, got {self.slot_duration}"
            )
        if not 0 <= self.warmup_slots < self.horizon_slots:
            raise ClusterError(
                f"need 0 <= warmup ({self.warmup_slots}) < horizon "
                f"({self.horizon_slots})"
            )
        if self.total_rate_per_hour < 0:
            raise ClusterError("total_rate_per_hour must be >= 0")
        self.faults.validate_against(self.topology)
        if self.faults.crashes and not supports_rescheduling(
            build_protocol(self.protocol, self._context())
        ):
            raise ClusterError(
                f"protocol {self.protocol!r} cannot reschedule lost segment "
                "instances; crash scenarios require DHB"
            )

    def _context(self) -> ProtocolContext:
        rate = (
            self.workload.mean_rate_per_hour
            if self.workload is not None
            else self.total_rate_per_hour
        )
        return ProtocolContext(
            n_segments=self.n_segments,
            duration=self.n_segments * self.slot_duration,
            rate_per_hour=max(rate, 1e-9),
        )


@dataclass(frozen=True)
class ServerSummary:
    """Per-server outcome of one scenario run."""

    server_id: int
    capacity: int
    titles: int
    admitted: int
    transmitted_instances: int
    deferred_instance_slots: int
    failover_in: int
    down_slots: int
    mean_load: float
    peak_load: int


@dataclass
class ClusterResult:
    """Everything one scenario run measured.

    ``aggregate`` is the post-warmup per-slot scheduled demand summed over
    alive servers; ``per_title`` holds the same series split by title
    (one row per title), which is what the multiplexing comparison needs.
    """

    scenario: str
    slots_measured: int
    aggregate: np.ndarray
    per_title: np.ndarray
    servers: List[ServerSummary]
    admitted: int
    rejected: int
    mean_wait: float
    max_wait: float
    crashes: int
    failovers: List[FailoverEvent] = field(default_factory=list)
    instances_lost: int = 0
    #: Edge-tier runs only (see :func:`run_scenario`): suffix joins dropped
    #: at the horizon, joins deferred inside it, and the exact median, 99th
    #: percentile (nearest rank) and maximum of the prefix hits' shaper
    #: deferrals in slots.  Not part of :meth:`to_dict`.
    edge_joins_dropped: int = 0
    edge_joins_deferred: int = 0
    edge_median_deferral_slots: int = 0
    edge_p99_deferral_slots: int = 0
    edge_max_deferral_slots: int = 0

    @property
    def mean_streams(self) -> float:
        """Average aggregate cluster demand in streams."""
        return float(self.aggregate.mean()) if len(self.aggregate) else 0.0

    @property
    def peak_streams(self) -> int:
        """Largest observed aggregate demand."""
        return int(self.aggregate.max()) if len(self.aggregate) else 0

    @property
    def deferred_instance_slots(self) -> int:
        """Total client-visible lateness, in instance-slots, fleet-wide."""
        return sum(summary.deferred_instance_slots for summary in self.servers)

    def capacity_for_overflow(self, overflow_probability: float) -> int:
        """Pooled capacity meeting the overflow target on the aggregate."""
        return ProvisioningResult(self.aggregate, []).capacity_for_overflow(
            overflow_probability
        )

    def title_capacity_for_overflow(
        self, title: int, overflow_probability: float
    ) -> int:
        """Capacity meeting the overflow target for one title provisioned alone."""
        if not 0 <= title < len(self.per_title):
            raise ClusterError(
                f"title {title} outside catalog of {len(self.per_title)}"
            )
        return ProvisioningResult(self.per_title[title], []).capacity_for_overflow(
            overflow_probability
        )

    def to_dict(self) -> Dict:
        """JSON-safe snapshot; equality of snapshots is bit-for-bit equality."""
        return {
            "scenario": self.scenario,
            "slots_measured": self.slots_measured,
            "aggregate": [int(v) for v in self.aggregate],
            "per_title": self.per_title.tolist(),
            "servers": [asdict(summary) for summary in self.servers],
            "admitted": self.admitted,
            "rejected": self.rejected,
            "mean_wait": self.mean_wait,
            "max_wait": self.max_wait,
            "crashes": self.crashes,
            "failovers": [asdict(event) for event in self.failovers],
            "instances_lost": self.instances_lost,
        }

    def render(self) -> str:
        """Human-readable per-server table plus the fleet summary."""
        rows = [
            [
                summary.server_id,
                summary.capacity,
                summary.titles,
                summary.admitted,
                summary.failover_in,
                summary.deferred_instance_slots,
                summary.down_slots,
                f"{summary.mean_load:.2f}",
                summary.peak_load,
            ]
            for summary in self.servers
        ]
        table = format_simple_table(
            [
                "server",
                "cap",
                "titles",
                "admitted",
                "failover_in",
                "deferred",
                "down",
                "mean load",
                "peak",
            ],
            rows,
        )
        lines = [
            f"scenario {self.scenario}: {self.admitted} admitted, "
            f"{self.rejected} rejected, {self.crashes} crash(es), "
            f"{len(self.failovers)} failover instance(s), "
            f"{self.instances_lost} lost",
            f"aggregate demand: mean {self.mean_streams:.2f}, "
            f"peak {self.peak_streams} streams over {self.slots_measured} slots; "
            f"q(1e-2) capacity {self.capacity_for_overflow(1e-2)}",
            table,
        ]
        return "\n".join(lines)


def run_scenario(
    scenario: ClusterScenario,
    observation: Optional[Observation] = None,
    *,
    edge_tier=None,
    router_override=None,
) -> ClusterResult:
    """Simulate one cluster scenario over the shared slotted timeline.

    The keyword-only hooks are the origin→edge hierarchy's seam
    (:mod:`repro.edge` — the only intended caller):

    * ``edge_tier`` decides every arrival before routing, a chunk of at
      most :data:`DECISION_CHUNK_SLOTS` slots at a time: at the top of a
      chunk's first slot, ``chunk_stop(slot, stop)`` bounds the chunk (it
      ends at the next popularity re-allocation) and ``decide(slot,
      counts, titles)`` returns the chunk's ``(prefix, defer)`` arrays.
      A zero prefix is a *miss* and takes the unmodified delivery path; a
      hit either joins the origin in its own slot for the suffix
      (``admit_suffix`` from segment ``prefix + 1``), joins ``defer``
      slots later (shaper deferral — queued and delivered exactly like an
      arrival of that slot), or never joins (``prefix >= n_segments``:
      the whole video is at the edge).  The edge reads no cluster state,
      so deciding ahead of delivery changes nothing.  With no tier (the
      default) every arrival is a miss.
    * ``router_override`` substitutes a pre-configured
      :class:`~repro.cluster.routing.Router` instance (the hierarchy's
      prefix-aware router carries the live allocation).

    A deferred join whose slot lands at or past the horizon is dropped
    unmeasured when it is decided, like an arrival past the horizon: the
    pending-join ledger only ever holds joins the loop will deliver.  The
    result counts the dropped joins, the joins deferred inside the
    horizon and the hits' deferral percentiles (``edge_joins_*``,
    ``edge_*_deferral_slots``); with an observation, the
    ``cluster.edge_joins_dropped`` counter reports the dropped ones.
    """
    topology = scenario.topology
    placement = topology.placement
    streams = RandomStreams(scenario.seed)
    d = scenario.slot_duration
    horizon = scenario.horizon_slots
    warmup = scenario.warmup_slots
    if scenario.workload is None:
        times = PoissonArrivals(scenario.total_rate_per_hour).generate(
            horizon * d, streams.get(CLUSTER_ARRIVALS_STREAM)
        )
    else:
        stream_name = CLUSTER_WORKLOAD_STREAM.format(
            digest12=scenario.workload.digest()[:12]
        )
        times = scenario.workload.process().generate(
            horizon * d, streams.get(stream_name)
        )
    # Held in the narrowest integer type (one byte for a small catalog): the
    # loop only slices and indexes it, and the memory pays for the hits'
    # deferrals kept below.
    titles = ZipfCatalog(topology.n_titles, scenario.zipf_theta).assign(
        len(times), streams.get(CLUSTER_TITLES_STREAM)
    ).astype(np.min_scalar_type(topology.n_titles - 1))
    # Slot s's arrivals are times[starts[s]:starts[s + 1]], those before
    # its end (arrivals at or past the horizon are never offered).
    slot_ends = np.arange(1, horizon + 1) * d
    starts = np.concatenate(([0], np.searchsorted(times, slot_ends)))
    context = scenario._context()

    def protocol_factory(title: int):
        return build_protocol(scenario.protocol, context)

    servers = [
        CappedServer(
            spec,
            placement.titles_on(spec.server_id),
            protocol_factory,
            backlog_limit=scenario.backlog_limit,
        )
        for spec in topology.servers
    ]
    by_id = {server.server_id: server for server in servers}
    router = (
        router_override if router_override is not None else make_router(scenario.router)
    )
    metrics = observation.metrics if observation is not None else None
    trace = observation.trace if observation is not None else None
    # Edge-deferred suffix joins by origin slot, as plain
    # ``(title, first_segment, wait, in_window)`` tuples; only slots inside
    # the horizon ever get an entry.
    pending_joins: Dict[int, List[Tuple[int, int, float, bool]]] = {}
    joins_dropped = joins_deferred = 0
    # Every hit's shaper deferral in slots, in decision order.
    deferrals = array("q")

    measured = horizon - warmup
    # Post-warmup scheduled demand: one row per server, one per title.
    server_loads = np.zeros((len(servers), measured), dtype=np.int64)
    per_title = np.zeros((topology.n_titles, measured), dtype=np.int64)
    waits: List[float] = []
    rejected = 0
    failover_reports: List[FailoverReport] = []
    faults = scenario.faults

    def deliver(title: int, first_segment: int, wait: float, measured: bool):
        # Route one request (a fresh arrival, or an edge suffix join when
        # ``first_segment > 1``) to a live replica with headroom and admit
        # it there; ``measured`` says whether its wait counts.
        nonlocal slot_admitted, slot_rejected
        candidates = [
            by_id[replica]
            for replica in placement.replicas_of(title)
            if by_id[replica].alive and by_id[replica].has_headroom()
        ]
        chosen = router.choose(title, slot, candidates)
        if chosen is None:
            slot_rejected += 1
            return
        chosen.admit_suffix(title, slot, first_segment)
        slot_admitted += 1
        if measured:
            waits.append(wait)

    def plan(first: int, stop: int):
        # The deliveries of slots first..stop-1: ``(title, first_segment,
        # wait)`` in arrival order (``first_segment`` 0: served fully at
        # the edge, only the wait counts) and how many fall in each slot.
        # Deferred edge joins go to the pending ledger here, or are
        # dropped at the horizon, and never reach the slot loop.
        nonlocal joins_dropped, joins_deferred
        lo, hi = starts[first], starts[stop]
        counts = np.diff(starts[first:stop + 1])
        slots = np.repeat(np.arange(first, stop), counts)
        chunk_titles = titles[lo:hi]
        first_segments = np.ones(hi - lo, dtype=np.int64)
        chunk_waits = slot_ends[slots] - times[lo:hi]
        if edge_tier is not None:
            prefix, defer = edge_tier.decide(first, counts, chunk_titles)
            hit = prefix > 0
            first_segments = np.where(prefix >= scenario.n_segments, 0, prefix + 1)
            chunk_waits = np.where(hit, defer * d, chunk_waits)
            deferred = hit & (first_segments > 0) & (defer > 0)
            join_slots = slots + defer
            dropped = deferred & (join_slots >= horizon)
            n_dropped = int(np.count_nonzero(dropped))
            joins_dropped += n_dropped
            joins_deferred += int(np.count_nonzero(deferred)) - n_dropped
            deferrals.frombytes(defer[hit].astype(np.int64, copy=False).tobytes())
            queued = np.flatnonzero(deferred & ~dropped)
            for join_slot, *join in zip(
                join_slots[queued].tolist(),
                chunk_titles[queued].tolist(),
                first_segments[queued].tolist(),
                chunk_waits[queued].tolist(),
                (slots[queued] >= warmup).tolist(),
            ):
                pending_joins.setdefault(join_slot, []).append(tuple(join))
            now = ~deferred
            counts = np.bincount(slots[now] - first, minlength=stop - first)
            chunk_titles = chunk_titles[now]
            first_segments = first_segments[now]
            chunk_waits = chunk_waits[now]
        deliveries = zip(
            chunk_titles.tolist(), first_segments.tolist(), chunk_waits.tolist()
        )
        return deliveries, iter(counts.tolist())

    if metrics is not None:
        run_span = metrics.timer("cluster.run_seconds").time()
        run_span.__enter__()

    chunk_stop = 0
    for slot in range(horizon):
        if slot == chunk_stop:
            chunk_first = slot
            chunk_stop = faults.chunk_stop(
                slot, min(slot + DECISION_CHUNK_SLOTS, horizon)
            )
            if edge_tier is not None:
                chunk_stop = edge_tier.chunk_stop(slot, chunk_stop)
            deliveries, slot_counts = plan(slot, chunk_stop)
        # 1. Fault transitions (recoveries first: a server whose window ends
        # here is back up for the whole slot).
        for server_id in faults.recoveries_at(slot):
            by_id[server_id].recover()
        for server_id in faults.crashes_at(slot):
            crashed = by_id[server_id]
            if not crashed.alive:
                continue

            def survivors_of(title: int, _down: int = server_id):
                return [
                    by_id[replica]
                    for replica in placement.replicas_of(title)
                    if replica != _down and by_id[replica].alive
                ]

            failover_reports.append(fail_over(crashed, survivors_of, slot))

        # 2. Finalize the slot under each server's effective channel budget.
        # Loads are final here: arrivals of this slot only touch slots >= slot+1
        # and failover (the one writer of the current slot) already ran.
        reports = [
            server.finalize_slot(
                slot,
                faults.effective_capacity(
                    server.server_id, server.spec.capacity, slot
                ),
            )
            for server in servers
        ]
        if slot >= warmup:
            column = slot - warmup
            for row, report in enumerate(reports):
                server_loads[row, column] = report.demand

        # 3. Deliver the slot's arrivals through the router.
        slot_admitted = 0
        slot_rejected = 0
        in_window = slot >= warmup
        # Edge-deferred suffix joins due now go first: they arrived in an
        # earlier slot, so they precede this slot's fresh arrivals.
        for join in pending_joins.pop(slot, ()):
            deliver(*join)
        for title, first_segment, wait in islice(deliveries, next(slot_counts)):
            if first_segment:
                deliver(title, first_segment, wait, in_window)
            elif in_window:
                waits.append(wait)
        rejected += slot_rejected

        if trace is not None:
            trace.emit(
                {
                    "kind": "cluster-slot",
                    "scenario": scenario.name,
                    "slot": slot,
                    "streams": sum(report.demand for report in reports),
                    "servers": [
                        {
                            "id": server.server_id,
                            "streams": report.demand,
                            "transmitted": report.transmitted,
                            "backlog": report.backlog,
                            "capacity": report.capacity,
                            "alive": report.alive,
                        }
                        for server, report in zip(servers, reports)
                    ],
                    "arrivals": slot_admitted,
                    "rejected": slot_rejected,
                    "measured": slot >= warmup,
                }
            )

        # 4. At the chunk's end, its per-title loads are final: add them in
        # (a down server adds none), then drop bookkeeping below this slot.
        if slot + 1 == chunk_stop:
            first = max(chunk_first, warmup)
            for server in servers:
                if server.alive and server.titles and first < chunk_stop:
                    per_title[server.titles, first - warmup:chunk_stop - warmup] += [
                        protocol.slot_loads(first, chunk_stop)
                        for protocol in server.protocols.values()
                    ]
                server.release_before(slot)

    aggregate = server_loads.sum(axis=0)
    hit_deferrals = np.frombuffer(deferrals, dtype=np.int64)
    median_deferral, p99_deferral, max_deferral = (
        _nearest_rank(hit_deferrals, percent) for percent in (50, 99, 100)
    )
    failovers = [event for report in failover_reports for event in report.events]
    instances_lost = sum(report.lost_for_good for report in failover_reports)
    admitted = sum(server.admitted for server in servers)
    summaries = [
        ServerSummary(
            server_id=server.server_id,
            capacity=server.spec.capacity,
            titles=len(server.titles),
            admitted=server.admitted,
            transmitted_instances=server.transmitted_instances,
            deferred_instance_slots=server.deferred_instance_slots,
            failover_in=server.failover_clients_in,
            down_slots=server.down_slots,
            mean_load=int(loads.sum()) / measured,
            peak_load=int(loads.max()),
        )
        for server, loads in zip(servers, server_loads)
    ]
    if metrics is not None:
        run_span.__exit__(None, None, None)
        # Crash counters exist only for runs that crashed.
        if failover_reports:
            metrics.counter("cluster.crashes").inc(len(failover_reports))
            metrics.counter("cluster.failover.instances").inc(len(failovers))
            metrics.counter("cluster.failover.rescheduled").inc(
                sum(report.rescheduled for report in failover_reports)
            )
            metrics.counter("cluster.failover.lost").inc(instances_lost)
        slot_load = metrics.histogram("cluster.slot_load")
        for demand in aggregate.tolist():
            slot_load.observe(float(demand))
        metrics.counter("cluster.slots").inc(horizon)
        metrics.counter("cluster.requests").inc(admitted)
        metrics.counter("cluster.rejected").inc(rejected)
        if edge_tier is not None:
            metrics.counter("cluster.edge_joins_dropped").inc(joins_dropped)
        metrics.gauge("cluster.servers").set(topology.n_servers)
        metrics.gauge("cluster.titles").set(topology.n_titles)
        metrics.gauge("cluster.total_capacity").set(topology.total_capacity)
        for summary in summaries:
            prefix = f"cluster.server.{summary.server_id}"
            metrics.counter(f"{prefix}.admitted").inc(summary.admitted)
            metrics.counter(f"{prefix}.transmitted").inc(
                summary.transmitted_instances
            )
            metrics.counter(f"{prefix}.deferred_instance_slots").inc(
                summary.deferred_instance_slots
            )
            metrics.counter(f"{prefix}.failover_in").inc(summary.failover_in)
            metrics.counter(f"{prefix}.down_slots").inc(summary.down_slots)
    measured_requests = len(waits)
    return ClusterResult(
        scenario=scenario.name,
        slots_measured=measured,
        aggregate=aggregate,
        per_title=per_title,
        servers=summaries,
        admitted=admitted,
        rejected=rejected,
        mean_wait=sum(waits) / measured_requests if measured_requests else 0.0,
        max_wait=max(waits) if waits else 0.0,
        crashes=len(failover_reports),
        failovers=failovers,
        instances_lost=instances_lost,
        edge_joins_dropped=joins_dropped,
        edge_joins_deferred=joins_deferred,
        edge_median_deferral_slots=median_deferral,
        edge_p99_deferral_slots=p99_deferral,
        edge_max_deferral_slots=max_deferral,
    )


def _nearest_rank(values: np.ndarray, percent: int) -> int:
    """Smallest value at least ``percent`` % of ``values`` do not exceed.

    Exact, ranked in integers; 0 for no values.  Partitions ``values`` in
    place, so no copy of a long array is made.
    """
    if not len(values):
        return 0
    rank = max(-(-percent * len(values) // 100), 1)
    values.partition(rank - 1)
    return int(values[rank - 1])


def scenario_specs(scenarios: Sequence[ClusterScenario]) -> List["RunSpec"]:
    """The batch as runtime ``"cluster-scenario"`` specs, in input order."""
    from ..runtime import RunSpec

    return [
        RunSpec("cluster-scenario", (scenario,), label=scenario.name)
        for scenario in scenarios
    ]


def run_scenarios(
    scenarios: Sequence[ClusterScenario],
    n_jobs: Optional[int] = None,
    observation: Optional[Observation] = None,
    engine: Optional["Engine"] = None,
) -> List[ClusterResult]:
    """Run a batch of scenarios through the runtime Engine.

    Results come back in input order and are bit-for-bit identical to the
    serial path: each scenario is a deterministic function of its value,
    and the Engine merges worker metric/trace snapshots in task order (the
    discipline every runtime fan-out shares — see
    :mod:`repro.runtime.engine`).  ``n_jobs`` resolves through the runtime
    config (explicit argument, then ``REPRO_SWEEP_JOBS``, then serial) and
    is ignored when an ``engine`` is given.  The engine's execution
    backend decides where scenarios run (serial, process pool, socket
    workers); backend failures degrade to serial, and an engine carrying a
    checkpoint store resumes interrupted scenario batches.
    """
    from ..runtime import Engine

    if engine is None:
        engine = Engine(n_jobs=n_jobs)
    return engine.run_values(scenario_specs(scenarios), observation=observation)


def preset_scenarios(seed: int = 2001, quick: bool = False) -> List[ClusterScenario]:
    """The CLI's named scenarios: ``baseline``, ``skewed``, ``crash``.

    * ``baseline`` — replicated catalog, affinity routing, no faults: the
      clean statistical-multiplexing picture.
    * ``skewed`` — popularity-weighted replication with least-loaded
      routing: hot titles fan out, cold titles stay narrow.
    * ``crash`` — baseline topology plus one mid-run server crash: degraded
      mode, failover, and recovery in one run.
    """
    if quick:
        n_servers, capacity, n_titles = 4, 16, 6
        n_segments, horizon, warmup = 30, 240, 40
        rate = 240.0
    else:
        n_servers, capacity, n_titles = 4, 24, 8
        n_segments, horizon, warmup = 60, 720, 120
        rate = 360.0
    common = dict(
        n_segments=n_segments,
        slot_duration=20.0,
        horizon_slots=horizon,
        warmup_slots=warmup,
        total_rate_per_hour=rate,
        seed=seed,
    )
    crash_start = horizon // 2
    crash_end = crash_start + max(horizon // 8, 1)
    return [
        ClusterScenario(
            name="baseline",
            topology=uniform_topology(
                n_servers, capacity=capacity, n_titles=n_titles
            ),
            router="affinity",
            **common,
        ),
        ClusterScenario(
            name="skewed",
            topology=uniform_topology(
                n_servers,
                capacity=capacity,
                n_titles=n_titles,
                placement="popularity",
            ),
            router="least-loaded",
            **common,
        ),
        ClusterScenario(
            name="crash",
            topology=uniform_topology(
                n_servers, capacity=capacity + 8, n_titles=n_titles
            ),
            router="affinity",
            faults=FaultSchedule(
                crashes=(
                    # Server 0 dies mid-run and returns an eighth of the
                    # horizon later with empty schedules.
                    CrashWindow(
                        server_id=0, start_slot=crash_start, end_slot=crash_end
                    ),
                )
            ),
            **common,
        ),
    ]
