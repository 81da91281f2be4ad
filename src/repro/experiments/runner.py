"""The protocol-agnostic measurement loop.

One point = one protocol instance simulated over one seeded Poisson arrival
trace.  Slotted and reactive protocols run on their respective drivers but
report the same :class:`~repro.analysis.metrics.BandwidthPoint`, so figure
modules and the CLI treat them uniformly.  At a given rate, every protocol
sees the *same* arrival trace (common random numbers).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.metrics import BandwidthPoint, ProtocolSeries
from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..obs.trace import Observation, TraceSink
from ..runtime import Engine, ObservedRun, RunSpec, observed_run
from ..runtime.cache import clear_cache
from ..runtime.seeds import arrival_trace, replication_seed
from ..sim.continuous import ContinuousSimulation, ReactiveModel
from ..sim.slotted import SlottedModel, SlottedSimulation
from ..workload.spec import WorkloadSpec
from .config import SweepConfig

AnyProtocol = Union[SlottedModel, ReactiveModel]
ProtocolFactory = Callable[[float], AnyProtocol]

#: One cell of a sweep grid: a stationary rate or a workload spec.
SweepPoint = Union[float, WorkloadSpec]


def clear_trace_cache() -> None:
    """Drop every memoised arrival trace (tests and memory-sensitive callers).

    Alias of :func:`repro.runtime.clear_cache`, kept for the pre-runtime
    call sites.
    """
    clear_cache()


def arrivals_for_rate(
    config: SweepConfig, rate_per_hour: float
) -> np.ndarray:
    """The seeded arrival trace every protocol shares at ``rate_per_hour``.

    Deterministic in ``(config.seed, rate_per_hour, horizon)`` and memoised
    on exactly that key in the runtime's bounded shared cache
    (:mod:`repro.runtime.cache`), so repeated calls — one per protocol in a
    sweep — return the same (read-only) array without regenerating it.
    """
    return arrival_trace(
        config.seed, rate_per_hour, config.horizon_hours(rate_per_hour)
    )


def arrivals_for_point(config: SweepConfig, point: SweepPoint) -> np.ndarray:
    """The seeded arrival trace for one sweep point (rate or workload).

    Float points delegate to :func:`arrivals_for_rate` unchanged (legacy
    cache key); workload points are keyed by their canonical digest, with
    the horizon sized from the workload's mean rate.
    """
    if isinstance(point, WorkloadSpec):
        return arrival_trace(config.seed, point, config.horizon_hours_for(point))
    return arrivals_for_rate(config, float(point))


def measure_protocol(
    protocol: AnyProtocol,
    config: SweepConfig,
    rate_per_hour: float,
    arrival_times: Optional[Sequence[float]] = None,
    stream_bandwidth: float = 1.0,
    slot_duration: Optional[float] = None,
    byte_weighted: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[TraceSink] = None,
    trace_context: Optional[Dict] = None,
    columnar: bool = True,
) -> BandwidthPoint:
    """Simulate one protocol at one rate and reduce to a bandwidth point.

    Parameters
    ----------
    protocol:
        A fresh slotted or reactive protocol instance.
    config:
        The sweep parameters (horizon/warmup policy, slot duration).
    rate_per_hour:
        The nominal Poisson rate (recorded on the point; also used to size
        the horizon when ``arrival_times`` is omitted).
    arrival_times:
        Optional pre-generated arrivals (for common random numbers).
    stream_bandwidth:
        Bytes/second carried by one stream; bandwidths are scaled by it
        (leave 1.0 to report in streams, as Figures 7/8 do).
    slot_duration:
        Override the slot length (defaults to ``config.slot_duration``).
        The compressed-video experiment pins it to the waiting-time target
        while segment counts vary across DHB variants.
    byte_weighted:
        Report the protocol's per-slot *weighted* load divided by the slot
        length — i.e. transmitted bytes/second when the protocol carries
        per-segment byte weights (Figure 9 accounting).  Only valid for
        slotted protocols; ``stream_bandwidth`` is ignored.
    metrics:
        Optional metrics registry threaded into the simulation driver and
        bound to the protocol (admission/stream counters, slot-load
        histogram, run timers).
    trace:
        Optional per-slot trace sink (slotted protocols only; reactive
        protocols have no slot structure to trace).
    trace_context:
        Extra fields copied into every trace record (protocol label,
        rate, ...).
    columnar:
        Admit each slot's batch through the protocol's own
        ``handle_batch`` (default).  ``False`` admits it request by request
        inside the same driver loop (equivalence tests and the bench
        baseline use it); results are bit-for-bit identical.
    """
    if rate_per_hour <= 0:
        raise ConfigurationError("rate must be > 0")
    if arrival_times is None:
        arrival_times = arrivals_for_rate(config, rate_per_hour)
    horizon_seconds = config.horizon_hours(rate_per_hour) * 3600.0
    if metrics is not None:
        metrics.counter("measure.points").inc()

    if isinstance(protocol, SlottedModel):
        d = slot_duration if slot_duration is not None else config.slot_duration
        horizon_slots = int(horizon_seconds / d)
        warmup_slots = int(horizon_slots * config.warmup_fraction)
        result = SlottedSimulation(
            protocol,
            d,
            horizon_slots,
            warmup_slots,
            metrics=metrics,
            trace=trace,
            trace_context=trace_context,
            columnar=columnar,
        ).run(arrival_times)
        if byte_weighted:
            return BandwidthPoint(
                rate_per_hour=rate_per_hour,
                mean_bandwidth=result.mean_weight / d,
                max_bandwidth=result.max_weight / d,
                mean_wait=result.mean_wait,
                n_requests=result.n_requests,
            )
        return BandwidthPoint(
            rate_per_hour=rate_per_hour,
            mean_bandwidth=result.mean_streams * stream_bandwidth,
            max_bandwidth=result.max_streams * stream_bandwidth,
            mean_wait=result.mean_wait,
            n_requests=result.n_requests,
        )
    if byte_weighted:
        raise ConfigurationError("byte-weighted accounting needs a slotted protocol")
    if isinstance(protocol, ReactiveModel):
        warmup = horizon_seconds * config.warmup_fraction
        result = ContinuousSimulation(
            protocol, horizon_seconds, warmup, metrics=metrics
        ).run(arrival_times)
        return BandwidthPoint(
            rate_per_hour=rate_per_hour,
            mean_bandwidth=result.mean_streams * stream_bandwidth,
            max_bandwidth=result.max_streams * stream_bandwidth,
            mean_wait=result.mean_wait,
            n_requests=result.n_requests,
        )
    raise ConfigurationError(
        f"protocol {type(protocol).__name__} is neither slotted nor reactive"
    )


def measure_sweep_point(
    name: str,
    label: str,
    point: SweepPoint,
    config: SweepConfig,
    observation: Optional[Observation] = None,
) -> BandwidthPoint:
    """Measure one sweep grid cell — the ``"sweep-point"`` task handler.

    ``point`` is a stationary rate (req/hour) or a
    :class:`~repro.workload.spec.WorkloadSpec`; workload points size
    horizons and protocol contexts from their mean rate and draw their
    arrivals from the digest-keyed trace cache.  Builds a fresh registry
    protocol for ``(name, point)`` under the shared seeded arrival trace
    and reduces it to one :class:`~repro.analysis.metrics.BandwidthPoint`.
    This is the unit of work :func:`sweep_protocols` fans across the
    runtime Engine.  Arrival traces are numpy arrays, so slotted points
    take the columnar hot path automatically whenever no per-slot trace
    sink is attached.
    """
    from ..protocols.registry import ProtocolContext, build_protocol

    rate_per_hour = SweepConfig.nominal_rate(point)
    context = ProtocolContext(
        n_segments=config.n_segments,
        duration=config.duration,
        rate_per_hour=rate_per_hour,
    )
    protocol = build_protocol(name, context)
    metrics = observation.metrics if observation is not None else None
    trace = observation.trace if observation is not None else None
    trace_context = {"protocol": label, "rate_per_hour": rate_per_hour}
    if isinstance(point, WorkloadSpec):
        trace_context["workload"] = point.label()
    return measure_protocol(
        protocol,
        config,
        rate_per_hour,
        arrival_times=arrivals_for_point(config, point),
        metrics=metrics,
        trace=trace,
        trace_context=trace_context,
    )


@dataclass(frozen=True)
class ReplicatedPoint:
    """A bandwidth measurement replicated over independent seeds.

    Attributes
    ----------
    rate_per_hour:
        The operating point.
    mean:
        Grand mean of the replications' mean bandwidths.
    half_width:
        Normal-theory 95 % confidence half-width across replications.
    replications:
        The individual replication means.
    """

    rate_per_hour: float
    mean: float
    half_width: float
    replications: Tuple[float, ...]

    @property
    def interval(self) -> Tuple[float, float]:
        """The (low, high) confidence interval."""
        return (self.mean - self.half_width, self.mean + self.half_width)


def replicate_measurement(
    factory: ProtocolFactory,
    config: SweepConfig,
    rate_per_hour: float,
    n_replications: int = 5,
) -> ReplicatedPoint:
    """Replicate one measurement over independent seeds.

    Every replication gets a fresh protocol from ``factory`` and an arrival
    trace from a distinct derived seed; the result carries a confidence
    interval so sweep-level ordering claims can be checked against noise.

    >>> from ..core.dhb import DHBProtocol
    >>> cfg = SweepConfig().quick(rates_per_hour=(30.0,), base_hours=3.0,
    ...                           min_requests=20)
    >>> point = replicate_measurement(
    ...     lambda rate: DHBProtocol(n_segments=cfg.n_segments), cfg, 30.0,
    ...     n_replications=3)
    >>> len(point.replications)
    3
    >>> point.half_width >= 0.0
    True
    """
    if n_replications < 2:
        raise ConfigurationError("need >= 2 replications for an interval")
    means: List[float] = []
    for replication in range(n_replications):
        replication_config = config.replace(
            seed=replication_seed(config.seed, replication)
        )
        point = measure_protocol(
            factory(rate_per_hour),
            replication_config,
            rate_per_hour,
            arrival_times=arrivals_for_rate(replication_config, rate_per_hour),
        )
        means.append(point.mean_bandwidth)
    grand = sum(means) / n_replications
    variance = sum((m - grand) ** 2 for m in means) / (n_replications - 1)
    half_width = 1.96 * (variance / n_replications) ** 0.5
    return ReplicatedPoint(
        rate_per_hour=rate_per_hour,
        mean=grand,
        half_width=half_width,
        replications=tuple(means),
    )


def sweep_grid(
    names: Sequence[str],
    config: SweepConfig,
    labels: Optional[Sequence[str]] = None,
) -> List[RunSpec]:
    """The sweep's (protocol × point) grid as runtime specs, in sweep order.

    Points are rates or workload specs (see
    :meth:`~repro.experiments.config.SweepConfig.sweep_points`); either way
    the cell value rides in the payload verbatim, so float-rate payloads —
    and their checkpoint digests — are bit-identical to pre-workload runs.
    """
    if labels is None:
        labels = list(names)
    if len(labels) != len(names):
        raise ConfigurationError("labels must parallel names")
    return [
        RunSpec("sweep-point", (name, label, point, config), label=label)
        for name, label in zip(names, labels)
        for point in config.sweep_points()
    ]


def assemble_series(
    labels: Sequence[str],
    rates: Sequence[SweepPoint],
    measured: Sequence[BandwidthPoint],
) -> List[ProtocolSeries]:
    """Fold a flat grid of measured points back into per-protocol series."""
    n_rates = len(rates)
    all_series: List[ProtocolSeries] = []
    for position, label in enumerate(labels):
        series = ProtocolSeries(protocol=label)
        for point in measured[position * n_rates : (position + 1) * n_rates]:
            series.add(point)
        all_series.append(series)
    return all_series


def sweep_protocols(
    names: Sequence[str],
    config: SweepConfig,
    labels: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
    observation: Optional[Observation] = None,
    engine: Optional[Engine] = None,
) -> List[ProtocolSeries]:
    """Sweep several registry protocols under common random numbers.

    The (protocol × rate) grid is flattened into independent
    ``"sweep-point"`` specs, executed through the runtime Engine (possibly
    out of order, across processes), and reassembled into one
    :class:`~repro.analysis.metrics.ProtocolSeries` per protocol in the
    caller's order.

    Parameters
    ----------
    names:
        Registry names (see
        :func:`repro.protocols.registry.available_protocols`).
    config:
        Sweep parameters.
    labels:
        Optional display labels, parallel to ``names``.
    n_jobs:
        Worker processes for the sweep grid; ``None`` defers to the
        ``REPRO_SWEEP_JOBS`` environment variable, defaulting to serial.
        Parallel runs reproduce the serial series bit-for-bit (see
        :mod:`repro.runtime.engine`).  Ignored when ``engine`` is given.
    observation:
        Optional :class:`~repro.obs.trace.Observation`.  Worker registries
        are merged into ``observation.metrics`` in task order, and per-slot
        records are re-emitted to ``observation.trace``, so parallel runs
        report exactly the serial metrics too.
    engine:
        An existing :class:`~repro.runtime.engine.Engine` to run on
        (entry points that execute several studies share one).  The
        engine selects the execution backend — serial, process pool, or
        socket workers (:mod:`repro.runtime.backends`) — and, when built
        with a :class:`~repro.runtime.CheckpointStore`, journals each
        completed grid cell so an interrupted sweep resumes without
        re-simulating finished cells.
    """
    if labels is None:
        labels = list(names)
    if engine is None:
        engine = Engine(n_jobs=n_jobs)
    specs = sweep_grid(names, config, labels)
    measured = engine.run_values(specs, observation=observation)
    return assemble_series(labels, config.sweep_points(), measured)


@dataclass
class SweepRun(ObservedRun):
    """A sweep's series plus the observed run that measured it.

    Every observed sweep carries its own :class:`~repro.obs.manifest.RunManifest`
    (what ran, under which software, at what cost) and the merged
    :class:`~repro.obs.registry.MetricsRegistry` of all workers.
    """

    series: List[ProtocolSeries]


def observed_sweep(
    names: Sequence[str],
    config: SweepConfig,
    labels: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
    trace: Optional[TraceSink] = None,
    experiment: str = "sweep",
) -> SweepRun:
    """Run :func:`sweep_protocols` under full observability.

    Opens the runtime's standard observability session
    (:func:`repro.runtime.observed_run`): a fresh registry plus the
    optional trace sink threaded through every measured point, and a
    completed manifest attached to the result.

    >>> run = observed_sweep(["npb"], SweepConfig().quick(
    ...     rates_per_hour=(30.0,), base_hours=2.0, min_requests=10))
    >>> run.manifest.experiment
    'sweep'
    >>> run.metrics.counter("measure.points").value
    1
    """
    if labels is None:
        labels = list(names)
    with observed_run(
        experiment,
        protocols=labels,
        params=asdict(config),
        seed=config.seed,
        trace=trace,
    ) as observed:
        series = sweep_protocols(
            names, config, labels, n_jobs=n_jobs, observation=observed.observation
        )
    return SweepRun(observed.observation, observed.recorder, series)
