"""Socket-level load generation against a live broadcast daemon.

:func:`run_loadgen` sustains many concurrent client sessions over asyncio
streams: it draws an arrival schedule from :mod:`repro.workload` (Poisson,
the paper's model, or deterministic spacing), opens one connection per
arrival at its scheduled offset, performs the HELLO handshake (following a
controller REDIRECT when one is in front), and measures each client's
**wait until first segment** — the exact quantity the slotted simulator
reports, which is what makes served and simulated distributions directly
comparable.

:func:`compare_with_simulation` closes that loop: it replays the *same*
arrival offsets through :class:`~repro.sim.slotted.SlottedSimulation` with a
fresh DHB instance and reports measured-vs-predicted mean/p99 gaps.  The
daemon's slot grid is phase-shifted from the load generator's clock and
every served wait carries scheduling/transport overhead, so agreement is
statistical, not bit-exact; with Poisson arrivals both distributions are
uniform on ``(0, d]`` and the documented tolerances
(:data:`MEAN_TOLERANCE_FRACTION`, :data:`P99_SLACK_FRACTION`) hold with
wide margin on a loopback run.

:func:`assert_gates` turns a result into a pass/fail verdict (dropped
sessions, p99 bound) for the CI end-to-end job and the bench gate.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dhb import DHBProtocol
from ..errors import ServeError, WorkloadError
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceSink
from ..sim.rng import DEFAULT_SEED
from ..sim.slotted import SlottedResult, SlottedSimulation
from ..workload.arrivals import DeterministicArrivals, PoissonArrivals
from ..workload.spec import parse_workload
from .framing import (
    FRAME_ERROR,
    FRAME_FIN,
    FRAME_HELLO,
    FRAME_REDIRECT,
    FRAME_SEGMENT,
    FRAME_WELCOME,
    encode_frame,
    read_frame,
)

#: Arrival schedule shapes the generator knows how to draw.
ARRIVAL_KINDS = ("poisson", "uniform")

#: How far a served mean wait may sit from the simulated prediction, as a
#: fraction of the slot duration.  Two independent uniform-(0, d] samples
#: of a few hundred clients differ by well under 0.35 d; transport overhead
#: only adds microseconds on loopback.
MEAN_TOLERANCE_FRACTION = 0.35

#: Extra headroom allowed on the served p99 over the simulated p99, as a
#: fraction of the slot duration (the p99 of a small sample is noisy and
#: always below the hard bound of one slot).
P99_SLACK_FRACTION = 0.5


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run (validated at construction)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Target number of client sessions (Poisson draws vary around it).
    clients: int = 100
    #: Seconds over which arrivals are spread.
    duration_seconds: float = 5.0
    #: Arrival schedule shape (see :data:`ARRIVAL_KINDS`).
    arrivals: str = "poisson"
    #: Workload seed (same seed, same offsets — and the same offsets feed
    #: :func:`compare_with_simulation`).
    seed: int = DEFAULT_SEED
    #: ``"first"`` measures wait-until-first-segment then leaves;
    #: ``"all"`` stays tuned until every segment has been received.
    want: str = "first"
    #: Seconds to keep retrying the first connection while the daemon boots.
    connect_timeout: float = 10.0
    #: Seconds a session may go without a frame before counting as dropped.
    session_timeout: float = 30.0
    #: Optional workload spec string (see
    #: :data:`repro.workload.spec.WORKLOAD_GRAMMAR`).  When set it drives
    #: the live daemon from that schedule — NHPP flash crowds, diurnal
    #: profiles, MMPP bursts, recorded traces — over ``duration_seconds``,
    #: overriding ``clients``/``arrivals`` (rates in the spec are per
    #: hour, so 500 clients in 10 s is ``flash`` with peak around 180000).
    workload: Optional[str] = None

    def __post_init__(self):
        if self.clients < 1:
            raise ServeError(f"clients must be >= 1, got {self.clients}")
        if self.duration_seconds <= 0:
            raise ServeError(
                f"duration_seconds must be > 0, got {self.duration_seconds}"
            )
        if self.arrivals not in ARRIVAL_KINDS:
            raise ServeError(
                f"unknown arrival kind {self.arrivals!r}; "
                f"choose from {list(ARRIVAL_KINDS)}"
            )
        if self.want not in ("first", "all"):
            raise ServeError(f"want must be 'first' or 'all', got {self.want!r}")
        if self.workload is not None:
            parse_workload(self.workload)  # ConfigurationError on bad grammar


@dataclass
class LoadgenResult:
    """What a load-generation run measured."""

    #: Sessions that finished their goal (first segment, or all segments).
    completed: int
    #: Sessions that failed: refused, reset, evicted, or timed out.
    dropped: int
    #: Per-completed-client wait until first segment, seconds (sorted).
    waits: List[float]
    #: Wall-clock seconds from first arrival to last session settled.
    elapsed_seconds: float
    #: Serving parameters learned from the daemon's WELCOME frame.
    n_segments: int = 0
    slot_duration: float = 0.0
    #: The arrival offsets actually used (seconds from the run start).
    offsets: List[float] = field(default_factory=list)

    @property
    def sessions(self) -> int:
        """All sessions attempted."""
        return self.completed + self.dropped

    @property
    def clients_per_second(self) -> float:
        """Completed-session throughput over the run."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    @property
    def mean_wait(self) -> float:
        return sum(self.waits) / len(self.waits) if self.waits else 0.0

    @property
    def max_wait(self) -> float:
        return max(self.waits) if self.waits else 0.0

    @property
    def wait_p50(self) -> float:
        return empirical_quantile(self.waits, 0.5)

    @property
    def wait_p99(self) -> float:
        return empirical_quantile(self.waits, 0.99)

    def to_dict(self) -> Dict:
        """JSON-safe summary (the CLI prints this)."""
        return {
            "sessions": self.sessions,
            "completed": self.completed,
            "dropped": self.dropped,
            "elapsed_seconds": self.elapsed_seconds,
            "clients_per_second": self.clients_per_second,
            "mean_wait": self.mean_wait,
            "max_wait": self.max_wait,
            "wait_p50": self.wait_p50,
            "wait_p99": self.wait_p99,
            "n_segments": self.n_segments,
            "slot_duration": self.slot_duration,
        }


def empirical_quantile(values: Sequence[float], q: float) -> float:
    """The q-quantile of a sample (inverse empirical CDF; 0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def generate_offsets(config: LoadgenConfig) -> np.ndarray:
    """Draw the run's arrival offsets (sorted seconds from the run start).

    A ``workload`` spec string takes precedence: its process is generated
    over ``duration_seconds`` from the seeded generator, so the same spec
    and seed drive the daemon with the same schedule every run (and feed
    :func:`compare_with_simulation` the same offsets).
    """
    rng = np.random.default_rng(config.seed)
    if config.workload is not None:
        process = parse_workload(config.workload).process()
    elif config.arrivals == "poisson":
        rate_per_hour = config.clients / config.duration_seconds * 3600.0
        process = PoissonArrivals(rate_per_hour=rate_per_hour)
    else:
        process = DeterministicArrivals(
            interval=config.duration_seconds / config.clients
        )
    offsets = process.generate(config.duration_seconds, rng)
    if len(offsets) == 0:
        raise WorkloadError("the arrival schedule produced no clients")
    return offsets


async def wait_for_server(host: str, port: int, timeout: float) -> None:
    """Retry connecting until the daemon answers or ``timeout`` elapses."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        try:
            _, writer = await asyncio.open_connection(host, port)
            writer.close()
            return
        except OSError:
            if loop.time() >= deadline:
                raise ServeError(
                    f"no daemon answered on {host}:{port} within {timeout:.1f}s"
                ) from None
            await asyncio.sleep(0.05)


class _ClientOutcome:
    """Mutable per-client record filled in by :func:`_run_client`."""

    __slots__ = ("wait", "segments", "error", "welcome")

    def __init__(self):
        self.wait: Optional[float] = None
        self.segments = 0
        self.error: Optional[str] = None
        self.welcome: Dict = {}


async def _run_client(
    config: LoadgenConfig, offset: float, start: float, outcome: _ClientOutcome
) -> None:
    """One client session: connect at its offset, follow redirects, measure."""
    loop = asyncio.get_running_loop()
    delay = start + offset - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    arrival = loop.time()
    host, port = config.host, config.port
    hello = encode_frame(FRAME_HELLO, {"want": config.want})
    writer: Optional[asyncio.StreamWriter] = None
    try:
        for _hop in range(2):  # direct, or controller + one redirect
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(hello)
            await writer.drain()
            redirect = await _consume(config, reader, arrival, outcome)
            if redirect is None:
                return
            host, port = redirect
            writer.close()
            writer = None
        outcome.error = "redirect loop"
    except (OSError, asyncio.IncompleteReadError, ServeError) as exc:
        outcome.error = type(exc).__name__
    except asyncio.TimeoutError:
        outcome.error = "session timeout"
    finally:
        if writer is not None and not writer.is_closing():
            writer.close()


async def _consume(
    config: LoadgenConfig,
    reader: asyncio.StreamReader,
    arrival: float,
    outcome: _ClientOutcome,
) -> Optional[Tuple[str, int]]:
    """Read frames until the session settles; return a redirect target if any."""
    loop = asyncio.get_running_loop()
    seen = set()
    while True:
        frame = await asyncio.wait_for(
            read_frame(reader), timeout=config.session_timeout
        )
        if frame.frame_type == FRAME_REDIRECT:
            return frame.header["host"], int(frame.header["port"])
        if frame.frame_type == FRAME_WELCOME:
            outcome.welcome = frame.header
            continue
        if frame.frame_type == FRAME_SEGMENT:
            if outcome.wait is None:
                outcome.wait = loop.time() - arrival
            segment = frame.header.get("segment")
            if segment not in seen:
                seen.add(segment)
                outcome.segments += 1
            n_segments = int(outcome.welcome.get("n_segments", 0))
            done = config.want == "first" or (
                n_segments and outcome.segments >= n_segments
            )
            if done:
                return None
            continue
        if frame.frame_type in (FRAME_FIN, FRAME_ERROR):
            if outcome.wait is None or config.want == "all":
                outcome.error = (
                    frame.header.get("error")
                    or frame.header.get("reason")
                    or frame.name
                )
            return None


async def run_loadgen_async(
    config: LoadgenConfig,
    offsets: Optional[np.ndarray] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[TraceSink] = None,
) -> LoadgenResult:
    """Run the load schedule against a live daemon; gather every session.

    ``offsets`` overrides the drawn schedule (tests inject exact arrival
    times); otherwise :func:`generate_offsets` draws it from the config.
    """
    if offsets is None:
        offsets = generate_offsets(config)
    await wait_for_server(config.host, config.port, config.connect_timeout)

    loop = asyncio.get_running_loop()
    start = loop.time()
    outcomes = [_ClientOutcome() for _ in offsets]
    tasks = [
        asyncio.create_task(_run_client(config, float(offset), start, outcome))
        for offset, outcome in zip(offsets, outcomes)
    ]
    await asyncio.gather(*tasks)
    elapsed = loop.time() - start

    waits: List[float] = []
    dropped = 0
    welcome: Dict = {}
    for index, outcome in enumerate(outcomes):
        if outcome.welcome:
            welcome = outcome.welcome
        succeeded = outcome.error is None and outcome.wait is not None
        if succeeded:
            waits.append(outcome.wait)
        else:
            dropped += 1
        if trace is not None:
            trace.emit(
                {
                    "kind": "client",
                    "client": index,
                    "offset": float(offsets[index]),
                    "wait": outcome.wait,
                    "segments": outcome.segments,
                    "error": outcome.error,
                }
            )
    waits.sort()
    if metrics is not None:
        metrics.counter("loadgen.sessions.completed").inc(len(waits))
        metrics.counter("loadgen.sessions.dropped").inc(dropped)
        histogram = metrics.histogram("loadgen.wait_seconds")
        for wait in waits:
            histogram.observe(wait)
        metrics.gauge("loadgen.clients_per_second").set(
            len(waits) / elapsed if elapsed > 0 else 0.0
        )
    return LoadgenResult(
        completed=len(waits),
        dropped=dropped,
        waits=waits,
        elapsed_seconds=elapsed,
        n_segments=int(welcome.get("n_segments", 0)),
        slot_duration=float(welcome.get("slot_duration", 0.0)),
        offsets=[float(t) for t in offsets],
    )


def run_loadgen(
    config: LoadgenConfig,
    offsets: Optional[np.ndarray] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[TraceSink] = None,
) -> LoadgenResult:
    """Synchronous wrapper around :func:`run_loadgen_async` (CLI entry)."""
    return asyncio.run(run_loadgen_async(config, offsets, metrics, trace))


@dataclass(frozen=True)
class SimComparison:
    """Served-vs-simulated waiting-time agreement for one scenario."""

    measured_mean: float
    predicted_mean: float
    measured_p99: float
    predicted_p99: float
    slot_duration: float

    @property
    def mean_gap(self) -> float:
        """Absolute served-minus-predicted mean wait, seconds."""
        return abs(self.measured_mean - self.predicted_mean)

    def within_tolerance(
        self,
        mean_fraction: float = MEAN_TOLERANCE_FRACTION,
        p99_fraction: float = P99_SLACK_FRACTION,
    ) -> bool:
        """Whether the served numbers agree with the documented tolerances."""
        d = self.slot_duration
        return (
            self.mean_gap <= mean_fraction * d
            and self.measured_p99 <= self.predicted_p99 + p99_fraction * d
        )

    def to_dict(self) -> Dict:
        return {
            "measured_mean": self.measured_mean,
            "predicted_mean": self.predicted_mean,
            "measured_p99": self.measured_p99,
            "predicted_p99": self.predicted_p99,
            "slot_duration": self.slot_duration,
            "mean_gap": self.mean_gap,
            "within_tolerance": self.within_tolerance(),
        }


def predict_with_simulation(
    offsets: Sequence[float], n_segments: int, slot_duration: float
) -> SlottedResult:
    """Slotted-simulator prediction for the exact arrival offsets served."""
    arrivals = np.asarray(offsets, dtype=float)
    horizon_slots = int(float(arrivals.max()) / slot_duration) + 2 if len(arrivals) else 2
    simulation = SlottedSimulation(
        DHBProtocol(n_segments=n_segments),
        slot_duration=slot_duration,
        horizon_slots=horizon_slots,
    )
    return simulation.run(arrivals)


def compare_with_simulation(result: LoadgenResult) -> SimComparison:
    """Replay the run's offsets through the simulator and compare waits."""
    if not result.waits:
        raise ServeError("cannot compare: the load run completed no sessions")
    if result.n_segments < 1 or result.slot_duration <= 0:
        raise ServeError(
            "cannot compare: the run never learned the serving parameters "
            "(no WELCOME frame seen)"
        )
    predicted = predict_with_simulation(
        result.offsets, result.n_segments, result.slot_duration
    )
    return SimComparison(
        measured_mean=result.mean_wait,
        predicted_mean=predicted.mean_wait,
        measured_p99=result.wait_p99,
        predicted_p99=predicted.wait_p99,
        slot_duration=result.slot_duration,
    )


def assert_gates(
    result: LoadgenResult,
    max_dropped: Optional[int] = None,
    p99_bound: Optional[float] = None,
) -> None:
    """Raise :class:`~repro.errors.ServeError` when a serving gate fails."""
    if max_dropped is not None and result.dropped > max_dropped:
        raise ServeError(
            f"loadgen gate failed: {result.dropped} dropped sessions "
            f"(allowed {max_dropped}) out of {result.sessions}"
        )
    if p99_bound is not None and result.wait_p99 > p99_bound:
        raise ServeError(
            f"loadgen gate failed: p99 wait {result.wait_p99:.4f}s exceeds "
            f"the bound {p99_bound:.4f}s"
        )
