"""Adaptive vs. static DHB over a nonstationary day — the retune payoff study.

Static DHB is provisioned once; a real service's demand is not stationary:
it swings through a diurnal cycle and spikes when an event ignites a
flash/ring of correlated requests.  This study replays one seeded
24-hour day — a diurnal profile with an evening event-ring surge
superposed — through two arms:

* **static** — plain :class:`~repro.core.dhb.DHBProtocol`, the paper's
  protocol at its fixed operating point;
* **adaptive** — :class:`~repro.core.adaptive.AdaptiveDHBProtocol`
  retuning its slack dial at epoch boundaries from an EWMA rate estimate.

Both arms admit the *identical* digest-keyed arrival trace
(:func:`repro.runtime.seeds.arrival_trace`), so any bandwidth difference
is the protocol's, not sampling noise.  Both arms operate under the same
advertised deadline guarantee ``W = (1 + max_slack) * d``: the adaptive
arm may defer playback start by up to ``max_slack`` slots (it never
exceeds the ladder's top rung), and the static arm trivially satisfies
the same bound.  "Adaptive holds" therefore means: at the evening peak
the adaptive arm's bandwidth stays strictly below static DHB's, while
every admitted client still receives every segment inside its
admission-time window (the zero-loss retune invariant, property-tested in
``tests/core/test_adaptive.py``).

The two arms are plain Engine tasks (kind ``"adaptive-arm"``), so the
study runs serial, pooled, or on socket workers with bit-identical
results, and checkpoints/resumes like any other spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.adaptive import AdaptiveDHBProtocol, SlackLadder, default_slack_ladder
from ..core.dhb import DHBProtocol
from ..errors import ConfigurationError
from ..obs.trace import Observation
from ..runtime import Engine, RunSpec
from ..runtime.seeds import arrival_trace
from ..sim.rng import DEFAULT_SEED
from ..sim.slotted import SlottedSimulation
from ..units import HOUR, TWO_HOURS
from ..workload.spec import WorkloadSpec, as_workload


def default_day_workload(quick: bool = False) -> WorkloadSpec:
    """The study's seeded day: diurnal demand + an evening event ring.

    A child-audience diurnal profile carries the baseline swing; at
    19:00 an event "ignites" three attenuating rings of correlated
    demand (:class:`~repro.workload.spatial.EventRings`) — the flash
    crowd landing on top of the evening shoulder, which is exactly where
    a fixed operating point is most wrong.
    """
    scale = 0.5 if quick else 1.0
    return WorkloadSpec.superpose(
        [
            WorkloadSpec.diurnal("child", 120.0 * scale),
            WorkloadSpec.ring(
                peak_rate_per_hour=400.0 * scale,
                n_rings=3,
                ring_delay_hours=0.5,
                attenuation=0.5,
                decay_hours=1.5,
                start_hours=19.0,
            ),
        ]
    )


@dataclass(frozen=True)
class AdaptiveStudyConfig:
    """One day-study configuration, shared verbatim by both arms.

    Frozen and built from plain values so a ``("adaptive-arm", (arm,
    config))`` payload pickles across backends and digests stably for
    checkpointing.

    Attributes
    ----------
    n_segments:
        Segment count of both protocols (the grid; never retuned).
    duration:
        Video length in seconds; the slot is ``duration / n_segments``.
    horizon_hours:
        Length of the simulated day.
    seed:
        Workload seed of the shared arrival trace.
    epoch_slots, alpha:
        Adaptive arm's retune cadence and EWMA smoothing.
    slack_ladder:
        ``(req/slot threshold, slack)`` rungs; ``None`` selects
        :func:`~repro.core.adaptive.default_slack_ladder`.
    workload:
        The day's demand; ``None`` selects :func:`default_day_workload`.
    warmup_fraction:
        Leading fraction of the horizon excluded from measurement (the
        day starts empty at midnight, so 0 is the honest default).
    """

    n_segments: int = 99
    duration: float = TWO_HOURS
    horizon_hours: float = 24.0
    seed: int = DEFAULT_SEED
    epoch_slots: int = 16
    alpha: float = 0.2
    slack_ladder: Optional[SlackLadder] = None
    workload: Optional[WorkloadSpec] = None
    warmup_fraction: float = 0.0

    def __post_init__(self):
        if self.n_segments < 1:
            raise ConfigurationError("n_segments must be >= 1")
        if self.duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if self.horizon_hours <= 0:
            raise ConfigurationError("horizon_hours must be > 0")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        if self.slack_ladder is None:
            object.__setattr__(
                self, "slack_ladder", default_slack_ladder(self.n_segments)
            )
        workload = (
            default_day_workload() if self.workload is None else as_workload(self.workload)
        )
        object.__setattr__(self, "workload", workload)

    @property
    def slot_duration(self) -> float:
        """Slot length in seconds."""
        return self.duration / self.n_segments

    @property
    def horizon_slots(self) -> int:
        return int(self.horizon_hours * HOUR / self.slot_duration)

    @property
    def warmup_slots(self) -> int:
        return int(self.horizon_slots * self.warmup_fraction)

    @property
    def max_slack(self) -> int:
        """The ladder's top rung — fixes the shared deadline guarantee."""
        return max(slack for _, slack in self.slack_ladder)

    @property
    def deadline_guarantee_seconds(self) -> float:
        """``W = (1 + max_slack) * d``, advertised identically to both arms."""
        return (1 + self.max_slack) * self.slot_duration

    def quick(self) -> "AdaptiveStudyConfig":
        """A CI-sized variant: same day shape, hundreds of slots."""
        return AdaptiveStudyConfig(
            n_segments=30,
            duration=TWO_HOURS,
            horizon_hours=self.horizon_hours,
            seed=self.seed,
            epoch_slots=8,
            alpha=self.alpha,
            slack_ladder=None,
            workload=default_day_workload(quick=True),
            warmup_fraction=self.warmup_fraction,
        )


@dataclass(frozen=True)
class ArmResult:
    """One arm's day, reduced to comparable numbers.

    ``hourly_peaks[h]`` is the largest post-warmup slot load observed in
    hour ``h`` of the day (``-1.0`` marks hours without measured slots),
    which is what the study's hour-by-hour table renders.
    """

    arm: str
    mean_streams: float
    peak_streams: float
    mean_wait: float
    n_requests: int
    hourly_peaks: Tuple[float, ...]
    retunes: int
    max_slack_used: int
    slot_duration: float

    @property
    def worst_startup_wait_seconds(self) -> float:
        """Largest playback-start deferral this arm actually imposed."""
        return (1 + self.max_slack_used) * self.slot_duration


def _hourly_peaks(
    series: List[int], warmup_slots: int, slot_duration: float, horizon_hours: float
) -> Tuple[float, ...]:
    hours = int(math.ceil(horizon_hours))
    peaks = [-1.0] * hours
    for index, load in enumerate(series):
        hour = int((warmup_slots + index) * slot_duration // HOUR)
        if hour < hours and load > peaks[hour]:
            peaks[hour] = float(load)
    return tuple(peaks)


def run_adaptive_arm(
    arm: str,
    study: AdaptiveStudyConfig,
    observation: Optional[Observation] = None,
) -> ArmResult:
    """Replay the study's day through one arm — the ``"adaptive-arm"`` handler."""
    if arm == "static":
        protocol = DHBProtocol(n_segments=study.n_segments)
    elif arm == "adaptive":
        protocol = AdaptiveDHBProtocol(
            n_segments=study.n_segments,
            slack_ladder=study.slack_ladder,
            epoch_slots=study.epoch_slots,
            alpha=study.alpha,
        )
    else:
        raise ConfigurationError(f"arm must be 'static' or 'adaptive', got {arm!r}")
    times = arrival_trace(study.seed, study.workload, study.horizon_hours)
    metrics = observation.metrics if observation is not None else None
    result = SlottedSimulation(
        protocol,
        study.slot_duration,
        study.horizon_slots,
        warmup_slots=study.warmup_slots,
        keep_series=True,
        metrics=metrics,
    ).run(times)
    adaptive = isinstance(protocol, AdaptiveDHBProtocol)
    return ArmResult(
        arm=arm,
        mean_streams=result.mean_streams,
        peak_streams=float(result.max_streams),
        mean_wait=result.mean_wait,
        n_requests=result.n_requests,
        hourly_peaks=_hourly_peaks(
            result.series, study.warmup_slots, study.slot_duration, study.horizon_hours
        ),
        retunes=len(protocol.retunes) if adaptive else 0,
        max_slack_used=protocol.max_slack_used if adaptive else 0,
        slot_duration=study.slot_duration,
    )


@dataclass(frozen=True)
class AdaptiveStudyResult:
    """Both arms of one day study, plus the configuration that framed them."""

    config: AdaptiveStudyConfig
    static: ArmResult
    adaptive: ArmResult

    @property
    def peak_reduction(self) -> float:
        """Fractional peak-bandwidth reduction of adaptive over static."""
        if self.static.peak_streams <= 0:
            return 0.0
        return 1.0 - self.adaptive.peak_streams / self.static.peak_streams

    @property
    def verified(self) -> bool:
        """The acceptance claim: adaptive peaks strictly below static while
        both arms honor the same ``W = (1 + max_slack) * d`` guarantee."""
        within_guarantee = (
            self.adaptive.worst_startup_wait_seconds
            <= self.config.deadline_guarantee_seconds
        )
        return (
            self.adaptive.peak_streams < self.static.peak_streams and within_guarantee
        )

    def render(self) -> str:
        """Hour-by-hour peak table plus the verdict line."""
        lines = [
            f"Adaptive DHB day study — workload {self.config.workload.label()}",
            f"  n={self.config.n_segments}, slot={self.config.slot_duration:.0f}s, "
            f"epoch={self.config.epoch_slots} slots, "
            f"guarantee W={self.config.deadline_guarantee_seconds:.0f}s",
            "",
            "  hour   static-peak   adaptive-peak",
        ]
        for hour, (s, a) in enumerate(
            zip(self.static.hourly_peaks, self.adaptive.hourly_peaks)
        ):
            if s < 0 and a < 0:
                continue
            lines.append(f"  {hour:4d}   {s:11.0f}   {a:13.0f}")
        lines += [
            "",
            f"  requests: {self.static.n_requests} (identical trace, both arms)",
            f"  day peak: static {self.static.peak_streams:.0f} vs adaptive "
            f"{self.adaptive.peak_streams:.0f} streams "
            f"({100.0 * self.peak_reduction:.1f}% reduction)",
            f"  day mean: static {self.static.mean_streams:.2f} vs adaptive "
            f"{self.adaptive.mean_streams:.2f} streams",
            f"  adaptive retunes: {self.adaptive.retunes}, max slack used "
            f"{self.adaptive.max_slack_used} "
            f"(worst start deferral {self.adaptive.worst_startup_wait_seconds:.0f}s "
            f"<= W {self.config.deadline_guarantee_seconds:.0f}s)",
            f"  verified: {'yes' if self.verified else 'NO'} — adaptive "
            f"{'holds' if self.verified else 'does not hold'} the peak below "
            "static under the shared deadline guarantee",
        ]
        return "\n".join(lines)


def run_adaptive_study(
    config: Optional[AdaptiveStudyConfig] = None,
    quick: bool = False,
    n_jobs: int = 1,
    observation: Optional[Observation] = None,
    engine: Optional[Engine] = None,
) -> AdaptiveStudyResult:
    """Run both arms (as Engine tasks) and assemble the comparison.

    Parameters
    ----------
    config:
        Study configuration; defaults to the full-size day.
    quick:
        Shrink the default config to CI size (ignored when ``config``
        is given — callers who build a config choose its size).
    n_jobs:
        Worker count when no ``engine`` is passed; the two arms are
        independent specs, so 2 workers run the day in one wall-day.
    observation, engine:
        As in :func:`repro.experiments.runner.sweep_protocols`.
    """
    if config is None:
        config = AdaptiveStudyConfig().quick() if quick else AdaptiveStudyConfig()
    specs = [
        RunSpec("adaptive-arm", (arm, config), label=f"adaptive-study:{arm}")
        for arm in ("static", "adaptive")
    ]
    if engine is None:
        engine = Engine(n_jobs=n_jobs)
    static_result, adaptive_result = engine.run_values(specs, observation=observation)
    return AdaptiveStudyResult(
        config=config, static=static_result, adaptive=adaptive_result
    )
