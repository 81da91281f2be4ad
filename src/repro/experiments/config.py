"""Sweep configuration.

One :class:`SweepConfig` drives every figure: the video, the segment count,
the swept arrival rates, and the steady-state measurement policy (horizon
scaled so low-rate points still see enough requests, warmup fraction
discarded, seeded workloads shared across protocols).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..errors import ConfigurationError
from ..sim.rng import DEFAULT_SEED
from ..workload.spec import WorkloadSpec, as_workload
from ..units import TWO_HOURS

#: The paper's Figures 7–9 sweep request rates from 1 to 1000 per hour on a
#: logarithmic axis; these points cover the same span.
PAPER_RATES: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Minimum simulated hours per sweep point (paper-scale runs).
DEFAULT_BASE_HOURS = 40.0

#: Minimum simulated requests per sweep point (horizons stretch at low rates).
DEFAULT_MIN_REQUESTS = 400

#: Leading fraction of every horizon discarded as warmup.
DEFAULT_WARMUP_FRACTION = 0.1

#: ``SweepConfig.quick()`` horizons: rates, base hours, minimum requests.
QUICK_RATES_PER_HOUR = (2.0, 50.0, 500.0)
QUICK_BASE_HOURS = 6.0
QUICK_MIN_REQUESTS = 40


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one figure-style sweep.

    Attributes
    ----------
    duration:
        Video length ``D`` in seconds (two hours in Figures 7/8).
    n_segments:
        Segment count for the slotted protocols (99 in Figures 7/8).
    rates_per_hour:
        The swept Poisson arrival rates.
    base_hours:
        Minimum simulated hours per point (before warmup discarding).
    min_requests:
        Horizons are stretched at low rates so at least this many requests
        are simulated, keeping confidence intervals comparable across the
        sweep.
    warmup_fraction:
        Leading fraction of the horizon excluded from statistics.
    seed:
        Experiment seed; each (protocol-independent) rate gets its own
        derived arrival stream, shared by every protocol at that rate
        (common random numbers).
    workloads:
        Optional nonstationary sweep axis.  When non-empty, the sweep
        iterates over these :class:`~repro.workload.spec.WorkloadSpec`
        points *instead of* ``rates_per_hour`` (entries may be given as
        spec strings or rates; they are normalised to specs).  Each point
        is labelled and horizon-sized by its ``mean_rate_per_hour``, and
        its arrival trace is cached under the spec's canonical digest.
    """

    duration: float = TWO_HOURS
    n_segments: int = 99
    rates_per_hour: Tuple[float, ...] = PAPER_RATES
    base_hours: float = DEFAULT_BASE_HOURS
    min_requests: int = DEFAULT_MIN_REQUESTS
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    seed: int = DEFAULT_SEED
    workloads: Tuple[WorkloadSpec, ...] = ()

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if self.n_segments < 1:
            raise ConfigurationError("n_segments must be >= 1")
        if not self.rates_per_hour:
            raise ConfigurationError("sweep needs at least one rate")
        if any(rate <= 0 for rate in self.rates_per_hour):
            raise ConfigurationError("swept rates must be > 0")
        if self.base_hours <= 0:
            raise ConfigurationError("base_hours must be > 0")
        if self.min_requests < 1:
            raise ConfigurationError("min_requests must be >= 1")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        object.__setattr__(
            self, "workloads", tuple(as_workload(w) for w in self.workloads)
        )
        for spec in self.workloads:
            if spec.mean_rate_per_hour <= 0:
                raise ConfigurationError(
                    f"workload {spec.label()!r} has non-positive mean rate"
                )

    @property
    def slot_duration(self) -> float:
        """Slot length ``d = D / n`` in seconds."""
        return self.duration / self.n_segments

    def horizon_hours(self, rate_per_hour: float) -> float:
        """Simulated hours for one point (stretched at low rates)."""
        if rate_per_hour <= 0:
            raise ConfigurationError("rate must be > 0")
        return max(self.base_hours, self.min_requests / rate_per_hour)

    def sweep_points(self) -> Tuple[Union[float, WorkloadSpec], ...]:
        """The points this sweep iterates over.

        Floats (the stationary rate axis) unless :attr:`workloads` is set,
        in which case the workload specs themselves.  Downstream code keys
        caches, labels, and payloads off these values directly, so the
        float form stays bit-identical to the pre-workload sweeps.
        """
        return self.workloads if self.workloads else self.rates_per_hour

    @staticmethod
    def nominal_rate(point: Union[float, WorkloadSpec]) -> float:
        """Mean request rate of a sweep point (req/hour)."""
        if isinstance(point, WorkloadSpec):
            return point.mean_rate_per_hour
        return float(point)

    def horizon_hours_for(self, point: Union[float, WorkloadSpec]) -> float:
        """Simulated hours for one sweep point (rate or workload)."""
        return self.horizon_hours(self.nominal_rate(point))

    def quick(self, **overrides) -> "SweepConfig":
        """A cheaper copy for tests: short horizons, few rates.

        Keyword overrides are applied on top of the quick defaults.
        """
        quick_defaults = dict(
            rates_per_hour=QUICK_RATES_PER_HOUR,
            base_hours=QUICK_BASE_HOURS,
            min_requests=QUICK_MIN_REQUESTS,
        )
        quick_defaults.update(overrides)
        return self.replace(**quick_defaults)

    def replace(self, **overrides) -> "SweepConfig":
        """Functional update (dataclasses.replace with validation)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)
