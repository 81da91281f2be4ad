"""Server capacity provisioning over a multi-video catalog.

The paper measures per-video bandwidth; an operator provisions a *server*:
how many channels cover a whole catalog's aggregate demand, and to what
overflow probability?  This module runs one slotted protocol instance per
title over a shared timeline, sums the per-slot loads, and reduces the
aggregate to provisioning numbers (mean, quantiles, capacity for a target
overflow probability).

Statistical multiplexing is the payoff being quantified: DHB titles peak at
different times, so the capacity for a 10⁻³ overflow is far below the sum
of per-title peaks — while a fixed protocol's aggregate is exactly
``titles × allocation`` forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from ..sim.rng import RandomStreams
from ..sim.slotted import SlottedModel, SlottedSimulation
from ..workload.arrivals import ArrivalProcess, PoissonArrivals
from ..workload.spec import WorkloadSpec

#: What one catalog title's demand may be specified as.
TitleWorkload = Union[float, int, WorkloadSpec, ArrivalProcess]


@dataclass(frozen=True)
class ProvisioningResult:
    """Aggregate load statistics for a catalog simulation.

    Attributes
    ----------
    aggregate:
        Per-slot total stream counts across all titles (post-warmup).
    per_title_means:
        Mean streams per title.
    """

    aggregate: np.ndarray
    per_title_means: List[float]

    @property
    def mean_streams(self) -> float:
        """Average aggregate server load in streams."""
        return float(self.aggregate.mean())

    @property
    def peak_streams(self) -> int:
        """Largest observed aggregate load."""
        return int(self.aggregate.max())

    def quantile(self, q: float) -> float:
        """The ``q`` quantile of the aggregate load (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q}")
        return float(np.quantile(self.aggregate, q))

    def capacity_for_overflow(self, overflow_probability: float) -> int:
        """Smallest channel count whose overflow fraction is below target.

        "Overflow" means a slot whose aggregate demand exceeds the capacity
        (in a deployment those transmissions would be delayed or dropped).

        >>> import numpy as np
        >>> result = ProvisioningResult(np.array([1, 1, 1, 5]), [2.0])
        >>> result.capacity_for_overflow(0.5)
        1
        >>> result.capacity_for_overflow(0.1)
        5
        """
        if not 0.0 < overflow_probability < 1.0:
            raise ConfigurationError(
                f"overflow probability must be in (0, 1), got {overflow_probability}"
            )
        sorted_loads = np.sort(self.aggregate)
        index = int(np.ceil(len(sorted_loads) * (1.0 - overflow_probability))) - 1
        index = min(max(index, 0), len(sorted_loads) - 1)
        return int(sorted_loads[index])


def _title_process(workload: TitleWorkload, title: int) -> ArrivalProcess:
    if isinstance(workload, bool):
        raise ConfigurationError(f"title {title}: workload cannot be a bool")
    if isinstance(workload, (int, float)):
        if workload < 0:
            raise ConfigurationError(f"title {title}: rate must be >= 0")
        return PoissonArrivals(float(workload))
    if isinstance(workload, WorkloadSpec):
        return workload.process()
    if isinstance(workload, ArrivalProcess):
        return workload
    raise ConfigurationError(
        f"title {title}: expected a rate, WorkloadSpec, or ArrivalProcess, "
        f"got {type(workload).__name__}"
    )


def provision_catalog_processes(
    protocol_factory: Callable[[int], SlottedModel],
    workloads: Sequence[TitleWorkload],
    slot_duration: float,
    horizon_slots: int,
    warmup_slots: int = 0,
    seed: int = 2001,
) -> ProvisioningResult:
    """Simulate one protocol instance per title and aggregate the loads.

    Parameters
    ----------
    protocol_factory:
        ``protocol_factory(title_index)`` returns a fresh slotted protocol.
    workloads:
        One demand model per title: a Poisson rate (req/hour), a
        :class:`~repro.workload.spec.WorkloadSpec`, or any
        :class:`~repro.workload.arrivals.ArrivalProcess` (e.g. a flash
        crowd on the new release riding on Poisson back-catalog titles).
    slot_duration, horizon_slots, warmup_slots:
        Shared timeline parameters.
    seed:
        Workload seed; title ``i`` draws from the ``title-{i}`` stream
        regardless of its process type, so swapping one title's model
        leaves every other title's arrivals untouched.
    """
    if not workloads:
        raise ConfigurationError("need at least one title")
    processes = [
        _title_process(workload, title) for title, workload in enumerate(workloads)
    ]
    streams = RandomStreams(seed)
    aggregate = np.zeros(horizon_slots - warmup_slots, dtype=np.int64)
    per_title_means: List[float] = []
    for title, process in enumerate(processes):
        protocol = protocol_factory(title)
        sim = SlottedSimulation(
            protocol,
            slot_duration,
            horizon_slots,
            warmup_slots=warmup_slots,
            keep_series=True,
        )
        times = process.generate(
            horizon_slots * slot_duration, streams.get(f"title-{title}")
        )
        result = sim.run(times)
        aggregate += np.asarray(result.series, dtype=np.int64)
        per_title_means.append(result.mean_streams)
    return ProvisioningResult(aggregate=aggregate, per_title_means=per_title_means)


def provision_catalog(
    protocol_factory: Callable[[int], SlottedModel],
    rates_per_hour: Sequence[float],
    slot_duration: float,
    horizon_slots: int,
    warmup_slots: int = 0,
    seed: int = 2001,
) -> ProvisioningResult:
    """Poisson-rates convenience wrapper over :func:`provision_catalog_processes`.

    Kept as the stable signature for callers that think in a rate vector
    (e.g. a Zipf split); bit-for-bit identical to the pre-refactor
    behaviour for the same ``(rates, seed)``.
    """
    if any(rate < 0 for rate in rates_per_hour):
        raise ConfigurationError("rates must be >= 0")
    return provision_catalog_processes(
        protocol_factory,
        [float(rate) for rate in rates_per_hour],
        slot_duration,
        horizon_slots,
        warmup_slots=warmup_slots,
        seed=seed,
    )
