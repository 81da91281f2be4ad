"""Literal per-candidate thinning and scalar rate formulas (test oracle).

:meth:`repro.workload.arrivals.NonHomogeneousPoisson.generate` draws its
candidates in chunks and evaluates each chunk's rates in one call; this
module keeps the one-candidate-at-a-time loop it replaced, and the scalar
rate formulas of the diurnal, flash-crowd and event-ring families, so the
tests can demand bit-for-bit equality of traces, generator end states and
rates.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.units import HOUR


def reference_thinning(
    rate_fn: Callable[[float], float],
    max_rate_per_hour: float,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One exponential gap, one rate call and one uniform per candidate."""
    lam_max = max_rate_per_hour / HOUR
    times: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / lam_max))
        if t >= horizon:
            break
        rate = rate_fn(t)
        if rate < 0 or rate > max_rate_per_hour * (1 + 1e-9):
            raise WorkloadError(f"rate_fn({t}) = {rate} outside [0, {max_rate_per_hour}]")
        if rng.random() < rate / max_rate_per_hour:
            times.append(t)
    return np.asarray(times)


def diurnal_rate(hourly_rates: Sequence[float], time_seconds: float) -> float:
    """Linear interpolation between hour midpoints, periodic over a day."""
    day_seconds = 24 * HOUR
    t = math.fmod(time_seconds, day_seconds)
    if t < 0:
        t += day_seconds
    hour_float = t / HOUR - 0.5
    lower = math.floor(hour_float)
    frac = hour_float - lower
    r0 = hourly_rates[int(lower) % 24]
    r1 = hourly_rates[int(lower + 1) % 24]
    return r0 + frac * (r1 - r0)


def flash_rate(crowd, time_seconds: float) -> float:
    """``base + peak * exp(-(t - start) / decay)`` after the premiere."""
    since_release = time_seconds - crowd.start_hours * 3600.0
    if since_release < 0:
        return crowd.base_rate_per_hour
    decay = math.exp(-since_release / (crowd.decay_hours * 3600.0))
    return crowd.base_rate_per_hour + crowd.peak_rate_per_hour * decay


def ring_rate(rings, time_seconds: float) -> float:
    """Base plus one decaying pulse per ignited ring, summed ring by ring."""
    tau = rings.decay_hours * HOUR
    rate = rings.base_rate_per_hour
    amplitude = rings.peak_rate_per_hour
    for r in range(rings.n_rings):
        ignition = (rings.start_hours + r * rings.ring_delay_hours) * HOUR
        if time_seconds >= ignition:
            rate += amplitude * math.exp(-(time_seconds - ignition) / tau)
        amplitude *= rings.attenuation
    return rate
