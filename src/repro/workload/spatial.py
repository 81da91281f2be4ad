"""Spatio-temporally correlated demand: the event-ring model.

A localized event (a breaking-news story, a regional premiere, the
fire-alarm scenario of LoRaWAN event-traffic simulators) does not raise
demand everywhere at once: viewers nearest the event react first, and the
reaction front spreads outward through concentric *rings*, each ring
reacting later and more weakly than the one before it.  The aggregate
request rate seen by a VOD server is then a superposition of delayed,
attenuated surge pulses::

    lambda(t) = base + sum_r  peak * atten^r * exp(-(t - t_r) / tau)
                              for t >= t_r,  t_r = start + r * ring_delay

which composes directly with
:class:`repro.workload.arrivals.NonHomogeneousPoisson` — each ring is a
:class:`repro.workload.flash.FlashCrowd` shifted in time, and the sum is
still a valid NHPP intensity.  The interesting property for broadcasting
protocols is the *staircase ramp*: unlike a single flash crowd (worst at
t = 0, monotonically decaying), the ring model keeps re-exciting the rate
as each ring ignites, so a static protocol tuned to the first surge is
stressed again several times.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..errors import WorkloadError
from ..units import HOUR
from .arrivals import NonHomogeneousPoisson, math_exp


class EventRings(NonHomogeneousPoisson):
    """Concentric-ring event demand (fire-event style correlated surges).

    Parameters
    ----------
    peak_rate_per_hour:
        Extra rate contributed by ring 0 at its ignition instant.
    n_rings:
        Number of rings (ring 0 ignites at ``start``, ring ``r`` at
        ``start + r * ring_delay_hours``).
    ring_delay_hours:
        Propagation delay between consecutive rings, in hours.
    attenuation:
        Per-ring amplitude factor in ``(0, 1]``; ring ``r`` peaks at
        ``peak * attenuation**r``.
    decay_hours:
        e-folding time of each ring's surge, in hours.
    base_rate_per_hour:
        Steady background rate.
    start_hours:
        When ring 0 ignites, in hours from the run start.

    Examples
    --------
    >>> rings = EventRings(peak_rate_per_hour=600.0, n_rings=3,
    ...                    ring_delay_hours=0.5, attenuation=0.5,
    ...                    decay_hours=1.0)
    >>> round(rings.rate_at(0.0))
    600
    >>> rings.rate_at(1800.0) > rings.rate_at(1799.0)  # ring 1 ignites
    True
    """

    def __init__(
        self,
        peak_rate_per_hour: float,
        n_rings: int,
        ring_delay_hours: float,
        attenuation: float,
        decay_hours: float,
        base_rate_per_hour: float = 0.0,
        start_hours: float = 0.0,
    ):
        if peak_rate_per_hour <= 0:
            raise WorkloadError(f"peak rate must be > 0, got {peak_rate_per_hour}")
        if n_rings < 1:
            raise WorkloadError(f"need >= 1 ring, got {n_rings}")
        if ring_delay_hours <= 0:
            raise WorkloadError(
                f"ring_delay_hours must be > 0, got {ring_delay_hours}"
            )
        if not 0.0 < attenuation <= 1.0:
            raise WorkloadError(
                f"attenuation must be in (0, 1], got {attenuation}"
            )
        if decay_hours <= 0:
            raise WorkloadError(f"decay_hours must be > 0, got {decay_hours}")
        if base_rate_per_hour < 0:
            raise WorkloadError("base rate must be >= 0")
        if start_hours < 0:
            raise WorkloadError(f"start_hours must be >= 0, got {start_hours}")
        self.peak_rate_per_hour = float(peak_rate_per_hour)
        self.n_rings = int(n_rings)
        self.ring_delay_hours = float(ring_delay_hours)
        self.attenuation = float(attenuation)
        self.decay_hours = float(decay_hours)
        self.base_rate_per_hour = float(base_rate_per_hour)
        self.start_hours = float(start_hours)
        super().__init__(rate_fn=self.rate_at, max_rate_per_hour=self._max_rate())

    def ignition_seconds(self) -> List[float]:
        """When each ring ignites, in seconds from the run start."""
        return [
            (self.start_hours + r * self.ring_delay_hours) * HOUR
            for r in range(self.n_rings)
        ]

    def rates(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous rates (per hour): base plus every ignited ring."""
        return self._rates(np.asarray(times, dtype=float), math_exp)

    @property
    def rate_terms(self) -> int:
        return self.n_rings + 1

    def _np_exp_rates(self, times: np.ndarray) -> np.ndarray:
        return self._rates(times, np.exp, ordered=True)

    def _rates(self, times: np.ndarray, exp, ordered: bool = False) -> np.ndarray:
        tau = self.decay_hours * HOUR
        rates = np.full(times.shape, self.base_rate_per_hour)
        amplitude = self.peak_rate_per_hour
        for ignition in self.ignition_seconds():
            lit = slice(np.searchsorted(times, ignition), None) if ordered else times >= ignition
            rates[lit] += amplitude * exp(-(times[lit] - ignition) / tau)
            amplitude *= self.attenuation
        return rates

    def _max_rate(self) -> float:
        # Between ignitions the superposed pulses only decay, so the maximum
        # is attained at one of the ignition instants.
        return float(np.max(self.rates(np.array(self.ignition_seconds()))))

    def expected_requests(self, horizon_seconds: float) -> float:
        """Mean number of arrivals in ``[0, horizon_seconds)`` (closed form)."""
        if horizon_seconds < 0:
            raise WorkloadError("horizon must be >= 0")
        tau = self.decay_hours * HOUR
        total = self.base_rate_per_hour / HOUR * horizon_seconds
        amplitude = self.peak_rate_per_hour
        for ignition in self.ignition_seconds():
            if horizon_seconds > ignition:
                total += (
                    amplitude
                    / HOUR
                    * tau
                    * (1.0 - math.exp(-(horizon_seconds - ignition) / tau))
                )
            amplitude *= self.attenuation
        return total
