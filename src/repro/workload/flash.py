"""Flash-crowd (premiere) arrival model.

A new release draws a surge of requests that decays over hours — the
sharpest stress on any distribution protocol and the regime where fixed
broadcasting (NPB) shines briefly before turning into waste.  The model is
a non-homogeneous Poisson process with an exponentially decaying rate
riding on a steady base::

    lambda(t) = base + peak * exp(-t / decay)

which composes directly with
:class:`repro.workload.arrivals.NonHomogeneousPoisson`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError
from .arrivals import NonHomogeneousPoisson, math_exp


class FlashCrowd(NonHomogeneousPoisson):
    """Premiere surge: exponentially decaying request rate.

    Parameters
    ----------
    peak_rate_per_hour:
        Extra rate at the premiere instant (t = 0).
    decay_hours:
        e-folding time of the surge, in hours.
    base_rate_per_hour:
        Steady-state rate the title settles to.
    start_hours:
        When the premiere happens, in hours from the run start (before it
        only the base rate applies).

    Examples
    --------
    >>> crowd = FlashCrowd(peak_rate_per_hour=900.0, decay_hours=2.0,
    ...                    base_rate_per_hour=10.0)
    >>> round(crowd.rate_at(0.0))
    910
    >>> round(crowd.rate_at(2 * 3600.0))
    341
    """

    def __init__(
        self,
        peak_rate_per_hour: float,
        decay_hours: float,
        base_rate_per_hour: float = 0.0,
        start_hours: float = 0.0,
    ):
        if peak_rate_per_hour < 0 or base_rate_per_hour < 0:
            raise WorkloadError("rates must be >= 0")
        if peak_rate_per_hour + base_rate_per_hour <= 0:
            raise WorkloadError("the crowd must have a positive rate somewhere")
        if decay_hours <= 0:
            raise WorkloadError(f"decay_hours must be > 0, got {decay_hours}")
        if start_hours < 0:
            raise WorkloadError(f"start_hours must be >= 0, got {start_hours}")
        self.peak_rate_per_hour = float(peak_rate_per_hour)
        self.decay_hours = float(decay_hours)
        self.base_rate_per_hour = float(base_rate_per_hour)
        self.start_hours = float(start_hours)
        super().__init__(
            rate_fn=self.rate_at,
            max_rate_per_hour=base_rate_per_hour + peak_rate_per_hour,
        )

    rate_terms = 2

    def rates(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous rates (per hour) at ``times`` seconds into the run."""
        return self._rates(np.asarray(times, dtype=float), math_exp)

    def _np_exp_rates(self, times: np.ndarray) -> np.ndarray:
        return self._rates(times, np.exp, ordered=True)

    def _rates(self, times: np.ndarray, exp, ordered: bool = False) -> np.ndarray:
        since_release = times - self.start_hours * 3600.0
        rates = np.full(times.shape, self.base_rate_per_hour)
        released = (slice(np.searchsorted(since_release, 0.0), None) if ordered
                    else ~(since_release < 0))
        decay = exp(-since_release[released] / (self.decay_hours * 3600.0))
        rates[released] = self.base_rate_per_hour + self.peak_rate_per_hour * decay
        return rates

    def expected_requests(self, horizon_seconds: float) -> float:
        """Mean number of arrivals in ``[0, horizon_seconds)``.

        >>> crowd = FlashCrowd(100.0, 1.0, base_rate_per_hour=0.0)
        >>> round(crowd.expected_requests(1e9))   # total surge = peak * decay
        100
        """
        if horizon_seconds < 0:
            raise WorkloadError("horizon must be >= 0")
        tau = self.decay_hours * 3600.0
        surge_window = horizon_seconds - self.start_hours * 3600.0
        surge = 0.0
        if surge_window > 0:
            surge = self.peak_rate_per_hour / 3600.0 * tau * (
                1.0 - math.exp(-surge_window / tau)
            )
        return surge + self.base_rate_per_hour / 3600.0 * horizon_seconds
