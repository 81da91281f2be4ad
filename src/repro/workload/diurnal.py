"""Diurnal (time-of-day) demand profiles.

The paper's introduction observes that "the frequency of requests for any
given video is likely to vary widely with the time of the day: child-oriented
fare will always be in higher demand during the day and early evening hours
than at night; conversely, videos appealing to older viewers are likely to
follow an opposite pattern" — and argues no conventional protocol handles
both regimes.  These profiles realise that scenario, and
:class:`DiurnalArrivals` thins a Poisson stream by one of them, so the
dynamic protocols can be exercised across their whole operating range within
a single run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import WorkloadError
from ..units import HOUR
from .arrivals import NonHomogeneousPoisson


class DiurnalProfile:
    """A 24-hour periodic rate profile defined by hourly control points.

    Parameters
    ----------
    hourly_rates:
        24 values, ``hourly_rates[h]`` being the arrival rate (per hour)
        during hour-of-day ``h``.  The profile linearly interpolates between
        hour midpoints and wraps around midnight.
    """

    def __init__(self, hourly_rates: Sequence[float]):
        if len(hourly_rates) != 24:
            raise WorkloadError(f"need 24 hourly rates, got {len(hourly_rates)}")
        if any(r < 0 for r in hourly_rates):
            raise WorkloadError("hourly rates must be >= 0")
        self.hourly_rates = [float(r) for r in hourly_rates]

    @property
    def max_rate_per_hour(self) -> float:
        """Upper bound on the instantaneous rate (used for thinning)."""
        return max(self.hourly_rates)

    @property
    def mean_rate_per_hour(self) -> float:
        """Average rate over a day."""
        return sum(self.hourly_rates) / 24.0

    def rates(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous rates (per hour) at absolute ``times`` seconds.

        Linear interpolation between the midpoints of consecutive hours,
        periodic with a 24-hour day.  Every step is a correctly rounded
        array operation, so each element equals the scalar evaluation.
        """
        day_seconds = 24 * HOUR
        t = np.fmod(np.asarray(times, dtype=float), day_seconds)
        t[t < 0] += day_seconds
        hour_float = t / HOUR - 0.5  # hour midpoints carry the control values
        lower = np.floor(hour_float)
        frac = hour_float - lower
        hour = lower.astype(np.int64) % 24
        table = np.asarray(self.hourly_rates)
        r0 = table[hour]
        r1 = table[(hour + 1) % 24]
        return r0 + frac * (r1 - r0)

    def rate_at(self, time_seconds: float) -> float:
        """Instantaneous rate (per hour) at absolute ``time_seconds``.

        >>> profile = DiurnalProfile([10.0] * 24)
        >>> profile.rate_at(12345.0)
        10.0
        """
        return float(self.rates(np.array([time_seconds], dtype=float))[0])


class DiurnalArrivals(NonHomogeneousPoisson):
    """Thinned arrivals whose rate follows a :class:`DiurnalProfile`."""

    def __init__(self, profile: DiurnalProfile):
        self.profile = profile
        super().__init__(
            rate_fn=profile.rate_at, max_rate_per_hour=profile.max_rate_per_hour
        )

    def rates(self, times: np.ndarray) -> np.ndarray:
        return self.profile.rates(times)


def child_daytime_profile(peak_rate_per_hour: float = 100.0) -> DiurnalProfile:
    """Demand profile for child-oriented fare: daytime/early-evening peak.

    Peaks between 08:00 and 19:00, nearly idle overnight.
    """
    if peak_rate_per_hour <= 0:
        raise WorkloadError("peak rate must be > 0")
    shape = [
        0.02, 0.02, 0.02, 0.02, 0.03, 0.05,  # 00-05: asleep
        0.15, 0.40, 0.70, 0.85, 0.90, 0.95,  # 06-11: morning ramp
        1.00, 0.95, 0.90, 0.90, 0.95, 1.00,  # 12-17: daytime plateau
        0.90, 0.60, 0.30, 0.12, 0.05, 0.03,  # 18-23: bedtime fall
    ]
    return DiurnalProfile([peak_rate_per_hour * s for s in shape])


def adult_evening_profile(peak_rate_per_hour: float = 100.0) -> DiurnalProfile:
    """Demand profile for adult-oriented fare: late-evening peak."""
    if peak_rate_per_hour <= 0:
        raise WorkloadError("peak rate must be > 0")
    shape = [
        0.55, 0.35, 0.18, 0.08, 0.04, 0.03,  # 00-05: tapering night owls
        0.03, 0.04, 0.05, 0.06, 0.08, 0.10,  # 06-11: work hours
        0.12, 0.12, 0.14, 0.18, 0.25, 0.35,  # 12-17: afternoon build
        0.50, 0.70, 0.90, 1.00, 0.95, 0.75,  # 18-23: prime time
    ]
    return DiurnalProfile([peak_rate_per_hour * s for s in shape])
