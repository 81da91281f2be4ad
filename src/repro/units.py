"""Unit helpers and shared constants.

The paper expresses time in seconds (videos last "two hours"), request rates
in arrivals per hour, and bandwidth either in multiples of the video
consumption rate ``b`` (Figures 7 and 8) or in kilobytes / megabytes per
second (Figure 9, compressed video).  These helpers keep the conversions in
one place so that experiment code reads like the paper.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Seconds in one minute.
MINUTE = 60.0
#: Seconds in one hour.
HOUR = 3600.0
#: Bytes in one kilobyte (the paper uses decimal-free "kilobytes per second";
#: we follow the conventional 1 KB = 1024 B used by the MPEG tooling era).
KILOBYTE = 1024
#: Bytes in one megabyte.
MEGABYTE = 1024 * 1024

#: Duration of the canonical two-hour video used throughout Figures 7 and 8.
TWO_HOURS = 2 * HOUR


def per_hour_to_per_second(rate_per_hour: float) -> float:
    """Convert a request arrival rate from arrivals/hour to arrivals/second.

    >>> per_hour_to_per_second(3600.0)
    1.0
    """
    if rate_per_hour < 0:
        raise ConfigurationError(f"arrival rate must be >= 0, got {rate_per_hour}")
    return rate_per_hour / HOUR


def hours(value: float) -> float:
    """Express ``value`` hours in seconds."""
    return value * HOUR


def minutes(value: float) -> float:
    """Express ``value`` minutes in seconds."""
    return value * MINUTE
