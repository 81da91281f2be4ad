"""Tests for repro.units."""

import pytest

from repro.errors import ConfigurationError
from repro import units


def test_rate_conversions_roundtrip():
    assert units.per_hour_to_per_second(3600.0) == 1.0
    assert units.per_hour_to_per_second(77.0) * units.HOUR == pytest.approx(77.0)


def test_time_helpers():
    assert units.hours(2.0) == 7200.0
    assert units.minutes(1.5) == 90.0
    assert units.TWO_HOURS == 7200.0


def test_negative_rates_rejected():
    with pytest.raises(ConfigurationError):
        units.per_hour_to_per_second(-1.0)
