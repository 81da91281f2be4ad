"""Tests for repro.analysis.metrics."""

import pytest

from repro.analysis.metrics import BandwidthPoint, ProtocolSeries, series_by_name
from repro.errors import ConfigurationError


def point(rate, mean, peak=None):
    return BandwidthPoint(
        rate_per_hour=rate, mean_bandwidth=mean, max_bandwidth=peak or mean
    )


def test_series_accessors():
    series = ProtocolSeries("DHB")
    series.add(point(1.0, 1.5, 3.0))
    series.add(point(10.0, 4.0, 7.0))
    assert series.rates == [1.0, 10.0]
    assert series.means == [1.5, 4.0]
    assert series.maxima == [3.0, 7.0]


def test_series_by_name():
    a = ProtocolSeries("A")
    b = ProtocolSeries("B")
    indexed = series_by_name([a, b])
    assert indexed["A"] is a
    with pytest.raises(ConfigurationError):
        series_by_name([a, ProtocolSeries("A")])


def test_point_is_frozen():
    p = point(1.0, 2.0)
    with pytest.raises(AttributeError):
        p.mean_bandwidth = 5.0
