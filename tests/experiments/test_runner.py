"""Tests for repro.experiments.runner."""

import numpy as np
import pytest

from repro.core.dhb import DHBProtocol
from repro.errors import ConfigurationError
from repro.experiments.config import SweepConfig
from repro.experiments.runner import (
    arrivals_for_rate,
    measure_protocol,
    sweep_protocols,
)
from repro.protocols.npb import NewPagodaBroadcasting
from repro.protocols.patching import PatchingProtocol


CONFIG = SweepConfig().quick(rates_per_hour=(20.0,), base_hours=4.0, min_requests=20)


def test_arrivals_shared_across_calls():
    a = arrivals_for_rate(CONFIG, 20.0)
    b = arrivals_for_rate(CONFIG, 20.0)
    assert np.allclose(a, b)


def test_arrivals_differ_across_rates_and_seeds():
    a = arrivals_for_rate(CONFIG, 20.0)
    b = arrivals_for_rate(CONFIG.replace(seed=1), 20.0)
    assert len(a) != len(b) or not np.allclose(a, b)


def test_measure_slotted_protocol():
    point = measure_protocol(DHBProtocol(n_segments=CONFIG.n_segments), CONFIG, 20.0)
    assert point.rate_per_hour == 20.0
    assert 0 < point.mean_bandwidth <= point.max_bandwidth
    assert point.n_requests > 0
    assert 0 <= point.mean_wait <= CONFIG.slot_duration


def test_measure_reactive_protocol():
    protocol = PatchingProtocol(
        duration=CONFIG.duration, expected_rate_per_hour=20.0
    )
    point = measure_protocol(protocol, CONFIG, 20.0)
    assert point.mean_bandwidth > 0
    assert point.mean_wait == 0.0


def test_stream_bandwidth_scaling():
    base = measure_protocol(
        NewPagodaBroadcasting(n_segments=CONFIG.n_segments), CONFIG, 20.0
    )
    scaled = measure_protocol(
        NewPagodaBroadcasting(n_segments=CONFIG.n_segments),
        CONFIG,
        20.0,
        stream_bandwidth=100.0,
    )
    assert scaled.mean_bandwidth == pytest.approx(base.mean_bandwidth * 100.0)


def test_byte_weighted_accounting():
    weights = [100.0] * CONFIG.n_segments
    protocol = DHBProtocol(n_segments=CONFIG.n_segments, segment_weights=weights)
    point = measure_protocol(protocol, CONFIG, 20.0, byte_weighted=True)
    unweighted = measure_protocol(
        DHBProtocol(n_segments=CONFIG.n_segments), CONFIG, 20.0
    )
    # Uniform 100-byte weights divided by the slot length.
    expected = unweighted.mean_bandwidth * 100.0 / CONFIG.slot_duration
    assert point.mean_bandwidth == pytest.approx(expected, rel=1e-6)


def test_byte_weighted_rejected_for_reactive():
    protocol = PatchingProtocol(duration=CONFIG.duration, expected_rate_per_hour=20.0)
    with pytest.raises(ConfigurationError):
        measure_protocol(protocol, CONFIG, 20.0, byte_weighted=True)


def test_slot_duration_override():
    point = measure_protocol(
        DHBProtocol(n_segments=10), CONFIG, 20.0, slot_duration=60.0
    )
    assert point.mean_wait <= 60.0


def test_sweep_protocols_common_random_numbers():
    config = CONFIG.replace(rates_per_hour=(30.0,))
    all_series = sweep_protocols(["dhb", "npb"], config, labels=["DHB", "NPB"])
    assert [s.protocol for s in all_series] == ["DHB", "NPB"]
    assert all_series[0].points[0].n_requests == all_series[1].points[0].n_requests


def test_sweep_protocols_label_mismatch():
    with pytest.raises(ConfigurationError):
        sweep_protocols(["dhb"], CONFIG, labels=["a", "b"])


def test_invalid_rate():
    with pytest.raises(ConfigurationError):
        measure_protocol(DHBProtocol(n_segments=5), CONFIG, 0.0)
