"""Tests for repro.sim.continuous.

The driver is checked against the per-request loop of
:mod:`tests.sim.continuous_reference` for every reactive protocol, bit for
bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.protocols.batching import BatchingProtocol
from repro.protocols.catching import SelectiveCatchingProtocol
from repro.protocols.hmsm import HMSMProtocol
from repro.protocols.patching import PatchingProtocol
from repro.protocols.stream_tapping import StreamTappingProtocol
from repro.runtime.seeds import arrival_trace
from repro.server.channels import UnicastVODServer
from repro.sim import continuous
from repro.sim.continuous import ContinuousSimulation, ReactiveModel

from .continuous_reference import reference_run


class FixedCostProtocol(ReactiveModel):
    """Every request costs one stream of a fixed length."""

    def __init__(self, stream_length, wait=0.0):
        self.stream_length = stream_length
        self.wait = wait

    def handle_request(self, time):
        return [(time, time + self.stream_length)]

    def startup_delay(self, time):
        return self.wait


class FlushingProtocol(ReactiveModel):
    """Emits a standing interval only at finish()."""

    def handle_request(self, time):
        return []

    def finish(self, horizon):
        return [(0.0, horizon)]


def test_mean_concurrency_matches_load():
    protocol = FixedCostProtocol(stream_length=10.0)
    sim = ContinuousSimulation(protocol, horizon=100.0)
    result = sim.run([0.0, 50.0])
    assert result.mean_streams == pytest.approx(20.0 / 100.0)
    assert result.max_streams == 1


def test_overlapping_streams_peak():
    protocol = FixedCostProtocol(stream_length=10.0)
    sim = ContinuousSimulation(protocol, horizon=100.0)
    result = sim.run([0.0, 1.0, 2.0])
    assert result.max_streams == 3


def test_warmup_clipping():
    protocol = FixedCostProtocol(stream_length=10.0)
    sim = ContinuousSimulation(protocol, horizon=100.0, warmup=50.0)
    result = sim.run([0.0, 45.0, 60.0])
    # first stream entirely in warmup; second half-clipped; third full
    assert result.mean_streams == pytest.approx((5.0 + 10.0) / 50.0)
    assert result.n_requests == 1  # only the post-warmup arrival measured


def test_waiting_time_recorded():
    protocol = FixedCostProtocol(stream_length=1.0, wait=3.0)
    sim = ContinuousSimulation(protocol, horizon=10.0)
    result = sim.run([1.0, 2.0])
    assert result.mean_wait == pytest.approx(3.0)
    assert result.max_wait == pytest.approx(3.0)


def test_arrivals_beyond_horizon_ignored():
    protocol = FixedCostProtocol(stream_length=1.0)
    sim = ContinuousSimulation(protocol, horizon=10.0)
    result = sim.run([1.0, 11.0])
    assert result.n_requests == 1


def test_finish_hook_flushes_standing_intervals():
    sim = ContinuousSimulation(FlushingProtocol(), horizon=10.0)
    result = sim.run([])
    assert result.mean_streams == pytest.approx(1.0)


def test_invalid_configuration():
    with pytest.raises(ConfigurationError):
        ContinuousSimulation(FixedCostProtocol(1.0), horizon=10.0, warmup=10.0)
    with pytest.raises(ConfigurationError):
        ContinuousSimulation(FixedCostProtocol(1.0), horizon=10.0, warmup=-1.0)


class RecordingProtocol(FixedCostProtocol):
    """Remembers every time it was asked to admit."""

    def __init__(self):
        super().__init__(stream_length=1.0)
        self.seen = []

    def handle_request(self, time):
        self.seen.append(time)
        return super().handle_request(time)


@pytest.mark.parametrize(
    "arrivals",
    [
        [0.0, 50.0, 10.0, 20.0],
        [0.0, float("nan"), 20.0],
        [0.0, 20.0, float("nan")],
        [float("nan")],
        [[0.0, 1.0], [2.0, 3.0]],
    ],
    ids=["unsorted", "nan-inside", "nan-last", "single-nan", "2-d"],
)
def test_malformed_arrivals_rejected_before_admission(arrivals):
    protocol = RecordingProtocol()
    with pytest.raises(SimulationError):
        ContinuousSimulation(protocol, horizon=100.0).run(arrivals)
    assert protocol.seen == []


def test_arrivals_reach_the_protocol_as_python_floats():
    protocol = RecordingProtocol()
    ContinuousSimulation(protocol, horizon=100.0).run(np.array([1.0, 2.5, 99.0, 100.0]))
    assert protocol.seen == [1.0, 2.5, 99.0]
    assert all(type(t) is float for t in protocol.seen)


DURATION = 7200.0

REACTIVE_FACTORIES = {
    "tapping": lambda rate: StreamTappingProtocol(DURATION, expected_rate_per_hour=rate),
    "tapping-online": lambda rate: StreamTappingProtocol(DURATION),
    "patching": lambda rate: PatchingProtocol(DURATION, expected_rate_per_hour=rate),
    "batching": lambda rate: BatchingProtocol(DURATION, window=300.0),
    "catching": lambda rate: SelectiveCatchingProtocol(
        DURATION, expected_rate_per_hour=rate
    ),
    "hmsm": lambda rate: HMSMProtocol(DURATION),
    "unicast": lambda rate: UnicastVODServer(n_channels=12, duration=DURATION),
}


def _bits(result):
    """A result as a tuple whose floats compare bit for bit."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(result)
    )


@pytest.mark.parametrize("rate", [5.0, 200.0])
@pytest.mark.parametrize("name", sorted(REACTIVE_FACTORIES))
def test_driver_matches_reference_loop(name, rate):
    """Same ReactiveResult as the per-request loop, bit for bit."""
    horizon = 40 * 3600.0
    warmup = horizon * 0.1
    arrivals = arrival_trace(2001, rate, 40.0)
    make = REACTIVE_FACTORIES[name]
    expected = reference_run(make(rate), arrivals, horizon, warmup)
    result = ContinuousSimulation(make(rate), horizon, warmup).run(arrivals)
    assert _bits(result) == _bits(expected)
    assert result.n_requests > 0


@pytest.mark.parametrize("name", ["tapping", "batching", "catching"])
def test_flush_batches_do_not_change_the_result(name, monkeypatch):
    """Many small interval flushes, split across the warmup, change nothing."""
    horizon = 40 * 3600.0
    warmup = horizon * 0.1
    arrivals = arrival_trace(2001, 200.0, 40.0)
    make = REACTIVE_FACTORIES[name]
    expected = reference_run(make(200.0), arrivals, horizon, warmup)
    monkeypatch.setattr(continuous, "_CHUNK", 7)
    result = ContinuousSimulation(make(200.0), horizon, warmup).run(arrivals)
    assert _bits(result) == _bits(expected)


def test_delays_and_flushes_are_exercised():
    """The batching and catching cases above really wait and flush."""
    horizon = 40 * 3600.0
    arrivals = arrival_trace(2001, 200.0, 40.0)
    batching = ContinuousSimulation(REACTIVE_FACTORIES["batching"](200.0), horizon)
    assert batching.run(arrivals).mean_wait > 0.0
    catching = REACTIVE_FACTORIES["catching"](200.0)
    assert catching.finish(horizon)
