"""Tests for repro.sim.slotted."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.slotted import SlottedModel, SlottedSimulation


class CountingProtocol(SlottedModel):
    """Transmits one instance per admitted request, in the next slot."""

    def __init__(self):
        self.loads = {}
        self.requests = []

    def handle_request(self, slot):
        self.requests.append(slot)
        self.loads[slot + 1] = self.loads.get(slot + 1, 0) + 1

    def slot_load(self, slot):
        return self.loads.get(slot, 0)


class ConstantProtocol(SlottedModel):
    """A fixed protocol: constant load, ignores requests."""

    def __init__(self, k):
        self.k = k

    def handle_request(self, slot):
        pass

    def slot_load(self, slot):
        return self.k


def test_requests_mapped_to_their_arrival_slot():
    protocol = CountingProtocol()
    sim = SlottedSimulation(protocol, slot_duration=10.0, horizon_slots=10)
    sim.run([5.0, 15.0, 16.0, 95.0])
    assert protocol.requests == [0, 1, 1, 9]


def test_arrivals_beyond_horizon_ignored():
    protocol = CountingProtocol()
    sim = SlottedSimulation(protocol, slot_duration=10.0, horizon_slots=3)
    result = sim.run([5.0, 100.0, 200.0])
    assert protocol.requests == [0]
    assert result.n_requests == 1


def test_mean_and_max_loads():
    protocol = ConstantProtocol(4)
    sim = SlottedSimulation(protocol, slot_duration=1.0, horizon_slots=100)
    result = sim.run([])
    assert result.mean_streams == pytest.approx(4.0)
    assert result.max_streams == 4
    assert result.slots_measured == 100


def test_warmup_slots_excluded():
    class RampProtocol(ConstantProtocol):
        def slot_load(self, slot):
            return 100 if slot < 10 else 1

    sim = SlottedSimulation(
        RampProtocol(0), slot_duration=1.0, horizon_slots=100, warmup_slots=10
    )
    result = sim.run([])
    assert result.mean_streams == pytest.approx(1.0)
    assert result.max_streams == 1


def test_waiting_time_is_until_next_slot_boundary():
    protocol = CountingProtocol()
    sim = SlottedSimulation(protocol, slot_duration=10.0, horizon_slots=10)
    result = sim.run([3.0, 18.0])
    # waits: 10-3=7 and 20-18=2
    assert result.mean_wait == pytest.approx(4.5)
    assert result.max_wait == pytest.approx(7.0)
    assert result.max_wait <= 10.0


def test_series_collection():
    protocol = ConstantProtocol(2)
    sim = SlottedSimulation(
        protocol, slot_duration=1.0, horizon_slots=5, keep_series=True
    )
    result = sim.run([])
    assert result.series == [2, 2, 2, 2, 2]


def test_default_slot_weight_equals_load():
    protocol = ConstantProtocol(3)
    sim = SlottedSimulation(protocol, slot_duration=1.0, horizon_slots=10)
    result = sim.run([])
    assert result.mean_weight == pytest.approx(3.0)
    assert result.max_weight == pytest.approx(3.0)


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        SlottedSimulation(ConstantProtocol(1), slot_duration=0.0, horizon_slots=10)
    with pytest.raises(ConfigurationError):
        SlottedSimulation(
            ConstantProtocol(1), slot_duration=1.0, horizon_slots=5, warmup_slots=5
        )


def test_requests_during_warmup_not_counted_in_waits():
    protocol = CountingProtocol()
    sim = SlottedSimulation(
        protocol, slot_duration=10.0, horizon_slots=10, warmup_slots=5
    )
    result = sim.run([3.0, 72.0])
    assert result.n_requests == 1  # only the post-warmup request measured
    assert protocol.requests == [0, 7]  # but both were admitted
