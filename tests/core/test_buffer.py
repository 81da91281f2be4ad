"""Tests for repro.core.buffer — client STB buffer occupancy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import buffer_profile, worst_case_buffer
from repro.core.client import ClientPlan
from repro.core.dhb import DHBProtocol
from repro.errors import ConfigurationError, SchedulingError


def make_plan(arrival, assignments):
    plan = ClientPlan(arrival_slot=arrival)
    for segment, slot in assignments.items():
        plan.assign(segment, slot, shared=False)
    return plan


def test_live_streaming_needs_no_buffer():
    """S_j received exactly in relative slot j streams through."""
    plan = make_plan(0, {1: 1, 2: 2, 3: 3})
    profile = buffer_profile(plan)
    assert profile.peak_bytes == 0.0
    assert all(level == 0.0 for level in profile.occupancy)


def test_early_reception_is_buffered():
    # S3 arrives in relative slot 1, consumed in slot 3: buffered 2 slots.
    plan = make_plan(0, {1: 1, 2: 2, 3: 1})
    profile = buffer_profile(plan)
    assert profile.occupancy == [1.0, 1.0, 0.0]
    assert profile.peak_bytes == 1.0


def test_weighted_sizes():
    plan = make_plan(0, {1: 1, 2: 1, 3: 3})
    profile = buffer_profile(plan, segment_bytes=[10.0, 100.0, 5.0])
    assert profile.peak_bytes == 100.0
    assert profile.total_bytes == 115.0


def test_figure5_client_buffers_two_segments():
    protocol = DHBProtocol(n_segments=6, track_clients=True)
    protocol.handle_request(slot=1)
    plan = protocol.handle_request(slot=3)
    assert buffer_profile(plan).peak_bytes == 2.0


def test_occupancy_ends_at_zero():
    protocol = DHBProtocol(n_segments=10, track_clients=True)
    for slot in [0, 2, 5, 6]:
        protocol.handle_request(slot)
    for plan in protocol.clients:
        profile = buffer_profile(plan)
        assert profile.occupancy[-1] == 0.0
        assert min(profile.occupancy) >= 0.0


def test_worst_case_buffer_bounded_by_video_size():
    protocol = DHBProtocol(n_segments=12, track_clients=True)
    for slot in range(0, 30, 2):
        protocol.handle_request(slot)
    peak = worst_case_buffer(protocol.clients)
    assert 0.0 <= peak <= 12.0


@settings(max_examples=80, deadline=None)
@given(
    trace=st.lists(st.integers(0, 25), min_size=1, max_size=40).map(sorted),
    n_segments=st.integers(1, 15),
)
def test_buffer_profile_invariants(trace, n_segments):
    """Occupancy never negative, drains to zero, peak below video size."""
    protocol = DHBProtocol(n_segments=n_segments, track_clients=True)
    for slot in trace:
        protocol.handle_request(slot)
    for plan in protocol.clients:
        profile = buffer_profile(plan)
        assert min(profile.occupancy) >= -1e-9
        assert profile.occupancy[-1] == 0.0
        assert profile.peak_bytes <= n_segments


def test_validation():
    with pytest.raises(ConfigurationError):
        buffer_profile(ClientPlan(arrival_slot=0))
    gappy = ClientPlan(arrival_slot=0)
    gappy.assign(1, 1, shared=False)
    gappy.assign(3, 3, shared=False)
    with pytest.raises(SchedulingError):
        buffer_profile(gappy)
    full = make_plan(0, {1: 1, 2: 2})
    with pytest.raises(ConfigurationError):
        buffer_profile(full, segment_bytes=[1.0])
