"""Tests for repro.protocols.stream_tapping.

The latest-transmitter map is checked against the rescanning loop of
:mod:`tests.protocols.tapping_reference`, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.protocols.stream_tapping import StreamTappingProtocol
from repro.runtime.seeds import arrival_trace
from repro.sim.continuous import ContinuousSimulation
from repro.workload.arrivals import PoissonArrivals

from .tapping_reference import ReferenceStreamTapping


def make(duration=100.0, **kwargs):
    kwargs.setdefault("expected_rate_per_hour", 360.0)
    return StreamTappingProtocol(duration=duration, **kwargs)


def test_first_request_gets_complete_stream():
    st = make()
    assert st.handle_request(0.0) == [(0.0, 100.0)]
    assert st.complete_streams == 1


def test_second_request_full_tap():
    st = make()
    st.handle_request(0.0)
    assert st.handle_request(4.0) == [(4.0, 8.0)]


def test_extra_tapping_reduces_cost():
    st = make()
    st.handle_request(0.0)
    st.handle_request(4.0)
    pieces = st.handle_request(6.0)
    # Taps [2,4) of the previous 4-second tap: pays 2*(6-4) = 4 s total.
    assert pieces == [(6.0, 8.0), (10.0, 12.0)]
    total = sum(end - start for start, end in pieces)
    assert total == pytest.approx(4.0)


def test_without_extra_tapping_cost_is_delta():
    st = make(extra_tapping=False)
    st.handle_request(0.0)
    st.handle_request(4.0)
    pieces = st.handle_request(6.0)
    assert pieces == [(6.0, 12.0)]  # the whole 6-second prefix


def test_chained_taps_across_many_members():
    """Manual trace of extra tapping at a steady 10-second cadence.

    A member's pieces are transmitted just-in-time, so a newcomer can only
    capture positions >= (its arrival - the member's arrival):

    * t=10: nothing to tap -> pays its 10 s prefix, pieces [0,10).
    * t=20: the t=10 member finished transmitting exactly at 20 -> pays 20.
    * t=30: taps [10,20) from the t=20 member -> pays [0,10) + [20,30) = 20.
    * t=40: only [20,30) of the t=30 member is still capturable -> pays 30.
    """
    st = make(restart_window=1000.0, duration=1000.0)
    st.handle_request(0.0)
    costs = []
    for t in [10.0, 20.0, 30.0, 40.0]:
        pieces = st.handle_request(t)
        costs.append(sum(e - s for s, e in pieces))
    assert costs == pytest.approx([10.0, 20.0, 20.0, 30.0])
    # Every cost is bounded by the full-tap fallback.
    for t, cost in zip([10.0, 20.0, 30.0, 40.0], costs):
        assert cost <= t


def test_restart_window_triggers_new_complete_stream():
    st = make(restart_window=10.0)
    st.handle_request(0.0)
    result = st.handle_request(50.0)
    assert result == [(50.0, 150.0)]
    assert st.complete_streams == 2


def test_group_expires_with_video_end():
    st = make(restart_window=1e9)
    st.handle_request(0.0)
    result = st.handle_request(150.0)  # past the end of the complete stream
    assert result == [(150.0, 250.0)]
    assert st.complete_streams == 2


def test_optimal_window_used_when_rate_given():
    st = StreamTappingProtocol(duration=7200.0, expected_rate_per_hour=10.0)
    window = st.restart_window()
    lam = 10.0 / 3600.0
    expected = (np.sqrt(1 + 2 * lam * 7200.0) - 1) / lam
    assert window == pytest.approx(expected)


def test_online_rate_estimate_adapts():
    st = StreamTappingProtocol(duration=7200.0)
    assert st.restart_window() == pytest.approx(7200.0)  # no estimate yet
    for t in np.arange(0.0, 3600.0, 60.0):
        st.handle_request(float(t))
    # ~60 requests/hour: the adaptive window must now be far below D.
    assert st.restart_window() < 3000.0


def test_zero_delay():
    assert make().startup_delay(5.0) == 0.0


def test_mean_cost_tracks_patching_theory(rng):
    """With extra tapping the measured cost must beat plain patching but
    stay in its ballpark."""
    from repro.analysis.theory import patching_cost_rate

    duration, rate = 7200.0, 20.0
    st = StreamTappingProtocol(duration, expected_rate_per_hour=rate)
    horizon = 400 * 3600.0
    sim = ContinuousSimulation(st, horizon, warmup=horizon * 0.05)
    times = PoissonArrivals(rate).generate(horizon, rng)
    result = sim.run(times)
    theory = patching_cost_rate(rate / 3600.0, duration)
    assert result.mean_streams <= theory * 1.05
    assert result.mean_streams >= theory * 0.5


def test_validation():
    with pytest.raises(ConfigurationError):
        StreamTappingProtocol(duration=0.0)


@pytest.mark.parametrize(
    "before, late",
    [((0.0, 5.0), 3.0), ((0.0, 5.0), float("nan")), ((), float("nan"))],
    ids=["earlier", "nan", "first-nan"],
)
def test_arrival_before_the_previous_one_rejected(before, late):
    protocol, fresh = make(), make()
    for t in before:
        protocol.handle_request(t)
        fresh.handle_request(t)
    with pytest.raises(SimulationError):
        protocol.handle_request(late)
    assert protocol.requests_served == len(before)
    # The rejected call left no state behind; a tie with 5.0 is in order.
    assert protocol.handle_request(5.0) == fresh.handle_request(5.0)
    assert protocol.complete_streams == fresh.complete_streams


def _bits(streams):
    return [(start.hex(), end.hex()) for start, end in streams]


def assert_matches_reference(times, **kwargs):
    fast = StreamTappingProtocol(**kwargs)
    slow = ReferenceStreamTapping(**kwargs)
    for t in times:
        assert _bits(fast.handle_request(t)) == _bits(slow.handle_request(t)), t
    assert fast.complete_streams == slow.complete_streams
    assert fast.requests_served == slow.requests_served


# Gaps between arrivals: exact ties, bursts of near-ties, ordinary gaps and
# long silences that end groups.
_gap = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-6),
    st.floats(0.0, 30.0),
    st.floats(0.0, 400.0),
    st.sampled_from([0.1, 0.5, 1.0, 2.5, 10.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(0.0, 1e6),
    gaps=st.lists(_gap, min_size=1, max_size=80),
    duration=st.sampled_from([100.0, 250.0, 7200.0]),
    mode=st.sampled_from(["rate", "online", "window", "short-window", "no-extra"]),
    rate=st.floats(1.0, 5000.0),
)
def test_map_matches_rescanning_reference(start, gaps, duration, mode, rate):
    times = np.cumsum([start] + gaps).tolist()
    kwargs = {"duration": duration}
    if mode == "rate":
        kwargs["expected_rate_per_hour"] = rate
    elif mode == "window":
        kwargs["restart_window"] = duration
    elif mode == "short-window":
        kwargs["restart_window"] = rate / 100.0
    elif mode == "no-extra":
        kwargs.update(expected_rate_per_hour=rate, extra_tapping=False)
    assert_matches_reference(times, **kwargs)


@pytest.mark.parametrize("rate", [10.0, 1000.0])
def test_map_matches_rescanning_reference_on_paper_traces(rate):
    times = arrival_trace(4242, rate, 20.0).tolist()
    assert_matches_reference(times, duration=7200.0, expected_rate_per_hour=rate)
