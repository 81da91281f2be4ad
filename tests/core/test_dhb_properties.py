"""Property-based tests of the DHB scheduler's core guarantees.

These are the invariants of DESIGN.md §5, checked over randomly generated
request traces and period vectors with hypothesis:

1. every admitted client receives every segment on time;
2. the waiting-time bound (scheduling into slots > arrival only);
3. the single-future-instance invariant of window sharing;
4. bandwidth accounting consistency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dhb import DHBProtocol
from repro.core.heuristic import (
    always_latest_chooser,
    earliest_min_load_chooser,
    latest_min_load_chooser,
)

request_traces = st.lists(st.integers(0, 40), min_size=1, max_size=60).map(sorted)

choosers = st.sampled_from(
    [latest_min_load_chooser, earliest_min_load_chooser, always_latest_chooser]
)


@st.composite
def period_vectors(draw):
    """Valid period vectors: T[1] = 1, each T[j] in [max(1, j-1), j + 6]."""
    n = draw(st.integers(2, 16))
    periods = [1]
    for j in range(2, n + 1):
        periods.append(draw(st.integers(max(1, j - 1), j + 6)))
    return periods


@settings(max_examples=150, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 20), chooser=choosers)
def test_every_client_plan_is_on_time(trace, n_segments, chooser):
    protocol = DHBProtocol(n_segments=n_segments, chooser=chooser, track_clients=True)
    for slot in trace:
        protocol.handle_request(slot)
    for plan in protocol.clients:
        plan.verify(protocol.periods)  # raises on any violation


@settings(max_examples=100, deadline=None)
@given(trace=request_traces, periods=period_vectors())
def test_on_time_under_custom_periods(trace, periods):
    protocol = DHBProtocol(periods=periods, track_clients=True)
    for slot in trace:
        protocol.handle_request(slot)
    for plan in protocol.clients:
        plan.verify(protocol.periods)


@settings(max_examples=100, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 15))
def test_single_future_instance_invariant(trace, n_segments):
    """After each request, no segment has two instances beyond that slot."""
    protocol = DHBProtocol(n_segments=n_segments)
    horizon = max(trace) + n_segments + 2
    for slot in trace:
        protocol.handle_request(slot)
        future_counts = {j: 0 for j in range(1, n_segments + 1)}
        for future_slot in range(slot + 1, horizon):
            for segment in protocol.schedule.segments_in(future_slot):
                future_counts[segment] += 1
        assert all(count <= 1 for count in future_counts.values())


@settings(max_examples=100, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 15))
def test_bandwidth_accounting_consistency(trace, n_segments):
    """Sum of slot loads equals total instances; sharing only reduces it."""
    protocol = DHBProtocol(n_segments=n_segments, track_clients=True)
    for slot in trace:
        protocol.handle_request(slot)
    horizon = max(trace) + n_segments + 2
    summed = sum(protocol.slot_load(s) for s in range(horizon))
    assert summed == protocol.schedule.total_instances
    new_instances = sum(not shared for plan in protocol.clients for shared in plan.shared.values())
    assert summed == new_instances
    assert summed <= len(trace) * n_segments


@settings(max_examples=60, deadline=None)
@given(trace=request_traces, n_segments=st.integers(2, 15))
def test_sharing_never_worse_than_no_sharing(trace, n_segments):
    shared = DHBProtocol(n_segments=n_segments)
    unshared = DHBProtocol(n_segments=n_segments, enable_sharing=False)
    for slot in trace:
        shared.handle_request(slot)
        unshared.handle_request(slot)
    assert (
        shared.schedule.total_instances <= unshared.schedule.total_instances
    )


@settings(max_examples=60, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 12))
def test_no_transmissions_at_or_before_request_slot(trace, n_segments):
    protocol = DHBProtocol(n_segments=n_segments, track_clients=True)
    for slot in trace:
        protocol.handle_request(slot)
    for plan in protocol.clients:
        assert all(s > plan.arrival_slot for s in plan.assignments.values())
