"""Every DHB variant's kernel == the literal Figure-6 oracle.

Each test drives one protocol class and replays the same requests through
:func:`tests.core.figure6.figure6` with the windows the variant promised
its clients; the per-slot schedules must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveDHBProtocol
from repro.core.bandwidth_limited import BandwidthLimitedDHB
from repro.core.dhb import DHBProtocol
from repro.core.interactive import InteractiveDHB

from .figure6 import assert_schedule_matches, figure6

n_segments = st.integers(1, 12)


@st.composite
def joins(draw, n):
    """Sorted ``(slot, first_segment)`` events; about half are fresh."""
    events = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.one_of(st.just(1), st.integers(1, n))),
            min_size=1,
            max_size=30,
        )
    )
    return sorted(events)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=n_segments)
def test_dhb_fresh_and_suffix_joins(data, n):
    periods = [1] + data.draw(st.lists(st.integers(1, 2 * n), min_size=n - 1, max_size=n - 1))
    events = data.draw(joins(n))
    protocol = DHBProtocol(periods=periods)
    for slot, first in events:
        protocol.handle_suffix_request(slot, first)
    expected = figure6(
        [(slot, {j: periods[j - 1] for j in range(first, n + 1)}) for slot, first in events]
    )
    assert_schedule_matches(protocol.schedule, expected)


@settings(max_examples=60, deadline=None)
@given(trace=st.lists(st.integers(0, 60), min_size=1, max_size=40).map(sorted), n=n_segments)
def test_adaptive_replays_client_slacks(trace, n):
    protocol = AdaptiveDHBProtocol(
        n, slack_ladder=((0.0, 0), (0.5, 3), (1.5, 7)), epoch_slots=3,
        alpha=0.5, track_clients=True,
    )
    for slot in trace:
        protocol.handle_request(slot)
    expected = figure6(
        [
            (slot, {j: j + slack for j in range(1, n + 1)})
            for slot, slack in zip(trace, protocol.client_slacks)
        ]
    )
    assert_schedule_matches(protocol.schedule, expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=n_segments)
def test_interactive_fresh_and_resumes(data, n):
    events = data.draw(joins(n))
    protocol = InteractiveDHB(n)
    for slot, start in events:
        protocol.handle_request(slot, start_segment=start)
    expected = figure6(
        [(slot, {j: j - start + 1 for j in range(start, n + 1)}) for slot, start in events]
    )
    assert_schedule_matches(protocol.schedule, expected)


@settings(max_examples=40, deadline=None)
@given(trace=st.lists(st.integers(0, 40), min_size=1, max_size=30).map(sorted), n=n_segments)
def test_capped_above_n_is_figure6(trace, n):
    """A cap above n never binds: a client takes at most n segments."""
    protocol = BandwidthLimitedDHB(n, client_cap=n + 1)
    for slot in trace:
        protocol.handle_request(slot)
    expected = figure6([(slot, {j: j for j in range(1, n + 1)}) for slot in trace])
    assert_schedule_matches(protocol.schedule, expected)
