"""``SlotSchedule.admit`` == Figure 6 handled one segment at a time.

The fused entry answers the sharing test and places the unshared segments
in one loop, trusting the window ends in latest-slot mode and taking an
idle last slot without a scan.  Each property here replays the same calls
through :class:`tests.core.figure6.Figure6` and compares everything the
schedule exposes: loads, weights, per-slot lists in add order,
``next_transmissions``, ``total_instances`` and ``placement_log``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import _SMALL_WINDOW, SlotSchedule
from repro.core.variants import dhb_c
from repro.video.matrix import matrix_like_video

from .figure6 import Figure6


def replay(n, calls, weights=None, sorted_future=False, prior=()):
    """Run ``(slot, first_segment, windows, share)`` calls through the kernel
    and the oracle; assert they agree on every observable."""
    schedule = SlotSchedule(n, weights, sorted_future=sorted_future)
    oracle = Figure6()
    for slot, segment in prior:
        schedule.add(slot, segment)
        oracle.add(slot, segment)
    schedule.placement_log = []
    for slot, first_segment, windows, share in calls:
        before = len(oracle.instances)
        for j, width in enumerate(windows, first_segment):
            oracle.share_or_place(slot, j, width, share)
        placed = oracle.instances[before:]
        assert schedule.admit(slot, first_segment, windows, share) == (
            placed[-1][0] if placed else None
        )
    end = max([slot for slot, _ in oracle.instances], default=0) + 2
    per_slot = {}
    for slot, segment in oracle.instances:
        per_slot.setdefault(slot, []).append(segment)
    unit = [1.0] * n if weights is None else weights
    expected_weights = []
    for slot in range(end):
        total = 0.0
        for segment in per_slot.get(slot, ()):
            total += unit[segment - 1]
        expected_weights.append(total)
    assert schedule.loads(0, end) == [oracle.loads[slot] for slot in range(end)]
    assert schedule.weights(0, end) == expected_weights
    for slot in range(end):
        assert schedule.segments_in(slot) == per_slot.get(slot, [])
    assert schedule.next_transmissions.tolist() == [
        max(oracle.slots_of[j], default=-1) for j in range(1, n + 1)
    ]
    assert schedule.total_instances == len(oracle.instances)
    assert schedule.placement_log == [slot for slot, _ in oracle.instances[len(prior):]]
    return oracle


@st.composite
def fixed_windows(draw, max_n=24):
    """A period vector (windows never shrink: latest-slot mode) and
    non-decreasing fresh or suffix joins against it."""
    n = draw(st.integers(1, max_n))
    periods = [1] + draw(st.lists(st.integers(1, 2 * n), min_size=n - 1, max_size=n - 1))
    share = draw(st.booleans()) or draw(st.booleans())
    joins = sorted(
        draw(
            st.lists(
                st.tuples(st.integers(0, 50), st.one_of(st.just(1), st.integers(1, n))),
                min_size=1,
                max_size=25,
            )
        )
    )
    calls = [(slot, first, periods[first - 1 :], share) for slot, first in joins]
    return n, periods, calls


@settings(max_examples=80, deadline=None)
@given(case=fixed_windows(), weighted=st.booleans(), data=st.data())
def test_latest_slot_mode_fresh_and_suffix_joins(case, weighted, data):
    n, _, calls = case
    weights = (
        data.draw(st.lists(st.integers(0, 9).map(float), min_size=n, max_size=n))
        if weighted
        else None
    )
    replay(n, calls, weights)


@settings(max_examples=25, deadline=None)
@given(
    joins=st.lists(
        st.tuples(st.integers(0, 80), st.sampled_from([1, 1, 2, 40, 100])),
        min_size=1,
        max_size=10,
    ).map(sorted)
)
def test_weighted_figure9_variant(joins):
    protocol = dhb_c(matrix_like_video(), 60.0).build_protocol()
    periods = protocol.periods.as_list()
    weights = protocol.schedule._weights
    calls = [(slot, first, periods[first - 1 :], True) for slot, first in joins]
    replay(protocol.n_segments, calls, weights)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20),
    requests=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 20)), min_size=1, max_size=20
    ),
)
def test_sorted_mode_adaptive_windows(n, requests):
    """Every request adds its own slack, which may drop under instances
    already scheduled."""
    slot = 0
    calls = []
    for step, slack in requests:
        slot += step
        calls.append((slot, 1, [j + slack for j in range(1, n + 1)], True))
    replay(n, calls, sorted_future=True)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20),
    requests=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 20)), min_size=1, max_size=20
    ),
)
def test_sorted_mode_interactive_windows(n, requests):
    """Resumes need ``S_j`` within ``j - start + 1`` slots, tighter than a
    fresh request's ``j``."""
    slot = 0
    calls = []
    for step, start in requests:
        slot += step
        start = min(start, n)
        calls.append((slot, start, [j - start + 1 for j in range(start, n + 1)], True))
    replay(n, calls, sorted_future=True)


@settings(max_examples=40, deadline=None)
@given(
    case=fixed_windows(max_n=12),
    sorted_future=st.booleans(),
    prior=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12)), max_size=30),
)
def test_admissions_over_prior_instances(case, sorted_future, prior):
    n, periods, calls = case
    prior = [(slot, min(segment, n)) for slot, segment in prior]
    if not sorted_future:
        # Latest-slot mode trusts the window ends: no prior instance may
        # lie past its segment's window for the first request.
        prior = [(slot, j) for slot, j in prior if slot <= calls[0][0] + periods[j - 1]]
    replay(n, calls, sorted_future=sorted_future, prior=prior)


#: Loads of slots 1, 2, ... (on a segment no request needs) before one
#: request of slot 0 for S1 .. S40 with T[j] = j: windows on both sides of
#: the small-window threshold, and last slots idle, loaded, or either.
LAST_SLOT_CASES = {
    "idle": ([], {0}),
    "loaded": ([1] * 45, {1}),
    "dip-before-the-end": ([2] * 10 + [1] + [2] * 34, {1}),
    "idle-gaps": ([1, 0] * 22, {0, 1}),
}


@pytest.mark.parametrize("sorted_future", [False, True])
@pytest.mark.parametrize("case", sorted(LAST_SLOT_CASES))
def test_windows_whose_last_slot_is_idle_or_loaded(case, sorted_future):
    n = 40
    loads, last_slot_states = LAST_SLOT_CASES[case]
    prior = [(slot, n + 1) for slot, load in enumerate(loads, 1) for _ in range(load)]
    calls = [(0, 1, list(range(1, n + 1)), True)]
    oracle = replay(n + 1, calls, None, sorted_future, prior)
    placed = oracle.instances[len(prior):]
    assert [segment for _, segment in placed] == list(range(1, n + 1))
    # Whether S_j's last slot, j, was idle (0) or loaded (1) when S_j came.
    states = {
        int(any(slot == j for slot, _ in oracle.instances[: len(prior) + t]))
        for t, (_, j) in enumerate(placed)
    }
    assert states == last_slot_states
    assert n > _SMALL_WINDOW
