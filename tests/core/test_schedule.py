"""Tests for repro.core.schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.core.heuristic import latest_min_load_chooser
from repro.core.schedule import _INITIAL_CAPACITY, SlotSchedule


def test_add_and_load():
    schedule = SlotSchedule(n_segments=5)
    schedule.add(3, 1)
    schedule.add(3, 2)
    schedule.add(4, 1)
    assert schedule.load(3) == 2
    assert schedule.load(4) == 1
    assert schedule.load(5) == 0
    assert schedule.total_instances == 3


def test_segments_in_preserves_order_and_copies():
    schedule = SlotSchedule(n_segments=5)
    schedule.add(2, 3)
    schedule.add(2, 1)
    listed = schedule.segments_in(2)
    assert listed == [3, 1]
    listed.append(99)
    assert schedule.segments_in(2) == [3, 1]


def test_next_transmission_tracks_latest():
    schedule = SlotSchedule(n_segments=5)
    assert schedule.next_transmission(1) is None
    schedule.add(2, 1)
    schedule.add(5, 1)
    assert schedule.next_transmission(1) == 5


def test_shareable_latest_slot_mode():
    schedule = SlotSchedule(n_segments=5)
    schedule.add(4, 2)
    assert schedule.shareable(2, 1, 5) == 4
    assert schedule.shareable(2, 4, 9) is None  # transmitting now, not future
    assert schedule.shareable(2, 1, 3) is None  # beyond the window
    assert schedule.shareable(3, 0, 100) is None
    # Admission windows are taken on trust: only S2 is already covered.
    assert schedule.unshared_segments(1, 1, [1] * 5) == [1, 3, 4, 5]
    assert schedule.unshared_segments(3, 1, [1] * 5) == [3, 4, 5]


def test_shareable_sorted_mode_sees_every_future_instance():
    schedule = SlotSchedule(n_segments=3, sorted_future=True)
    for slot in (9, 2, 5):
        schedule.add(slot, 1)
    schedule.place_latest_min(3, 4, 1)  # idle window: latest slot, 4
    # Shrunk windows still find the latest instance inside them.
    assert [schedule.shareable(1, 1, end) for end in (8, 4, 3)] == [5, 4, 2]
    assert schedule.shareable(1, 1, 100) == 9
    assert schedule.unshared_segments(1, 1, [2, 1, 1]) == [2, 3]
    assert schedule.unshared_segments(1, 1, [0, 1, 1]) == [1, 2, 3]
    # Queries prune what they have moved past.
    assert schedule.shareable(1, 5, 8) is None
    assert schedule.shareable(1, 5, 9) == 9
    assert schedule.next_transmission(1) == 9


def test_future_instances_lists_duplicates_in_segment_order():
    schedule = SlotSchedule(n_segments=3)
    for slot, segment in ((6, 3), (2, 1), (4, 2), (5, 2), (1, 3)):
        schedule.add(slot, segment)
    assert schedule.future_instances(2) == [(1, 2), (2, 4), (2, 5), (3, 6)]


def test_release_before_bounds_memory_but_keeps_index():
    schedule = SlotSchedule(n_segments=3)
    schedule.add(1, 1)
    schedule.add(10, 2)
    schedule.release_before(5)
    assert schedule.load(1) == 0  # released
    assert schedule.load(10) == 1
    # The next-transmission index survives GC.
    assert schedule.next_transmission(2) == 10
    assert schedule.occupied_slots() == [10]


def test_adding_into_released_slot_rejected():
    schedule = SlotSchedule(n_segments=3)
    schedule.release_before(10)
    with pytest.raises(SchedulingError):
        schedule.add(5, 1)


def test_release_is_idempotent():
    schedule = SlotSchedule(n_segments=3)
    schedule.add(8, 1)
    schedule.release_before(5)
    schedule.release_before(3)  # going backwards is a no-op
    assert schedule.load(8) == 1


def test_segment_bounds_checked():
    schedule = SlotSchedule(n_segments=3)
    with pytest.raises(SchedulingError):
        schedule.add(1, 0)
    with pytest.raises(SchedulingError):
        schedule.add(1, 4)
    with pytest.raises(SchedulingError):
        schedule.next_transmission(99)


def test_invalid_sizes():
    with pytest.raises(SchedulingError):
        SlotSchedule(n_segments=0)


def test_release_before_large_slot_jump():
    """Regression: a sparse trace may jump the floor forward by millions of
    slots; the release must pay for occupied slots, not for the gap."""
    schedule = SlotSchedule(n_segments=4)
    schedule.add(3, 1)
    schedule.add(10, 2)
    schedule.release_before(10**9)  # O(gap) would take minutes here
    assert schedule.occupied_slots() == []
    assert schedule.load(3) == 0
    assert schedule.load(10) == 0
    assert schedule.load(10**9 + 5) == 0
    # The floor moved: old slots are rejected, new ones work.
    with pytest.raises(SchedulingError):
        schedule.add(10, 1)
    schedule.add(10**9 + 2, 3)
    assert schedule.load(10**9 + 2) == 1
    assert schedule.next_transmission(3) == 10**9 + 2


def test_interleaved_adds_and_large_releases():
    schedule = SlotSchedule(n_segments=3)
    slot = 0
    for hop in (1, 7, 5_000, 123, 10**6, 42):
        schedule.add(slot + 2, 1)
        schedule.add(slot + 2, 3)
        assert schedule.load(slot + 2) == 2
        slot += hop
        schedule.release_before(slot)
    assert schedule.total_instances == 12


def place_and_check(schedule, first, last, segment=1):
    """``place_latest_min`` picks exactly the paper's reference slot."""
    expected = latest_min_load_chooser(schedule.load, first, last)
    assert schedule.place_latest_min(first, last, segment) == expected
    return expected


class TestChooseLatestMin:
    def test_matches_reference_chooser(self):
        schedule = SlotSchedule(n_segments=6)
        for slot, segment in ((1, 1), (2, 2), (2, 3), (4, 4)):
            schedule.add(slot, segment)
        for first, last in ((1, 4), (2, 2), (1, 6), (3, 5)):
            place_and_check(schedule, first, last)

    def test_large_window_uses_vector_path(self):
        schedule = SlotSchedule(n_segments=99)
        schedule.add(30, 1)
        schedule.add(77, 2)
        # Window of 99 slots (> the small-window threshold).
        place_and_check(schedule, 1, 99)
        place_and_check(schedule, 1, 99)

    def test_empty_window_rejected(self):
        schedule = SlotSchedule(n_segments=2)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(3, 2, 1)


class TestPlaceLatestMin:
    def test_places_where_choose_would(self):
        reference = SlotSchedule(n_segments=4)
        fused = SlotSchedule(n_segments=4)
        for slot, segment in ((1, 1), (3, 2), (3, 3)):
            reference.add(slot, segment)
            fused.add(slot, segment)
        expected = latest_min_load_chooser(reference.load, 1, 4)
        reference.add(expected, 4)
        chosen = fused.place_latest_min(1, 4, 4)
        assert chosen == expected
        for slot in range(6):
            assert fused.segments_in(slot) == reference.segments_in(slot)
        assert fused.next_transmission(4) == reference.next_transmission(4)

    def test_validates_like_add(self):
        schedule = SlotSchedule(n_segments=2)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(1, 3, 9)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(4, 3, 1)
        schedule.release_before(5)
        with pytest.raises(SchedulingError):
            schedule.place_latest_min(3, 8, 1)


@given(
    instances=st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 8)), max_size=60
    ),
    first=st.integers(0, 50),
    width=st.integers(0, 30),
)
def test_choose_latest_min_agrees_with_reference(instances, first, width):
    """Property: the fused placement == the paper's reference rule, always."""
    schedule = SlotSchedule(n_segments=8)
    for slot, segment in instances:
        schedule.add(slot, segment)
    place_and_check(schedule, first, first + width)


@given(
    instances=st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 5)), max_size=40
    ),
    floor=st.integers(0, 250),
)
def test_release_keeps_loads_consistent(instances, floor):
    """Property: after any release, loads match a dict-of-lists rebuild."""
    schedule = SlotSchedule(n_segments=5)
    expected = {}
    for slot, segment in instances:
        schedule.add(slot, segment)
        expected.setdefault(slot, []).append(segment)
    schedule.release_before(floor)
    for slot in range(260):
        want = len(expected.get(slot, ())) if slot >= floor else 0
        assert schedule.load(slot) == want


ORACLE_SEGMENTS = 6

#: One admission: a release floor step, the window start's offset past the
#: floor, whether to place one window at a time, and (width, segment) per
#: window.  Widths mix the reverse-scan and argmin paths; offsets and widths
#: push slots well past the initial load capacity.
oracle_admissions = st.lists(
    st.tuples(
        st.integers(0, _INITIAL_CAPACITY // 2),
        st.integers(0, _INITIAL_CAPACITY),
        st.booleans(),
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 20), st.integers(0, 2 * _INITIAL_CAPACITY)),
                st.integers(1, ORACLE_SEGMENTS),
            ),
            min_size=1,
            max_size=8,
        ),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("sorted_future", [False, True])
@settings(max_examples=60, deadline=None)
@given(
    prior=st.lists(
        st.tuples(st.integers(0, 3 * _INITIAL_CAPACITY), st.integers(1, ORACLE_SEGMENTS)),
        max_size=40,
    ),
    weights=st.none() | st.lists(
        st.integers(0, 9).map(float), min_size=ORACLE_SEGMENTS, max_size=ORACLE_SEGMENTS
    ),
    admissions=oracle_admissions,
)
def test_placements_match_chooser_plus_add(sorted_future, prior, weights, admissions):
    """Property: every placement, one window or a batch, leaves the schedule
    exactly as the paper's chooser followed by :meth:`add` on a twin."""
    fused = SlotSchedule(ORACLE_SEGMENTS, weights, sorted_future=sorted_future)
    twin = SlotSchedule(ORACLE_SEGMENTS, weights, sorted_future=sorted_future)
    fused.placement_log, twin.placement_log = [], []
    for slot, segment in prior:
        fused.add(slot, segment)
        twin.add(slot, segment)
    floor = 0
    end = max([slot for slot, _ in prior], default=0) + 1
    for step, offset, one_at_a_time, windows in admissions:
        floor += step
        fused.release_before(floor)
        twin.release_before(floor)
        first = floor + offset
        last_slots = [first + width for width, _ in windows]
        segments = [segment for _, segment in windows]
        end = max(end, max(last_slots) + 1)
        expected = []
        for last, segment in zip(last_slots, segments):
            expected.append(latest_min_load_chooser(twin.load, first, last))
            twin.add(expected[-1], segment)
        if one_at_a_time:
            chosen = [
                fused.place_latest_min(first, last, segment)
                for last, segment in zip(last_slots, segments)
            ]
            assert chosen == expected
        else:
            last = fused.place_latest_min_many(first, last_slots, segments)
            assert last == expected[-1]
    assert fused.loads(0, end) == twin.loads(0, end)
    assert fused.weights(0, end) == twin.weights(0, end)
    for slot in range(end):
        assert fused.segments_in(slot) == twin.segments_in(slot)
    assert fused.next_transmissions.tolist() == twin.next_transmissions.tolist()
    assert fused.future_instances(floor) == twin.future_instances(floor)
    assert fused.placement_log == twin.placement_log
    assert fused.total_instances == twin.total_instances
    for segment in range(1, ORACLE_SEGMENTS + 1):
        for window_end in range(floor, end):
            assert fused.shareable(segment, floor - 1, window_end) == twin.shareable(
                segment, floor - 1, window_end
            )


class TestWeights:
    def test_default_weights_are_unit(self):
        schedule = SlotSchedule(n_segments=3)
        schedule.add(1, 2)
        schedule.add(1, 3)
        assert schedule.weight(1) == pytest.approx(2.0)

    def test_custom_weights_accumulate(self):
        schedule = SlotSchedule(n_segments=3, segment_weights=[10.0, 20.0, 30.0])
        schedule.add(5, 1)
        schedule.add(5, 3)
        assert schedule.weight(5) == pytest.approx(40.0)
        assert schedule.load(5) == 2

    def test_weight_gc(self):
        schedule = SlotSchedule(n_segments=2, segment_weights=[5.0, 5.0])
        schedule.add(1, 1)
        schedule.release_before(2)
        assert schedule.weight(1) == 0.0

    def test_compaction_moves_weights_with_loads(self):
        schedule = SlotSchedule(n_segments=2, segment_weights=[3.0, 5.0])
        expected = {}
        for floor in list(range(0, 3000, 7)) + [10**6]:
            segment = 1 + floor % 2
            schedule.add(floor + 20, segment)
            expected[floor + 20] = expected.get(floor + 20, 0.0) + [3.0, 5.0][segment - 1]
            schedule.release_before(floor)
            for slot in range(floor, floor + 30):
                assert schedule.weight(slot) == expected.get(slot, 0.0)
                assert schedule.load(slot) == (slot in expected)

    def test_weight_validation(self):
        with pytest.raises(SchedulingError):
            SlotSchedule(n_segments=2, segment_weights=[1.0])
        with pytest.raises(SchedulingError):
            SlotSchedule(n_segments=2, segment_weights=[1.0, -1.0])
