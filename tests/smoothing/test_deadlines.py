"""Tests for repro.smoothing.deadlines."""

from hypothesis import given
from hypothesis import strategies as st

from repro.smoothing.deadlines import (
    chunk_deadline_slots,
    delay_gained,
    maximum_periods,
)
from repro.smoothing.packing import pack_video
from repro.video.model import CBRVideo
from repro.video.vbr import VBRVideo


def test_cbr_without_workahead_gives_periods_one_to_n():
    video = CBRVideo(duration=100.0, rate=1.0)
    packed = pack_video(video, slot_duration=10.0, rate=1.0)
    assert maximum_periods(packed) == list(range(1, packed.n_segments + 1))


def test_first_deadline_is_always_one(tiny_vbr):
    packed = pack_video(tiny_vbr, slot_duration=3.0)
    assert chunk_deadline_slots(packed)[0] == 1


def test_deadlines_monotone(tiny_vbr):
    packed = pack_video(tiny_vbr, slot_duration=2.0)
    deadlines = chunk_deadline_slots(packed)
    assert all(b >= a for a, b in zip(deadlines, deadlines[1:]))


def test_quiet_opening_relaxes_early_periods():
    # First minute nearly idle: segment 2 can be delayed well beyond slot 2.
    video = VBRVideo([5.0] * 4 + [300.0] * 8)
    packed = pack_video(video, slot_duration=1.0)
    periods = maximum_periods(packed)
    assert periods[1] > 2


def test_deadline_feasibility_against_consumption(tiny_vbr):
    # Receiving chunk j at the end of relative slot T[j] must precede the
    # playout time of its first byte (plus the one-slot startup offset).
    d = 2.0
    packed = pack_video(tiny_vbr, slot_duration=d)
    for index, period in enumerate(maximum_periods(packed)):
        first_byte_needed = packed.first_byte_playout_times[index] + d
        assert period * d <= first_byte_needed + 1e-6


def test_delay_gained(tiny_vbr):
    packed = pack_video(tiny_vbr, slot_duration=2.0)
    gains = delay_gained(packed)
    periods = maximum_periods(packed)
    assert gains == [t - (j + 1) for j, t in enumerate(periods)]


@given(
    trace=st.lists(st.floats(1.0, 500.0), min_size=4, max_size=40),
    d=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_periods_bounded_by_workahead_property(trace, d):
    """T[j] >= j - 1 always: work-ahead feasibility limits how early a
    chunk's data can be needed (see the derivation in the module docs)."""
    video = VBRVideo(trace)
    packed = pack_video(video, slot_duration=d)
    for index, period in enumerate(maximum_periods(packed)):
        assert period >= max(1, index)  # index = (j-1), so period >= j-1
