"""Tests for repro.protocols.base — static maps and their verification."""

import pytest

from repro.errors import SchedulingError
from repro.protocols.base import (
    StaticBroadcastProtocol,
    StaticMap,
    Train,
    verify_static_map,
)


def simple_map():
    # Stream 1 carries S1 every slot; stream 2 alternates S2 and S3.
    return StaticMap(
        {Train(0, 1, 0): 1, Train(1, 2, 0): 2, Train(1, 2, 1): 3}, n_streams=2
    )


def test_segment_at_cycles():
    m = simple_map()
    assert [m.segment_at(1, s) for s in range(4)] == [2, 3, 2, 3]


def test_segments_in_slot():
    assert simple_map().segments_in_slot(1) == [1, 3]


def test_period_of():
    m = simple_map()
    assert m.period_of(1) == 1
    assert m.period_of(2) == 2
    assert m.period_of(3) == 2


def test_period_of_missing_segment():
    with pytest.raises(SchedulingError):
        simple_map().period_of(9)


@pytest.mark.parametrize(
    "trains, reason",
    [
        # S2 (slots 0, 2, 4, ...) and S3 (slots 0, 3, 6, ...) meet in slot 0.
        ({Train(0, 1, 0): 1, Train(1, 2, 0): 2, Train(1, 3, 0): 3}, "collides"),
        # Overlap only modulo gcd(4, 6) = 2: slots 1, 5, 9 and 3, 9, 15.
        ({Train(0, 1, 0): 1, Train(1, 4, 1): 2, Train(1, 6, 3): 3}, "collides"),
        ({Train(0, 1, 0): 1, Train(1, 2, 0): 2, Train(1, 2, 1): 2}, "two trains"),
        ({Train(0, 1, 0): 1, Train(1, 2, 2): 2, Train(1, 2, 1): 3}, "invalid"),
        ({Train(0, 1, 0): 1, Train(1, 2, -1): 2, Train(1, 2, 1): 3}, "invalid"),
        ({Train(0, 1, 0): 1, Train(2, 2, 0): 2, Train(1, 2, 1): 3}, "invalid"),
        ({Train(0, 1, 0): 1, Train(-1, 2, 0): 2, Train(1, 2, 1): 3}, "invalid"),
    ],
    ids=[
        "overlapping-trains",
        "overlap-mod-gcd",
        "segment-on-two-trains",
        "offset-at-period",
        "negative-offset",
        "stream-out-of-range",
        "negative-stream",
    ],
)
def test_malformed_trains_rejected_at_construction(trains, reason):
    with pytest.raises(SchedulingError, match=reason):
        StaticMap(trains, n_streams=2)


def test_disjoint_trains_of_mixed_periods_accepted():
    # Periods 2 and 4 share a stream without meeting: slots 0, 2, 4, ...
    # and 1, 5, 9, ... and 3, 7, 11, ...
    mixed = StaticMap(
        {Train(0, 2, 0): 1, Train(0, 4, 1): 2, Train(0, 4, 3): 3}, n_streams=1
    )
    assert [mixed.segment_at(0, s) for s in range(8)] == [1, 2, 1, 3] * 2


def test_render():
    text = simple_map().render(4)
    assert "Stream 1  S1 S1 S1 S1" in text
    assert "Stream 2  S2 S3 S2 S3" in text


def test_verify_accepts_valid_map():
    verify_static_map(simple_map(), exhaustive_arrivals=10)


def test_verify_rejects_late_segment():
    # S2 every 3 slots violates its 2-slot deadline.
    bad = StaticMap(
        {Train(0, 1, 0): 1, Train(1, 3, 0): 2, Train(1, 3, 1): 3}, n_streams=2
    )
    with pytest.raises(SchedulingError):
        verify_static_map(bad)


def test_verify_rejects_missing_segment():
    # S2 rides no train: the map is rejected as soon as it is built.
    with pytest.raises(SchedulingError, match=r"never broadcasts segments \[2\]"):
        verify_static_map(
            StaticMap({Train(0, 1, 0): 1, Train(1, 1, 0): 3}, n_streams=2)
        )


def test_exhaustive_check_agrees_with_period_check():
    # A map that passes the period rule also passes the sliding window.
    verify_static_map(simple_map(), exhaustive_arrivals=24)


class TestStaticBroadcastProtocol:
    def test_constant_load(self):
        protocol = StaticBroadcastProtocol(simple_map())
        protocol.handle_request(slot=3)
        assert protocol.slot_load(0) == 2
        assert protocol.slot_load(10_000) == 2
        assert protocol.requests_admitted == 1
        assert protocol.n_segments == 3
        assert protocol.n_streams == 2

    def test_release_is_noop(self):
        protocol = StaticBroadcastProtocol(simple_map())
        protocol.release_before(100)
        assert protocol.slot_load(5) == 2
