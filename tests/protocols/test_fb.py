"""Tests for repro.protocols.fb — Fast Broadcasting (paper Figure 1)."""

import pytest

from repro.errors import ConfigurationError
from repro.protocols.base import verify_static_map
from repro.protocols.fb import (
    FastBroadcasting,
    fb_map,
    fb_segments_for_streams,
    fb_streams_for_segments,
)

FIGURE_1 = """\
Stream 1  S1 S1 S1 S1
Stream 2  S2 S3 S2 S3
Stream 3  S4 S5 S6 S7"""


def test_figure_1_reproduced_verbatim():
    assert fb_map(3).render(4) == FIGURE_1


def test_capacity_formula():
    assert [fb_segments_for_streams(k) for k in range(1, 6)] == [1, 3, 7, 15, 31]


def test_streams_for_segments():
    assert fb_streams_for_segments(7) == 3
    assert fb_streams_for_segments(8) == 4
    assert fb_streams_for_segments(99) == 7
    assert fb_streams_for_segments(1) == 1


def stream_trains(static_map, stream):
    """``{segment: (period, offset)}`` of the 0-based ``stream``'s trains."""
    return {
        segment: (train.period, train.offset)
        for segment, train in enumerate(static_map.trains, start=1)
        if train.stream == stream
    }


def test_stream_s_carries_its_dyadic_range():
    m = fb_map(4)
    assert stream_trains(m, 3) == {8 + i: (8, i) for i in range(8)}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_delivery_guarantee(k):
    verify_static_map(fb_map(k), exhaustive_arrivals=16 if k <= 4 else 0)


def test_truncated_last_stream():
    m = fb_map(7, n_segments=99)
    assert m.n_segments == 99
    assert stream_trains(m, 6) == {64 + i: (36, i) for i in range(36)}
    verify_static_map(m)


def test_truncation_bounds():
    with pytest.raises(ConfigurationError):
        fb_map(3, n_segments=8)  # above capacity
    with pytest.raises(ConfigurationError):
        fb_map(3, n_segments=3)  # below what 3 streams imply


def test_protocol_interface():
    fb = FastBroadcasting(n_streams=3)
    assert (fb.n_segments, fb.n_streams) == (7, 3)
    assert fb.slot_load(12345) == 3


def test_for_segments_constructor():
    fb = FastBroadcasting(n_segments=99)
    assert fb.n_streams == 7
    assert fb.n_segments == 99


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        FastBroadcasting()
    with pytest.raises(ConfigurationError):
        fb_segments_for_streams(0)
    with pytest.raises(ConfigurationError):
        fb_streams_for_segments(0)
