"""Tests for repro.video.segmentation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import VideoModelError
from repro.video.model import CBRVideo
from repro.video.segmentation import segment_video, segments_for_wait
from repro.video.vbr import VBRVideo


def test_cbr_segments_equal(tiny_vbr):
    seg = segment_video(CBRVideo(duration=100.0, rate=2.0), 4)
    assert seg.segment_bytes == pytest.approx([50.0] * 4)
    assert seg.segment_duration == 25.0


def test_vbr_segment_bytes_sum_to_total(tiny_vbr):
    seg = segment_video(tiny_vbr, 5)
    assert sum(seg.segment_bytes) == pytest.approx(tiny_vbr.total_bytes)


def test_fractional_boundaries_handled():
    video = VBRVideo([100.0, 100.0, 100.0])
    seg = segment_video(video, 2)  # boundaries at 1.5 s
    assert seg.segment_bytes == pytest.approx([150.0, 150.0])


def test_max_segment_rate(tiny_vbr):
    seg = segment_video(tiny_vbr, 4)
    expected_max = max(seg.segment_bytes) / seg.segment_duration
    assert seg.max_segment_rate == pytest.approx(expected_max)
    # DHB-b rate sits between the average and the 1-second peak.
    assert tiny_vbr.average_bandwidth <= seg.max_segment_rate
    assert seg.max_segment_rate <= tiny_vbr.peak_bandwidth()


def test_segments_for_wait_paper_example():
    # 8170-second video, one-minute wait -> 137 segments (Section 4).
    assert segments_for_wait(8170.0, 60.0) == 137


def test_segments_for_wait_exact_division():
    assert segments_for_wait(7200.0, 72.0) == 100


def test_segments_for_wait_validation():
    with pytest.raises(VideoModelError):
        segments_for_wait(0.0, 60.0)
    with pytest.raises(VideoModelError):
        segments_for_wait(100.0, 0.0)


def test_segment_video_validation(tiny_vbr):
    with pytest.raises(VideoModelError):
        segment_video(tiny_vbr, 0)


@given(n=st.integers(1, 30))
def test_waiting_time_bound_holds(n):
    video = CBRVideo(duration=300.0)
    seg = segment_video(video, n)
    # Segment duration is the max wait; n segments cover the whole video.
    assert seg.segment_duration * n == pytest.approx(video.duration)
    assert sum(seg.segment_bytes) == pytest.approx(video.total_bytes)
