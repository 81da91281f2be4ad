"""Tests for repro.protocols.npb — New Pagoda Broadcasting (paper Figure 2)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.trace import MemoryTraceSink
from repro.protocols.base import verify_static_map
from repro.protocols.npb import (
    NewPagodaBroadcasting,
    pagoda_capacity,
    pagoda_map,
    pagoda_streams_for_segments,
)

FIGURE_2 = """\
Stream 1  S1 S1 S1 S1 S1 S1
Stream 2  S2 S4 S2 S5 S2 S4
Stream 3  S3 S6 S8 S3 S7 S9"""


def test_figure_2_reproduced_verbatim():
    """The paper's NPB mapping, bit for bit."""
    assert pagoda_map(3).render(6) == FIGURE_2


def test_nine_segments_in_three_streams():
    """"The NPB protocol can pack nine segments into three streams while
    the FB protocol can only pack seven."."""
    assert pagoda_capacity(3) == 9


def test_capacity_series_beats_fb():
    from repro.protocols.fb import fb_segments_for_streams

    for k in range(3, 7):
        assert pagoda_capacity(k) > fb_segments_for_streams(k)


def test_capacity_series_pinned():
    """Regression pin of the greedy packer's capacities."""
    assert [pagoda_capacity(k) for k in range(1, 7)] == [1, 3, 9, 25, 73, 203]


def test_99_segments_fit_in_six_streams():
    """The Figures 7/8 configuration: 99 segments, six streams."""
    assert pagoda_streams_for_segments(99) == 6


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_delivery_guarantee_full_capacity(k):
    verify_static_map(pagoda_map(k), exhaustive_arrivals=20 if k <= 3 else 0)


def test_delivery_guarantee_partial():
    verify_static_map(pagoda_map(6, n_segments=99))


def test_trains_partition_slots():
    # Every slot of every stream is either idle or carries one segment,
    # and each segment appears with an even period <= its index.
    m = pagoda_map(4)
    for segment in range(1, m.n_segments + 1):
        assert m.period_of(segment) <= segment


def test_requesting_beyond_capacity_rejected():
    with pytest.raises(ConfigurationError):
        pagoda_map(3, n_segments=10)


def test_protocol_interface():
    npb = NewPagodaBroadcasting(n_streams=3)
    assert npb.n_segments == 9
    assert npb.slot_load(99) == 3


def test_protocol_by_segment_count():
    npb = NewPagodaBroadcasting(n_segments=99)
    assert npb.n_allocated_streams == 6
    assert npb.slot_load(0) == 6  # allocated bandwidth, idle trains included


def test_idle_trains_transmit_no_segment():
    """A partial map's idle train slots send nothing — no phantom ``S0`` —
    while the allocated bandwidth stays at six streams."""
    from repro.sim.slotted import SlottedSimulation

    npb = NewPagodaBroadcasting(n_segments=99)
    sink = MemoryTraceSink()
    hyperperiod = 27_720  # lcm of the six streams' train periods
    SlottedSimulation(
        npb, slot_duration=1.0, horizon_slots=hyperperiod, trace=sink
    ).run([0.5, 100.5])
    assert len(sink.records) == hyperperiod
    assert all(0 not in record["instances"] for record in sink.records)
    assert {record["streams"] for record in sink.records} == {6}
    transmitted = {s for record in sink.records for s in record["instances"]}
    assert transmitted == set(range(1, 100))


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        NewPagodaBroadcasting()
    with pytest.raises(ConfigurationError):
        pagoda_capacity(0)
    with pytest.raises(ConfigurationError):
        pagoda_streams_for_segments(0)
