"""Tests for repro.protocols.dsb — dynamic skyscraper broadcasting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.protocols.dsb import DynamicSkyscraperProtocol
from repro.protocols.sb import sb_streams_for_segments, skyscraper_widths
from repro.protocols.ud import UniversalDistributionProtocol
from repro.sim.slotted import SlottedSimulation
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals

from .dsb_reference import ReferenceDSB


def test_idle_system_costs_nothing():
    dsb = DynamicSkyscraperProtocol(n_streams=4)
    assert all(dsb.slot_load(s) == 0 for s in range(30))


def test_one_request_marks_one_cycle_per_group():
    dsb = DynamicSkyscraperProtocol(n_streams=3)  # widths 1, 2, 2
    dsb.handle_request(slot=0)
    # S1's slot, then one W=2 cycle on each of streams 2 and 3.
    total = sum(dsb.slot_load(s) for s in range(1, 10))
    assert total == 1 + 2 + 2


def test_marking_is_idempotent():
    dsb = DynamicSkyscraperProtocol(n_streams=3)
    dsb.handle_request(slot=0)
    loads = [dsb.slot_load(s) for s in range(10)]
    dsb.handle_request(slot=0)
    assert [dsb.slot_load(s) for s in range(10)] == loads


def test_cycles_meet_sb_deadlines():
    """Each marked cycle delivers group g's segments by their playout slots
    (the same latest-cycle rule the static SB client uses)."""
    dsb = DynamicSkyscraperProtocol(n_streams=5)
    for arrival in range(20):
        first = 1
        for width in dsb.widths:
            cycle = ((arrival + first) // width) * width
            # Segment first+m arrives during cycle+m <= arrival+first+m, and
            # reception starts after the arrival slot.
            assert cycle > arrival
            assert cycle <= arrival + first
            first += width


def test_saturation_reverts_to_sb():
    dsb = DynamicSkyscraperProtocol(n_segments=99)
    k = sb_streams_for_segments(99)
    sim = SlottedSimulation(dsb, 1.0, 400, warmup_slots=100)
    times = DeterministicArrivals(interval=0.5).generate(400.0, np.random.default_rng(0))
    result = sim.run(times)
    assert result.mean_streams == pytest.approx(float(k))


def test_needs_more_bandwidth_than_ud_at_saturation():
    """"it also requires a higher server bandwidth than the UD protocol"."""
    def saturated(protocol):
        sim = SlottedSimulation(protocol, 1.0, 400, warmup_slots=100)
        times = DeterministicArrivals(interval=0.5).generate(
            400.0, np.random.default_rng(0)
        )
        return sim.run(times).mean_streams

    dsb_mean = saturated(DynamicSkyscraperProtocol(n_segments=99))
    ud_mean = saturated(UniversalDistributionProtocol(n_segments=99))
    assert dsb_mean > ud_mean


def test_low_rate_far_below_saturation(rng):
    dsb = DynamicSkyscraperProtocol(n_segments=99)
    d = 7200.0 / 99
    sim = SlottedSimulation(dsb, d, 2000, warmup_slots=200)
    times = PoissonArrivals(3.0).generate(2000 * d, rng)
    result = sim.run(times)
    assert result.mean_streams < 0.5 * dsb.n_streams


def test_release_before_prunes():
    dsb = DynamicSkyscraperProtocol(n_streams=3)
    dsb.handle_request(slot=0)
    dsb.release_before(50)
    assert all(dsb.slot_instances(s) == [] for s in range(60))
    assert dsb.slot_loads(0, 60) == [0] * 60
    dsb.handle_request(slot=50)
    assert sum(dsb.slot_load(s) for s in range(50, 60)) > 0


@settings(max_examples=100, deadline=None)
@given(
    n_streams=st.integers(1, 8),
    width_cap=st.none() | st.integers(1, 29),
    arrivals=st.lists(st.integers(0, 600), max_size=200),
    release_every=st.integers(1, 50),
)
def test_matches_cycle_set_reference(n_streams, width_cap, arrivals, release_every):
    """Loads and instances equal the per-stream cycle-set model's, across
    releases, for any stream count and width cap."""
    dsb = DynamicSkyscraperProtocol(n_streams=n_streams, width_cap=width_cap)
    reference = ReferenceDSB(skyscraper_widths(n_streams, width_cap))
    assert dsb.widths == reference.widths
    floor = 0
    for count, slot in enumerate(sorted(arrivals)):
        if count % release_every == 0:
            floor = slot
            dsb.release_before(floor)
            reference.release_before(floor)
        dsb.handle_request(slot)
        reference.handle_request(slot)
    stop = floor + 700
    assert dsb.slot_loads(floor, stop) == [
        len(reference.slot_instances(s)) for s in range(floor, stop)
    ]
    for s in range(floor, stop):
        assert sorted(dsb.slot_instances(s)) == sorted(reference.slot_instances(s))


def test_validation():
    with pytest.raises(ConfigurationError):
        DynamicSkyscraperProtocol()
