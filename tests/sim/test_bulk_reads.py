"""Bulk slot reads equal per-slot reads, for every slotted protocol.

The slotted driver reads each run of final loads with one
``slot_loads(start, stop)`` / ``slot_weights(start, stop)`` call.  The
contract is that each answers exactly what ``slot_load`` / ``slot_weight``
answer slot by slot — below the release floor, inside the live span and
past the end of any backing array alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveDHBProtocol
from repro.core.bandwidth_limited import BandwidthLimitedDHB
from repro.core.dhb import DHBProtocol
from repro.core.interactive import InteractiveDHB
from repro.core.schedule import SlotSchedule
from repro.protocols.dnpb import DynamicPagodaProtocol
from repro.protocols.dsb import DynamicSkyscraperProtocol
from repro.protocols.fb import FastBroadcasting
from repro.protocols.npb import NewPagodaBroadcasting
from repro.protocols.sb import SkyscraperBroadcasting
from repro.protocols.ud import UniversalDistributionProtocol

PROTOCOLS = {
    "dhb": lambda: DHBProtocol(n_segments=12),
    "dhb-weighted": lambda: DHBProtocol(
        n_segments=6, segment_weights=[0.5, 1.25, 3.0, 0.0, 2.5, 7.75]
    ),
    "adaptive": lambda: AdaptiveDHBProtocol(12, ((0.0, 0), (0.5, 3)), epoch_slots=2),
    "interactive": lambda: InteractiveDHB(n_segments=12),
    "bandwidth-limited": lambda: BandwidthLimitedDHB(n_segments=12, client_cap=2),
    "ud": lambda: UniversalDistributionProtocol(n_segments=12),
    "dnpb": lambda: DynamicPagodaProtocol(n_segments=12),
    "dsb": lambda: DynamicSkyscraperProtocol(n_segments=12),
    "fb": lambda: FastBroadcasting(n_segments=12),
    "sb": lambda: SkyscraperBroadcasting(n_segments=12),
    "npb-full": lambda: NewPagodaBroadcasting(n_streams=3),
    "npb-partial": lambda: NewPagodaBroadcasting(n_streams=3, n_segments=7),
}

# (slot step, batch size, release up to the batch slot?, read start relative
# to the release floor, read length).  Reads reach 600 slots past the floor,
# beyond a fresh schedule's 256-cell load array.
steps = st.lists(
    st.tuples(
        st.integers(0, 90),
        st.integers(1, 4),
        st.booleans(),
        st.integers(-8, 40),
        st.integers(0, 600),
    ),
    min_size=1,
    max_size=8,
)


def assert_bulk_matches(protocol, start, stop):
    slots = range(start, stop)
    assert protocol.slot_loads(start, stop) == [protocol.slot_load(s) for s in slots]
    assert protocol.slot_weights(start, stop) == [
        protocol.slot_weight(s) for s in slots
    ]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@settings(max_examples=20, deadline=None)
@given(steps=steps)
def test_bulk_reads_equal_per_slot_reads(name, steps):
    protocol = PROTOCOLS[name]()
    slot = floor = 0
    for step, count, release, offset, length in steps:
        slot += step
        protocol.handle_batch(slot, count)
        if release:
            protocol.release_before(slot)
            floor = slot
        start = max(floor + offset, 0)
        assert_bulk_matches(protocol, start, start + length)
    assert_bulk_matches(protocol, floor, floor)  # an empty range is empty


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_bulk_read_types_match_per_slot_reads(name):
    protocol = PROTOCOLS[name]()
    protocol.handle_batch(0, 1)
    loads, weights = protocol.slot_loads(0, 30), protocol.slot_weights(0, 30)
    assert {type(load) for load in loads} == {int}
    assert {type(weight) for weight in weights} == {float}


class TestSlotScheduleSpans:
    """``loads``/``weights`` straddle the floor and the backing array's end."""

    def slid_schedule(self, weights=None):
        schedule = SlotSchedule(4, segment_weights=weights)
        for slot, segment in [(5, 1), (250, 2), (255, 3), (255, 4), (300, 1)]:
            schedule.add(slot, segment)
        # Past half the capacity: the load array slides to start at 280.
        schedule.release_before(280)
        schedule.add(700, 2)  # grows the slid array
        assert schedule._base == 280
        return schedule

    @pytest.mark.parametrize("start, stop", [
        (0, 0), (0, 10), (250, 320), (279, 281), (280, 300), (290, 1200),
        (600, 1300), (2000, 2010), (5, 3),
    ])
    def test_unit_weights(self, start, stop):
        schedule = self.slid_schedule()
        slots = range(start, stop)
        assert schedule.loads(start, stop) == [schedule.load(s) for s in slots]
        assert schedule.weights(start, stop) == [schedule.weight(s) for s in slots]

    @pytest.mark.parametrize("start, stop", [(250, 320), (290, 1200), (700, 701)])
    def test_byte_weights(self, start, stop):
        schedule = self.slid_schedule(weights=[1.5, 2.25, 0.0, 4.0])
        slots = range(start, stop)
        assert schedule.loads(start, stop) == [schedule.load(s) for s in slots]
        assert schedule.weights(start, stop) == [schedule.weight(s) for s in slots]

    def test_released_slots_read_zero(self):
        schedule = self.slid_schedule()
        assert schedule.loads(250, 256) == [0] * 6  # slot 255 held 2 once
        assert schedule.loads(299, 302) == [0, 1, 0]
        assert schedule.weights(698, 702) == [0.0, 0.0, 1.0, 0.0]
