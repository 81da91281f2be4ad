"""The bulk Welford folds equal their one-at-a-time loops, bit for bit.

The slotted driver folds each run of slot loads with
``SlotLoadRecorder.record_many`` → ``OnlineStats.add_many``.  Golden
results pin mean, M2, min and max to the last bit, so these folds must
perform exactly the float operations of a loop of ``add``, and the
recorder must keep the per-slot recorder's warmup, series and error rules.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.recorder import SlotLoadRecorder
from repro.sim.stats import OnlineStats


def state(stats):
    """Summary state with floats as their bit patterns (NaN- and ±0-exact)."""
    bits = [struct.pack("<d", value) for value in (stats._mean, stats._m2)]
    return stats.count, bits, repr(stats._min), repr(stats._max)


def folded(prefix, values):
    """``(add_many state, loop-of-add state)`` after a common prefix."""
    bulk, loop = OnlineStats(), OnlineStats()
    for stats in (bulk, loop):
        for value in prefix:
            stats.add(value)
    bulk.add_many(values)
    for value in values:
        loop.add(value)
    return state(bulk), state(loop)


floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestAddMany:
    @settings(max_examples=200)
    @given(prefix=st.lists(floats, max_size=5), values=st.lists(floats, max_size=60))
    def test_arbitrary_floats(self, prefix, values):
        bulk, loop = folded(prefix, values)
        assert bulk == loop

    @given(
        prefix=st.lists(st.integers(0, 200).map(float), max_size=5),
        values=st.lists(st.integers(0, 200).map(float), max_size=300),
    )
    def test_integer_valued_loads(self, prefix, values):
        bulk, loop = folded(prefix, values)
        assert bulk == loop

    @given(value=floats, repeats=st.integers(1, 100))
    def test_repeated_values(self, value, repeats):
        bulk, loop = folded([1.5], [value] * repeats)
        assert bulk == loop

    @pytest.mark.parametrize("prefix", [[], [3.0, -1.0]])
    def test_empty_batch_leaves_the_summary_alone(self, prefix):
        bulk, loop = folded(prefix, [])
        assert bulk == loop
        assert bulk[0] == len(prefix)

    def test_signed_zeros_keep_the_first_seen(self):
        bulk, loop = folded([0.0], [-0.0, 0.0, -0.0])
        assert bulk == loop

    def test_accepts_an_iterator(self):
        bulk, loop = OnlineStats(), OnlineStats()
        bulk.add_many(iter([1.0, 2.0, 7.0]))
        loop.add_many([1.0, 2.0, 7.0])
        assert state(bulk) == state(loop)


class LiteralRecorder:
    """The per-slot recorder spelled out: check, skip warmup, ``add(float)``."""

    def __init__(self, warmup, keep_series):
        self.warmup, self.keep_series = warmup, keep_series
        self.stats, self.series = OnlineStats(), []

    def record(self, slot, load):
        if load < 0:
            raise SimulationError(f"negative load {load} in slot {slot}")
        if slot >= self.warmup:
            self.stats.add(float(load))
            if self.keep_series:
                self.series.append(load)


def recorded(warmup, keep_series, first_slot, loads):
    """``(record_many recorder, literal per-slot recorder)`` over one run."""
    bulk = SlotLoadRecorder(warmup, keep_series=keep_series)
    loop = LiteralRecorder(warmup, keep_series)
    bulk.record_many(first_slot, loads)
    for slot, load in enumerate(loads, start=first_slot):
        loop.record(slot, load)
    return bulk, loop


class TestRecordMany:
    @given(
        warmup=st.integers(0, 30),
        keep_series=st.booleans(),
        runs=st.lists(st.lists(st.integers(0, 120), max_size=25), max_size=6),
    )
    def test_runs_equal_a_loop_of_record(self, warmup, keep_series, runs):
        bulk = SlotLoadRecorder(warmup, keep_series=keep_series)
        loop = LiteralRecorder(warmup, keep_series)
        slot = 0
        for loads in runs:
            bulk.record_many(slot, loads)
            for load in loads:
                loop.record(slot, load)
                slot += 1
        assert state(bulk._stats) == state(loop.stats)
        assert bulk.series == loop.series

    @pytest.mark.parametrize("first_slot", [0, 3, 5, 6, 9])
    def test_batch_straddling_the_warmup_boundary(self, first_slot):
        bulk, loop = recorded(6, True, first_slot, [4, 0, 7, 7, 2, 9])
        assert state(bulk._stats) == state(loop.stats)
        assert bulk.series == loop.series
        assert bulk.slots_measured == min(6, first_slot)

    def test_series_holds_the_integer_loads(self):
        bulk, _ = recorded(0, True, 0, [3, 1])
        assert bulk.series == [3, 1]
        assert [type(load) for load in bulk.series] == [int, int]
        assert type(bulk.max_load) is float

    @pytest.mark.parametrize("warmup", [0, 12])
    def test_negative_load_names_its_slot(self, warmup):
        bulk = SlotLoadRecorder(warmup, keep_series=True)
        loop = LiteralRecorder(warmup, True)
        loads = [2, 5, -1, 4, -3]
        with pytest.raises(SimulationError, match="negative load -1 in slot 12"):
            bulk.record_many(10, loads)
        with pytest.raises(SimulationError, match="negative load -1 in slot 12"):
            for slot, load in enumerate(loads, start=10):
                loop.record(slot, load)
        # The loads before the offending slot were recorded, as in the loop.
        assert state(bulk._stats) == state(loop.stats)
        assert bulk.series == loop.series
