"""Tests for repro.sim.recorder."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.recorder import SlotLoadRecorder, TimeWeightedRecorder

from .continuous_reference import ListRecorder


class TestSlotLoadRecorder:
    def test_basic_stats(self):
        rec = SlotLoadRecorder()
        for slot, load in enumerate([1, 2, 3]):
            rec.record(slot, load)
        assert rec.mean_load == pytest.approx(2.0)
        assert rec.max_load == 3
        assert rec.slots_measured == 3

    def test_warmup_discarded(self):
        rec = SlotLoadRecorder(warmup_slots=2)
        rec.record(0, 100)
        rec.record(1, 100)
        rec.record(2, 1)
        rec.record(3, 3)
        assert rec.mean_load == pytest.approx(2.0)
        assert rec.max_load == 3

    def test_series_kept_only_when_asked(self):
        rec = SlotLoadRecorder(keep_series=True)
        rec.record(0, 5)
        assert rec.series == [5]
        rec2 = SlotLoadRecorder()
        rec2.record(0, 5)
        assert rec2.series == []

    def test_negative_load_rejected(self):
        rec = SlotLoadRecorder()
        with pytest.raises(SimulationError):
            rec.record(0, -1)

    def test_negative_warmup_rejected(self):
        with pytest.raises(SimulationError):
            SlotLoadRecorder(warmup_slots=-1)

    def test_empty_recorder(self):
        rec = SlotLoadRecorder()
        assert rec.mean_load == 0.0
        assert rec.max_load == 0.0

    def test_shared_registry_keeps_per_run_stats_private(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        first = SlotLoadRecorder(registry=registry)
        first.record(0, 10)
        first.finish()
        second = SlotLoadRecorder(registry=registry)
        second.record(0, 2)
        # The second run's summary must not see the first run's samples.
        assert second.slots_measured == 1
        assert second.mean_load == pytest.approx(2.0)
        assert second.max_load == 2.0
        second.finish()
        # ...while the registry histogram pools both runs.
        pooled = registry.histogram("sim.slot_load").stats
        assert pooled.count == 2
        assert pooled.mean == pytest.approx(6.0)

    def test_finish_is_idempotent(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        rec = SlotLoadRecorder(registry=registry)
        rec.record(0, 4)
        rec.finish()
        rec.finish()
        assert registry.histogram("sim.slot_load").stats.count == 1

    def test_finish_without_registry_is_a_noop(self):
        rec = SlotLoadRecorder()
        rec.record(0, 4)
        rec.finish()
        assert rec.mean_load == pytest.approx(4.0)


class TestTimeWeightedRecorder:
    def test_single_interval(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        rec.add_interval(2.0, 7.0)
        assert rec.mean_concurrency() == pytest.approx(0.5)
        assert rec.max_concurrency() == 1

    def test_overlap_counted(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        rec.add_intervals([(0.0, 5.0), (2.0, 8.0), (4.0, 6.0)])
        assert rec.max_concurrency() == 3
        assert rec.mean_concurrency() == pytest.approx((5 + 6 + 2) / 10.0)

    def test_clipping_to_window(self):
        rec = TimeWeightedRecorder(10.0, 20.0)
        rec.add_interval(0.0, 15.0)   # clipped to [10, 15)
        rec.add_interval(18.0, 30.0)  # clipped to [18, 20)
        assert rec.total_busy_time() == pytest.approx(7.0)

    def test_interval_outside_window_ignored(self):
        rec = TimeWeightedRecorder(10.0, 20.0)
        rec.add_interval(0.0, 5.0)
        rec.add_interval(25.0, 30.0)
        assert rec.mean_concurrency() == 0.0
        assert rec.max_concurrency() == 0

    def test_back_to_back_intervals_not_double_counted(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        rec.add_interval(0.0, 5.0)
        rec.add_interval(5.0, 10.0)
        assert rec.max_concurrency() == 1

    def test_reversed_interval_rejected(self):
        rec = TimeWeightedRecorder(0.0, 10.0)
        with pytest.raises(SimulationError):
            rec.add_interval(5.0, 4.0)

    def test_empty_window_rejected(self):
        with pytest.raises(SimulationError):
            TimeWeightedRecorder(5.0, 5.0)

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda p: (min(p), max(p))
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_mean_never_exceeds_max(self, intervals):
        rec = TimeWeightedRecorder(0.0, 100.0)
        rec.add_intervals(intervals)
        assert rec.mean_concurrency() <= rec.max_concurrency() + 1e-12


# Endpoints on a coarse grid so ties, back-to-back intervals and intervals
# straddling either window edge are common.
_point = st.integers(-4, 24).map(lambda k: k * 0.5)
_interval = st.tuples(_point, _point).map(lambda p: (min(p), max(p)))


@given(batches=st.lists(st.lists(_interval, max_size=12), max_size=6))
def test_batches_match_one_interval_at_a_time(batches):
    """add_intervals == the tuple-list reference fed one interval at a time."""
    batched = TimeWeightedRecorder(1.0, 9.0)
    reference = ListRecorder(1.0, 9.0)
    for batch in batches:
        batched.add_intervals(batch)
        for start, end in batch:
            reference.add_interval(start, end)
    assert batched.mean_concurrency().hex() == reference.mean_concurrency().hex()
    assert batched.max_concurrency() == reference.max_concurrency()


def test_reversed_interval_in_a_batch_rejected():
    rec = TimeWeightedRecorder(0.0, 10.0)
    with pytest.raises(SimulationError, match=r"\[5.0, 4.0\)"):
        rec.add_intervals([(1.0, 2.0), (5.0, 4.0)])
    assert rec.total_busy_time() == 0
