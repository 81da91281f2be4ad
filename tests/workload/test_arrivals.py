"""Tests for repro.workload.arrivals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.units import HOUR
from repro.workload.arrivals import (
    DeterministicArrivals,
    MMPPArrivals,
    NonHomogeneousPoisson,
    PoissonArrivals,
    TraceArrivals,
    merge_arrivals,
)


class TestPoissonArrivals:
    def test_sorted_and_in_range(self, rng):
        times = PoissonArrivals(100.0).generate(10 * HOUR, rng)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0
        assert times[-1] < 10 * HOUR

    def test_mean_rate(self, rng):
        horizon = 200 * HOUR
        times = PoissonArrivals(50.0).generate(horizon, rng)
        observed = len(times) / (horizon / HOUR)
        assert observed == pytest.approx(50.0, rel=0.05)

    def test_interarrival_distribution_is_exponential(self, rng):
        times = PoissonArrivals(3600.0).generate(10 * HOUR, rng)
        gaps = np.diff(times)
        # Exponential(1): mean ~= std.
        assert np.mean(gaps) == pytest.approx(1.0, rel=0.05)
        assert np.std(gaps) == pytest.approx(1.0, rel=0.1)

    def test_zero_rate(self, rng):
        assert len(PoissonArrivals(0.0).generate(HOUR, rng)) == 0

    def test_reproducible(self):
        a = PoissonArrivals(10.0).generate(HOUR, np.random.default_rng(1))
        b = PoissonArrivals(10.0).generate(HOUR, np.random.default_rng(1))
        assert np.allclose(a, b)

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(-1.0)

    def test_bad_horizon_rejected(self, rng):
        with pytest.raises(WorkloadError):
            PoissonArrivals(1.0).generate(0.0, rng)

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(1.0, 5000.0), horizon_hours=st.floats(0.5, 20.0))
    def test_all_arrivals_inside_horizon(self, rate, horizon_hours):
        rng = np.random.default_rng(0)
        horizon = horizon_hours * HOUR
        times = PoissonArrivals(rate).generate(horizon, rng)
        if len(times):
            assert times[-1] < horizon
            assert times[0] >= 0.0


class TestDeterministicArrivals:
    def test_even_spacing(self, rng):
        times = DeterministicArrivals(interval=10.0).generate(35.0, rng)
        assert list(times) == [0.0, 10.0, 20.0, 30.0]

    def test_offset(self, rng):
        times = DeterministicArrivals(interval=10.0, offset=5.0).generate(30.0, rng)
        assert list(times) == [5.0, 15.0, 25.0]

    def test_one_request_per_slot_workload(self, rng):
        # The paper's saturation workload: at least one request every slot.
        times = DeterministicArrivals(interval=1.0, offset=0.5).generate(100.0, rng)
        slots = np.floor(times).astype(int)
        assert set(slots) == set(range(100))

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            DeterministicArrivals(interval=0.0)
        with pytest.raises(WorkloadError):
            DeterministicArrivals(interval=1.0, offset=-1.0)


class TestTraceArrivals:
    def test_sorts_and_clips(self, rng):
        trace = TraceArrivals([5.0, 1.0, 3.0, 100.0])
        assert list(trace.generate(50.0, rng)) == [1.0, 3.0, 5.0]

    def test_negative_times_rejected(self):
        with pytest.raises(WorkloadError):
            TraceArrivals([-1.0, 2.0])


class TestNonHomogeneousPoisson:
    def test_rate_modulation(self, rng):
        # Rate 100/h in the first half, 0 after.
        process = NonHomogeneousPoisson(
            lambda t: 100.0 if t < 50 * HOUR else 0.0, max_rate_per_hour=100.0
        )
        times = process.generate(100 * HOUR, rng)
        assert np.all(times < 50 * HOUR)
        observed = len(times) / 50.0
        assert observed == pytest.approx(100.0, rel=0.1)

    def test_rate_bound_violation_detected(self, rng):
        process = NonHomogeneousPoisson(lambda t: 50.0, max_rate_per_hour=10.0)
        with pytest.raises(WorkloadError):
            process.generate(10 * HOUR, rng)

    def test_invalid_max_rate(self):
        with pytest.raises(WorkloadError):
            NonHomogeneousPoisson(lambda t: 1.0, max_rate_per_hour=0.0)


class TestMMPP:
    def test_rates_realised(self, rng):
        process = MMPPArrivals(
            rates_per_hour=[10.0, 200.0], mean_sojourn=[HOUR, HOUR]
        )
        times = process.generate(200 * HOUR, rng)
        observed = len(times) / 200.0
        assert observed == pytest.approx(105.0, rel=0.25)
        assert np.all(np.diff(times) >= 0)

    def test_single_state_degenerates_to_poisson_rate(self, rng):
        process = MMPPArrivals(rates_per_hour=[60.0], mean_sojourn=[HOUR])
        times = process.generate(100 * HOUR, rng)
        assert len(times) / 100.0 == pytest.approx(60.0, rel=0.1)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            MMPPArrivals([], [])
        with pytest.raises(WorkloadError):
            MMPPArrivals([1.0], [0.0])
        with pytest.raises(WorkloadError):
            MMPPArrivals([-1.0], [1.0])


def test_merge_arrivals():
    merged = merge_arrivals(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
    assert list(merged) == [1.0, 2.0, 3.0, 4.0]
    assert len(merge_arrivals()) == 0

