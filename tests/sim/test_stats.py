"""Tests for repro.sim.stats."""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.stats import OnlineStats, batch_means_ci


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.variance == 0.0
        assert s.minimum == 5.0
        assert s.maximum == 5.0

    def test_known_values(self):
        s = OnlineStats()
        s.add_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        assert s.stddev == pytest.approx(np.std([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        s = OnlineStats()
        s.add_many(values)
        assert s.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(
            float(np.var(values, ddof=1)), rel=1e-7, abs=1e-4
        )
        assert s.minimum == min(values)
        assert s.maximum == max(values)


class TestBatchMeans:
    def test_constant_series(self):
        mean, half_width = batch_means_ci([3.0] * 100)
        assert mean == 3.0
        assert half_width == 0.0

    def test_mean_matches_sample_mean_when_batches_divide(self):
        values = list(range(100))
        mean, _ = batch_means_ci(values, n_batches=10)
        assert mean == pytest.approx(np.mean(values))

    def test_iid_noise_ci_covers_truth(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 2.0, size=2000)
        mean, half_width = batch_means_ci(list(values), n_batches=20)
        assert abs(mean - 10.0) < 3 * half_width + 1e-9
        assert half_width > 0

    def test_too_few_observations(self):
        with pytest.raises(SimulationError):
            batch_means_ci([1.0, 2.0], n_batches=10)

    def test_too_few_batches(self):
        with pytest.raises(SimulationError):
            batch_means_ci([1.0] * 100, n_batches=1)
