"""Tests for repro.sim.sketches."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.sketches import BinnedQuantileSketch


class TestBinnedQuantileSketch:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            BinnedQuantileSketch(0.0)
        with pytest.raises(SimulationError):
            BinnedQuantileSketch(-1.0)
        with pytest.raises(SimulationError):
            BinnedQuantileSketch(10.0, n_bins=0)

    def test_empty_sketch_reports_zero(self):
        sketch = BinnedQuantileSketch(10.0)
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        sketch = BinnedQuantileSketch(10.0)
        with pytest.raises(SimulationError):
            sketch.quantile(1.5)
        with pytest.raises(SimulationError):
            sketch.quantile(-0.1)

    def test_out_of_range_values_clamp(self):
        sketch = BinnedQuantileSketch(10.0, n_bins=10)
        sketch.add(-5.0)
        sketch.add(25.0)
        sketch.add(10.0)  # exactly upper clamps into the last bin
        assert sketch.count == 3
        assert sketch.quantile(0.0) == pytest.approx(1.0)  # first bin edge
        assert sketch.quantile(1.0) == 10.0

    def test_quantile_is_bin_upper_edge(self):
        sketch = BinnedQuantileSketch(10.0, n_bins=10)
        for value in [0.5, 1.5, 2.5, 3.5]:
            sketch.add(value)
        # Median of 4 observations sits in the second bin -> edge 2.0.
        assert sketch.quantile(0.5) == pytest.approx(2.0)
        assert sketch.quantile(1.0) == pytest.approx(4.0)

    @given(
        st.lists(
            st.floats(min_value=-2.0, max_value=15.0, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_scalar_and_array_feeding_agree_exactly(self, values):
        one_by_one = BinnedQuantileSketch(10.0, n_bins=64)
        batched = BinnedQuantileSketch(10.0, n_bins=64)
        for value in values:
            one_by_one.add(value)
        batched.add_array(np.asarray(values, dtype=np.float64))
        assert one_by_one.count == batched.count
        assert np.array_equal(one_by_one._counts, batched._counts)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert one_by_one.quantile(q) == batched.quantile(q)

    def test_add_array_empty_is_noop(self):
        sketch = BinnedQuantileSketch(10.0)
        sketch.add_array(np.array([], dtype=np.float64))
        assert sketch.count == 0

    def test_merge_requires_matching_geometry(self):
        sketch = BinnedQuantileSketch(10.0, n_bins=16)
        with pytest.raises(SimulationError):
            sketch.merge(BinnedQuantileSketch(5.0, n_bins=16))
        with pytest.raises(SimulationError):
            sketch.merge(BinnedQuantileSketch(10.0, n_bins=32))

    def test_merge_equals_union_of_streams(self):
        left = BinnedQuantileSketch(10.0, n_bins=32)
        right = BinnedQuantileSketch(10.0, n_bins=32)
        union = BinnedQuantileSketch(10.0, n_bins=32)
        for value in [1.0, 2.0, 3.0]:
            left.add(value)
            union.add(value)
        for value in [7.0, 8.0]:
            right.add(value)
            union.add(value)
        left.merge(right)
        assert left.count == union.count
        assert np.array_equal(left._counts, union._counts)

    def test_dict_round_trip(self):
        sketch = BinnedQuantileSketch(7.0, n_bins=64)
        sketch.add_array(np.array([0.1, 3.3, 6.9, 12.0, -1.0]))
        rebuilt = BinnedQuantileSketch.from_dict(sketch.to_dict())
        assert rebuilt.count == sketch.count
        assert np.array_equal(rebuilt._counts, sketch._counts)
        assert rebuilt.quantile(0.5) == sketch.quantile(0.5)
