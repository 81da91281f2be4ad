"""Tests for the interval arithmetic of the stream-tapping oracle."""

import doctest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from . import intervals
from .intervals import clip, normalize, subtract, total_length

interval = st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
    lambda p: (min(p), max(p))
)


def test_normalize_merges_and_sorts():
    assert normalize([(3.0, 5.0), (1.0, 2.0), (2.0, 3.5)]) == [(1.0, 5.0)]


def test_normalize_drops_empty():
    assert normalize([(2.0, 2.0), (1.0, 1.0)]) == []


def test_normalize_keeps_disjoint():
    assert normalize([(5.0, 6.0), (1.0, 2.0)]) == [(1.0, 2.0), (5.0, 6.0)]


def test_subtract_middle():
    assert subtract((0.0, 10.0), [(2.0, 4.0)]) == [(0.0, 2.0), (4.0, 10.0)]


def test_subtract_full_cover():
    assert subtract((0.0, 10.0), [(0.0, 10.0)]) == []
    assert subtract((2.0, 8.0), [(0.0, 100.0)]) == []


def test_subtract_no_cover():
    assert subtract((0.0, 10.0), []) == [(0.0, 10.0)]
    assert subtract((0.0, 10.0), [(20.0, 30.0)]) == [(0.0, 10.0)]


def test_subtract_edges():
    assert subtract((0.0, 10.0), [(0.0, 3.0), (7.0, 10.0)]) == [(3.0, 7.0)]


def test_subtract_empty_base():
    assert subtract((5.0, 5.0), [(0.0, 10.0)]) == []


def test_total_length_merges_overlap():
    assert total_length([(0.0, 1.0), (0.5, 2.0)]) == pytest.approx(2.0)


def test_clip():
    assert clip((1.0, 9.0), 2.0, 5.0) == (2.0, 5.0)
    start, end = clip((6.0, 9.0), 0.0, 5.0)
    assert end <= start  # empty


@given(base=interval, covers=st.lists(interval, max_size=15))
def test_subtract_partition_property(base, covers):
    """gaps + covered parts partition the base exactly."""
    gaps = subtract(base, covers)
    base_length = base[1] - base[0]
    clipped = [clip(c, base[0], base[1]) for c in covers]
    covered = total_length([c for c in clipped if c[1] > c[0]])
    assert total_length(gaps) + covered == pytest.approx(base_length, abs=1e-6)
    for gap_start, gap_end in gaps:
        assert base[0] <= gap_start < gap_end <= base[1]
        for cover_start, cover_end in covers:
            if cover_end <= cover_start:
                continue  # zero-width covers are empty: nothing to intersect
            # Gaps never intersect any non-empty cover.
            assert gap_end <= cover_start or gap_start >= cover_end


def test_module_doctests():
    results = doctest.testmod(intervals, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
