"""The bounded shared trace cache: LRU discipline and introspection."""

import numpy as np
import pytest

from repro.runtime.cache import LRUCache, cache_info, clear_cache
from repro.runtime.config import DEFAULT_TRACE_CACHE_SIZE
from repro.runtime.seeds import arrival_trace


@pytest.fixture(autouse=True)
def _reset_shared_cache():
    """Leave the process-wide cache the way each test found it."""
    clear_cache()
    yield
    clear_cache()


class TestLRUCache:
    def test_hit_does_not_invoke_factory(self):
        cache = LRUCache(max_entries=4)
        assert cache.get_or_create("a", lambda: 1) == 1
        assert cache.get_or_create("a", lambda: pytest.fail("hit!")) == 1
        assert cache.info().hits == 1
        assert cache.info().misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: -1)  # refresh "a"; "b" is now oldest
        cache.get_or_create("c", lambda: 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    def test_clear_keeps_statistics(self):
        cache = LRUCache(max_entries=2)
        cache.get_or_create("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.info().misses == 1


class TestSharedArrivalCache:
    def test_arrival_trace_memoised(self):
        first = arrival_trace(2001, 50.0, 6.0)
        before = cache_info()
        second = arrival_trace(2001, 50.0, 6.0)
        after = cache_info()
        assert second is first
        assert after.hits == before.hits + 1
        assert not first.flags.writeable

    def test_distinct_keys_distinct_traces(self):
        a = arrival_trace(2001, 50.0, 6.0)
        b = arrival_trace(2002, 50.0, 6.0)
        assert not np.array_equal(a, b)

    def test_shared_cache_evicts_beyond_its_bound(self):
        for rate in range(1, DEFAULT_TRACE_CACHE_SIZE + 2):
            arrival_trace(2001, float(rate), 0.01)
        assert cache_info().size == DEFAULT_TRACE_CACHE_SIZE
