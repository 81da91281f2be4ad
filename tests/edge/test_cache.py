"""Tests for repro.edge.cache — the allocation invariants the tier rests on.

The two load-bearing properties (hypothesis, derandomized):

* **budget safety** — no policy ever allocates more segments than the
  budget, for any shares / budget / video length;
* **monotonicity** — growing the budget never shrinks any title's prefix
  (the greedy waterfill at ``B+1`` extends the allocation at ``B``), so
  the expected hit ratio is monotone non-decreasing in the budget.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.edge.cache import (
    PREFIX_POLICY_NAMES,
    CacheAllocation,
    allocate_prefixes,
)
from repro.errors import ConfigurationError
from repro.workload.popularity import ZipfCatalog

SHARES = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=12,
).filter(lambda shares: sum(shares) > 0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    policy=st.sampled_from(PREFIX_POLICY_NAMES),
    shares=SHARES,
    budget=st.integers(min_value=0, max_value=500),
    n_segments=st.integers(min_value=1, max_value=60),
)
def test_allocation_never_exceeds_budget(policy, shares, budget, n_segments):
    allocation = allocate_prefixes(policy, shares, budget, n_segments)
    assert allocation.total_segments <= budget
    assert all(0 <= k <= n_segments for k in allocation.prefixes)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    policy=st.sampled_from(PREFIX_POLICY_NAMES),
    shares=SHARES,
    budget=st.integers(min_value=0, max_value=200),
    step=st.integers(min_value=1, max_value=50),
    n_segments=st.integers(min_value=1, max_value=40),
)
def test_prefixes_monotone_in_budget(policy, shares, budget, step, n_segments):
    small = allocate_prefixes(policy, shares, budget, n_segments)
    large = allocate_prefixes(policy, shares, budget + step, n_segments)
    # Per-title prefixes only grow, so a hit at budget B stays a hit at
    # B + step — measured hit ratio on any fixed arrival sequence is
    # monotone, and so is the analytic expectation.
    assert all(a <= b for a, b in zip(small.prefixes, large.prefixes))
    probabilities = [p / sum(shares) for p in shares]
    assert small.expected_hit_ratio(probabilities) <= (
        large.expected_hit_ratio(probabilities) + 1e-12
    )


def test_popularity_waterfill_favours_hot_titles():
    shares = ZipfCatalog(n_videos=4, theta=1.0).probabilities
    allocation = allocate_prefixes("popularity", shares, 20, 30)
    assert allocation.prefixes[0] >= allocation.prefixes[1]
    assert allocation.prefixes[1] >= allocation.prefixes[3]
    assert allocation.total_segments == 20


def test_popularity_extension_property():
    shares = ZipfCatalog(n_videos=5, theta=1.0).probabilities
    previous = allocate_prefixes("popularity", shares, 0, 12)
    for budget in range(1, 61):
        current = allocate_prefixes("popularity", shares, budget, 12)
        grown = [
            b - a for a, b in zip(previous.prefixes, current.prefixes)
        ]
        assert sum(grown) in (0, 1)  # 0 only once the catalog is saturated
        assert all(g >= 0 for g in grown)
        previous = current


def test_uniform_ignores_popularity():
    allocation = allocate_prefixes("uniform", [0.9, 0.05, 0.05], 7, 30)
    assert allocation.prefixes == (3, 2, 2)


def test_proportional_tracks_shares():
    allocation = allocate_prefixes("proportional", [0.5, 0.3, 0.2], 10, 30)
    assert allocation.prefixes == (5, 3, 2)


def test_budget_clamped_to_catalog_capacity():
    allocation = allocate_prefixes("popularity", [0.6, 0.4], 1000, 10)
    assert allocation.prefixes == (10, 10)
    assert allocation.budget == 20


def test_expected_hit_ratio_is_cached_mass():
    allocation = CacheAllocation(
        policy="popularity", budget=5, n_segments=10, prefixes=(3, 2, 0)
    )
    assert allocation.expected_hit_ratio([0.5, 0.3, 0.2]) == pytest.approx(0.8)


def test_validation():
    with pytest.raises(ConfigurationError, match="unknown prefix policy"):
        allocate_prefixes("lru", [1.0], 5, 10)
    with pytest.raises(ConfigurationError, match="budget"):
        allocate_prefixes("popularity", [1.0], -1, 10)
    with pytest.raises(ConfigurationError, match="n_segments"):
        allocate_prefixes("popularity", [1.0], 5, 0)
    with pytest.raises(ConfigurationError, match=">= 1 title"):
        allocate_prefixes("popularity", [], 5, 10)
    with pytest.raises(ConfigurationError, match=">= 0"):
        allocate_prefixes("popularity", [0.5, -0.5], 5, 10)
    allocation = allocate_prefixes("popularity", [1.0], 5, 10)
    with pytest.raises(ConfigurationError, match="shares for"):
        allocation.expected_hit_ratio([0.5, 0.5])
