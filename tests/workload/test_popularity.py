"""Tests for repro.workload.popularity."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.popularity import ZipfCatalog


def test_probabilities_sum_to_one():
    catalog = ZipfCatalog(n_videos=50, theta=1.0)
    assert sum(catalog.probabilities) == pytest.approx(1.0)


def test_theta_zero_is_uniform():
    catalog = ZipfCatalog(n_videos=4, theta=0.0)
    assert catalog.probabilities == pytest.approx([0.25] * 4)


def test_popularity_is_decreasing():
    probs = ZipfCatalog(n_videos=10, theta=1.0).probabilities
    assert all(probs[i] >= probs[i + 1] for i in range(9))


def test_zipf_ratio():
    probs = ZipfCatalog(n_videos=10, theta=1.0).probabilities
    assert probs[0] / probs[1] == pytest.approx(2.0)
    assert probs[0] / probs[4] == pytest.approx(5.0)


def test_rate_split_conserves_total():
    catalog = ZipfCatalog(n_videos=7, theta=0.8)
    total = sum(catalog.rate_for(rank, 100.0) for rank in range(7))
    assert total == pytest.approx(100.0)


def test_rate_for_validation():
    catalog = ZipfCatalog(n_videos=3)
    with pytest.raises(WorkloadError):
        catalog.rate_for(3, 10.0)
    with pytest.raises(WorkloadError):
        catalog.rate_for(0, -1.0)


def test_assignment_follows_distribution(rng):
    catalog = ZipfCatalog(n_videos=3, theta=1.0)
    draws = catalog.assign(30_000, rng)
    frequencies = np.bincount(draws, minlength=3) / 30_000
    assert frequencies == pytest.approx(catalog.probabilities, abs=0.02)


def test_invalid_catalog():
    with pytest.raises(WorkloadError):
        ZipfCatalog(n_videos=0)
    with pytest.raises(WorkloadError):
        ZipfCatalog(n_videos=3, theta=-0.1)
