"""Tests for repro.server.provisioning."""

import numpy as np
import pytest

from repro.core.dhb import DHBProtocol
from repro.errors import ConfigurationError
from repro.protocols.npb import NewPagodaBroadcasting
from repro.server.provisioning import provision_catalog
from repro.units import TWO_HOURS
from repro.workload.popularity import ZipfCatalog

SLOT = TWO_HOURS / 20


def dhb_factory(title):
    return DHBProtocol(n_segments=20)


@pytest.fixture(scope="module")
def catalog_result():
    catalog = ZipfCatalog(n_videos=6, theta=1.0)
    rates = [catalog.rate_for(rank, 240.0) for rank in range(6)]
    return provision_catalog(
        dhb_factory, rates, SLOT, horizon_slots=800, warmup_slots=100
    )


class TestProvisioningResult:
    def test_quantiles_monotone(self, catalog_result):
        q50 = catalog_result.quantile(0.5)
        q99 = catalog_result.quantile(0.99)
        assert q50 <= q99 <= catalog_result.peak_streams

    def test_capacity_for_overflow(self, catalog_result):
        loose = catalog_result.capacity_for_overflow(0.2)
        tight = catalog_result.capacity_for_overflow(0.001)
        assert loose <= tight <= catalog_result.peak_streams
        # The chosen capacity actually meets the overflow target.
        overflow = np.mean(catalog_result.aggregate > tight)
        assert overflow <= 0.001

    def test_mean_equals_sum_of_title_means(self, catalog_result):
        assert catalog_result.mean_streams == pytest.approx(
            sum(catalog_result.per_title_means), rel=1e-9
        )

    def test_multiplexing_gain(self, catalog_result):
        """The 99.9th-percentile capacity sits below the sum of per-title
        peaks — the statistical-multiplexing payoff."""
        per_title_peak_sum = 6 * max(catalog_result.per_title_means) + 6
        assert catalog_result.capacity_for_overflow(0.001) < per_title_peak_sum

    def test_validation(self, catalog_result):
        with pytest.raises(ConfigurationError):
            catalog_result.quantile(0.0)
        with pytest.raises(ConfigurationError):
            catalog_result.capacity_for_overflow(1.5)


def test_fixed_protocol_aggregate_is_constant():
    result = provision_catalog(
        lambda title: NewPagodaBroadcasting(n_segments=20),
        [10.0, 10.0],
        SLOT,
        horizon_slots=200,
        warmup_slots=20,
    )
    allocation = NewPagodaBroadcasting(n_segments=20).n_allocated_streams
    assert np.all(result.aggregate == 2 * allocation)
    assert result.capacity_for_overflow(0.01) == 2 * allocation


def test_dhb_provisioning_beats_fixed_for_skewed_catalogs():
    """With Zipf demand the catalog tail idles, so DHB's 98th-percentile
    capacity undercuts a wall of fixed per-title allocations."""
    catalog = ZipfCatalog(n_videos=8, theta=1.2)
    rates = [catalog.rate_for(rank, 120.0) for rank in range(8)]
    dhb = provision_catalog(
        dhb_factory, rates, SLOT, horizon_slots=600, warmup_slots=100
    )
    fixed_allocation = 8 * NewPagodaBroadcasting(n_segments=20).n_allocated_streams
    assert dhb.capacity_for_overflow(0.02) < fixed_allocation
    assert dhb.mean_streams < 0.8 * fixed_allocation


def test_validation():
    with pytest.raises(ConfigurationError):
        provision_catalog(dhb_factory, [], SLOT, 100)
    with pytest.raises(ConfigurationError):
        provision_catalog(dhb_factory, [-1.0], SLOT, 100)


def test_deterministic():
    a = provision_catalog(dhb_factory, [30.0], SLOT, 300, seed=5)
    b = provision_catalog(dhb_factory, [30.0], SLOT, 300, seed=5)
    assert np.array_equal(a.aggregate, b.aggregate)


# ---------------------------------------------------------------------------
# Process-accepting API (provision_catalog_processes)
# ---------------------------------------------------------------------------


def test_rate_wrapper_is_bit_for_bit_with_process_api():
    """provision_catalog is now a wrapper; the pre-refactor behaviour must
    survive exactly for the same (rates, seed)."""
    from repro.server.provisioning import provision_catalog_processes
    from repro.workload.arrivals import PoissonArrivals

    rates = [30.0, 12.0, 5.0]
    via_wrapper = provision_catalog(dhb_factory, rates, SLOT, 400, seed=7)
    via_floats = provision_catalog_processes(dhb_factory, rates, SLOT, 400, seed=7)
    via_processes = provision_catalog_processes(
        dhb_factory, [PoissonArrivals(rate) for rate in rates], SLOT, 400, seed=7
    )
    assert np.array_equal(via_wrapper.aggregate, via_floats.aggregate)
    assert np.array_equal(via_wrapper.aggregate, via_processes.aggregate)
    assert via_wrapper.per_title_means == via_processes.per_title_means


def test_mixed_catalog_workloads():
    """A flash-crowd premiere riding on Poisson back-catalog titles: any
    ArrivalProcess or WorkloadSpec is a first-class title demand."""
    from repro.server.provisioning import provision_catalog_processes
    from repro.workload.flash import FlashCrowd
    from repro.workload.spec import WorkloadSpec

    result = provision_catalog_processes(
        dhb_factory,
        [40.0, FlashCrowd(600.0, 1.0), WorkloadSpec.diurnal("child", 50.0)],
        SLOT,
        400,
        seed=11,
    )
    assert len(result.per_title_means) == 3
    assert result.peak_streams >= max(result.per_title_means)


def test_swapping_one_title_leaves_other_arrivals_untouched():
    """Per-title streams isolate demand models: changing title 1's model
    must not perturb title 0's seeded arrivals (same aggregate share)."""
    from repro.server.provisioning import provision_catalog_processes
    from repro.workload.flash import FlashCrowd

    poisson_only = provision_catalog_processes(
        dhb_factory, [25.0], SLOT, 400, seed=13
    )
    with_flash = provision_catalog_processes(
        dhb_factory, [25.0, FlashCrowd(200.0, 0.5)], SLOT, 400, seed=13
    )
    assert with_flash.per_title_means[0] == poisson_only.per_title_means[0]


def test_process_api_validation():
    from repro.server.provisioning import provision_catalog_processes
    from repro.workload.arrivals import PoissonArrivals

    with pytest.raises(ConfigurationError):
        provision_catalog_processes(dhb_factory, [True], SLOT, 100)
    with pytest.raises(ConfigurationError):
        provision_catalog_processes(dhb_factory, [object()], SLOT, 100)
    with pytest.raises(ConfigurationError):
        provision_catalog_processes(dhb_factory, [-2.0], SLOT, 100)
    # sanity: the valid forms construct
    provision_catalog_processes(
        dhb_factory, [PoissonArrivals(5.0)], SLOT, 50
    )
