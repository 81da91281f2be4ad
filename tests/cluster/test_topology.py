"""Tests for repro.cluster.topology — server specs and catalog placement."""

import pytest

from repro.cluster.topology import (
    CatalogPlacement,
    ClusterTopology,
    ServerSpec,
    build_placement,
    popularity_placement,
    replicated_placement,
    sharded_placement,
    uniform_topology,
)
from repro.errors import ClusterError


class TestServerSpec:
    def test_validation(self):
        with pytest.raises(ClusterError):
            ServerSpec(server_id=-1, capacity=10)
        with pytest.raises(ClusterError):
            ServerSpec(server_id=0, capacity=0)


class TestPlacements:
    def test_sharded_round_robin(self):
        placement = sharded_placement(5, 2)
        assert placement.replicas == ((0,), (1,), (0,), (1,), (0,))
        assert placement.titles_on(0) == [0, 2, 4]
        assert placement.replica_counts() == [1, 1, 1, 1, 1]

    def test_replicated_rotates_primaries(self):
        placement = replicated_placement(3, 3)
        assert placement.replicas == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        # Every title on every server, primaries spread.
        assert {servers[0] for servers in placement.replicas} == {0, 1, 2}

    def test_popularity_decays_with_rank(self):
        placement = popularity_placement(6, 4, theta=1.0)
        counts = placement.replica_counts()
        assert counts[0] == 4  # hottest title fully replicated
        assert counts == sorted(counts, reverse=True)
        assert min(counts) >= 1

    def test_popularity_min_replicas_floor(self):
        placement = popularity_placement(6, 4, theta=2.0, min_replicas=2)
        assert min(placement.replica_counts()) >= 2

    def test_build_placement_dispatch_and_unknown(self):
        assert build_placement("sharded", 4, 2).replica_counts() == [1, 1, 1, 1]
        assert build_placement("replicated", 4, 2).replica_counts() == [2, 2, 2, 2]
        with pytest.raises(ClusterError):
            build_placement("nope", 4, 2)

    def test_replicas_of_bounds(self):
        placement = sharded_placement(2, 2)
        with pytest.raises(ClusterError):
            placement.replicas_of(2)


class TestClusterTopology:
    def test_validation_catches_broken_placements(self):
        specs = (ServerSpec(0, 10), ServerSpec(1, 10))
        with pytest.raises(ClusterError, match="no replica"):
            ClusterTopology(specs, CatalogPlacement(replicas=((),)))
        with pytest.raises(ClusterError, match="unknown servers"):
            ClusterTopology(specs, CatalogPlacement(replicas=((0, 7),)))
        with pytest.raises(ClusterError, match="twice"):
            ClusterTopology(specs, CatalogPlacement(replicas=((0, 0),)))
        with pytest.raises(ClusterError, match="duplicate server ids"):
            ClusterTopology(
                (ServerSpec(0, 10), ServerSpec(0, 10)),
                CatalogPlacement(replicas=((0,),)),
            )

    def test_uniform_topology(self):
        topology = uniform_topology(3, capacity=8, n_titles=4, placement="sharded")
        assert topology.n_servers == 3
        assert topology.n_titles == 4
        assert topology.total_capacity == 24
        assert topology.spec_of(2).capacity == 8

    def test_spec_of_unknown(self):
        topology = uniform_topology(2, capacity=8, n_titles=2)
        with pytest.raises(ClusterError):
            topology.spec_of(9)
