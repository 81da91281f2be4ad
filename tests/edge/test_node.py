"""Tests for repro.edge.node — decisions, dealing, and the router's map."""

import dataclasses

import pytest

import repro.edge.scenario as edge_scenario
from repro.cluster.topology import EdgeSpec
from repro.edge.cache import allocate_prefixes
from repro.edge.node import EdgeNode, EdgeTier
from repro.edge.scenario import preset_hierarchy, run_hierarchy
from repro.edge.shaping import DEFAULT_CLASSES, PolicyShaper, TrafficClass
from repro.errors import ConfigurationError

N_SEGMENTS = 10


def make_node(
    cache_segments=12,
    uplink=20.0,
    shares=(0.5, 0.3, 0.2),
    classes=DEFAULT_CLASSES,
    policy="popularity",
):
    spec = EdgeSpec(
        edge_id=0, cache_segments=cache_segments, uplink_streams=uplink
    )
    return EdgeNode(
        spec,
        allocate_prefixes(policy, list(shares), cache_segments, N_SEGMENTS),
        PolicyShaper(classes, uplink),
        slot_duration=20.0,
    )


def admit(node, title, slot):
    """One arrival on ``node`` alone, through the tier's one-arrival call."""
    return EdgeTier([node]).admit(title, slot * 20.0, slot, (slot + 1) * 20.0)


class TestEdgeNode:
    def test_cold_title_misses(self):
        node = make_node(cache_segments=2)  # budget 2: title 2 gets no prefix
        decision = admit(node, 2, slot=5)
        assert not decision.hit
        assert node.misses == 1 and node.hits == 0

    def test_hit_joins_origin_for_the_suffix(self):
        node = make_node(cache_segments=4)
        prefix = node.allocation.prefixes[0]
        assert 0 < prefix < N_SEGMENTS
        decision = admit(node, 0, slot=5)
        assert decision.hit and not decision.served_fully
        assert decision.first_segment == prefix + 1
        assert decision.join_slot == 5  # no deferral on an idle uplink
        assert decision.wait == 0.0
        assert decision.edge_segments == prefix
        assert node.segments_served == prefix

    def test_fully_cached_title_never_joins(self):
        node = make_node(cache_segments=3 * N_SEGMENTS)
        decision = admit(node, 0, slot=2)
        assert decision.hit and decision.served_fully
        assert decision.edge_segments == N_SEGMENTS

    def test_deferral_shifts_join_and_wait(self):
        classes = (TrafficClass("only", weight=1, uplink_share=1.0),)
        node = make_node(
            cache_segments=N_SEGMENTS, uplink=5.0, shares=(1.0,), classes=classes
        )
        # Prefix costs 10 tokens; the bucket holds 20 (burst 4 x rate 5),
        # so the third request must wait for refills.
        assert admit(node, 0, slot=0).join_slot == 0
        assert admit(node, 0, slot=0).served_fully  # k = n: no join at all
        third = admit(node, 0, slot=0)
        assert third.wait > 0.0
        assert third.wait == pytest.approx(
            node.shaper.deferral_slots["only"] * 20.0
        )

    def test_zero_uplink_class_bypasses_to_origin(self):
        classes = (TrafficClass("free", weight=1, uplink_share=0.0),)
        node = make_node(cache_segments=6, shares=(1.0,), classes=classes)
        decision = admit(node, 0, slot=1)
        assert not decision.hit
        assert node.bypassed == 1 and node.hits == 0

    def test_decide_takes_runs_of_arrivals(self):
        node = make_node(cache_segments=2)  # budget 2: title 2 gets no prefix
        k = node.allocation.prefixes[0]
        prefix, defer, classes = node.decide([0, 2, 0], [0, 0, 1], 2)
        assert prefix.tolist() == [k, 0, k]
        assert defer.tolist() == [0, 0, 0]
        assert classes.tolist() == [0, -1, 1]  # a cold title has no class
        assert (node.hits, node.misses) == (2, 1)

    def test_title_outside_catalog_is_rejected(self):
        node = make_node()
        with pytest.raises(ConfigurationError, match="outside catalog"):
            node.decide([3], [0], 1)

    def test_allocation_must_fit_budget(self):
        spec = EdgeSpec(edge_id=0, cache_segments=2, uplink_streams=1.0)
        allocation = allocate_prefixes("popularity", [1.0], 5, N_SEGMENTS)
        with pytest.raises(ConfigurationError, match="budget"):
            EdgeNode(spec, allocation, PolicyShaper(), slot_duration=20.0)


class TestEdgeTier:
    def make_tier(self, n_nodes=2):
        nodes = [
            EdgeNode(
                EdgeSpec(edge_id=i, cache_segments=4, uplink_streams=20.0),
                allocate_prefixes(
                    "popularity", [0.5, 0.3, 0.2], 4, N_SEGMENTS
                ),
                PolicyShaper(DEFAULT_CLASSES, 20.0),
                slot_duration=20.0,
            )
            for i in range(n_nodes)
        ]
        return EdgeTier(nodes)

    def test_round_robin_dealing(self):
        tier = self.make_tier()
        for _ in range(4):
            tier.admit(0, 0.0, 0, 20.0)
        assert [node.hits for node in tier.nodes] == [2, 2]

    def test_prefix_map_feeds_the_router(self, monkeypatch):
        tier = self.make_tier()
        assert tier.prefix_map() == {
            title: k
            for title, k in enumerate(tier.nodes[0].allocation.prefixes)
            if k > 0
        }
        # run_hierarchy hands the cluster loop a router holding its tier's map.
        seen = []
        run_scenario = edge_scenario.run_scenario

        def spy(scenario, observation=None, *, edge_tier, router_override):
            seen.append((edge_tier.prefix_map(), router_override._prefixes))
            return run_scenario(
                scenario, observation, edge_tier=edge_tier,
                router_override=router_override,
            )

        monkeypatch.setattr(edge_scenario, "run_scenario", spy)
        scenario = dataclasses.replace(preset_hierarchy(quick=True), horizon_slots=60)
        run_hierarchy(scenario)
        [(prefix_map, routed)] = seen
        assert prefix_map and routed == prefix_map

    def test_aggregates(self):
        tier = self.make_tier()
        for title in (0, 2, 2):
            tier.admit(title, 0.0, 0, 20.0)
        hits = sum(node.hits for node in tier.nodes)
        assert hits + sum(node.misses for node in tier.nodes) == 3
        counters = tier.class_counters()
        assert set(counters) == {"premium", "best-effort"}
        assert sum(entry["requests"] for entry in counters.values()) == hits
