"""Tests for repro.cluster.routing and admission — policies under the cap."""

import pytest

from repro.cluster.admission import CappedServer
from repro.cluster.routing import (
    AffinityRouter,
    LeastLoadedRouter,
    PrefixAwareRouter,
    RoundRobinRouter,
    make_router,
)
from repro.cluster.topology import ServerSpec
from repro.core.dhb import DHBProtocol
from repro.errors import ClusterError


def make_server(server_id, capacity=10, titles=(0,), backlog_limit=None):
    return CappedServer(
        ServerSpec(server_id, capacity),
        list(titles),
        lambda title: DHBProtocol(n_segments=6),
        backlog_limit=backlog_limit,
    )


class TestCappedServer:
    def test_admit_schedules_into_protocol(self):
        server = make_server(0)
        server.admit(0, slot=1)
        assert server.admitted == 1
        # DHB on an idle schedule: S_j lands in slot 1 + j.
        assert server.demand(2) == 1

    def test_admit_unknown_title_or_down_server(self):
        server = make_server(0, titles=(0, 1))
        with pytest.raises(ClusterError, match="no replica"):
            server.admit(7, slot=1)
        server.crash(1)
        with pytest.raises(ClusterError, match="down"):
            server.admit(0, slot=1)

    def test_cap_defers_and_carries_backlog(self):
        server = make_server(0, capacity=2)
        for _ in range(4):
            server.admit(0, slot=0)
        # Slot 1 now owes 1 instance per distinct segment window; force
        # overload by checking the ledger arithmetic directly.
        demand = server.demand(1)
        report = server.finalize_slot(1, capacity=1)
        assert report.demand == demand
        assert report.transmitted == min(demand + 0, 1)
        assert report.backlog == demand - report.transmitted
        assert server.deferred_instance_slots == report.backlog

    def test_headroom_follows_backlog_limit(self):
        server = make_server(0, capacity=5, backlog_limit=2)
        assert server.has_headroom()
        server.admit(0, slot=0)
        server.finalize_slot(1, capacity=0)  # defer everything scheduled
        if server.backlog >= 2:
            assert not server.has_headroom()

    def test_crash_discards_schedule_and_recover_restores(self):
        server = make_server(0)
        server.admit(0, slot=0)
        assert server.demand(1) > 0
        server.crash(1)
        assert not server.alive
        assert server.backlog == 0
        report = server.finalize_slot(1)
        assert not report.alive and report.transmitted == 0
        assert server.down_slots == 1
        server.recover()
        assert server.alive
        assert server.demand(2) == 0  # fresh, empty schedules
        server.admit(0, slot=2)
        assert server.demand(3) == 1

    def test_validation(self):
        with pytest.raises(ClusterError):
            make_server(0, backlog_limit=0)
        server = make_server(0)
        with pytest.raises(ClusterError):
            server.finalize_slot(0, capacity=-1)


class TestRouters:
    def test_round_robin_cycles_per_title(self):
        router = RoundRobinRouter()
        servers = [make_server(i) for i in range(3)]
        picks = [router.choose(0, 0, servers).server_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        # Independent rotation per title.
        assert router.choose(1, 0, servers).server_id == 0

    def test_least_loaded_prefers_light_server(self):
        light, heavy = make_server(0), make_server(1)
        for _ in range(3):
            heavy.admit(0, slot=0)
        router = LeastLoadedRouter()
        assert router.choose(0, 0, [heavy, light]) is light
        # Ties break toward the earlier candidate (preference order).
        assert router.choose(0, 0, [make_server(2), make_server(3)]).server_id == 2

    def test_affinity_sticks_to_first_candidate(self):
        router = AffinityRouter()
        servers = [make_server(0), make_server(1)]
        for _ in range(5):
            assert router.choose(0, 0, servers) is servers[0]

    def test_all_reject_on_empty_candidates(self):
        for name in ("round-robin", "least-loaded", "affinity", "prefix-aware"):
            assert make_router(name).choose(0, 0, []) is None

    def test_make_router_unknown(self):
        with pytest.raises(ClusterError):
            make_router("random")


def pressured_server(server_id, slots=4):
    """A server carrying deferred backlog — nonzero pressure at ``slots``."""
    server = make_server(server_id)
    for slot in range(slots):
        server.admit(0, slot=slot)
        server.finalize_slot(slot + 1, capacity=0)
    return server


class TestPrefixAwareRouter:
    def test_empty_map_is_exactly_affinity(self):
        router = make_router("prefix-aware")
        assert isinstance(router, PrefixAwareRouter)
        heavy, light = pressured_server(0), make_server(1)
        # Without a cached prefix there is no slack to spend: the request
        # sticks to the loaded primary exactly as AffinityRouter would.
        for _ in range(3):
            assert router.choose(0, 4, [heavy, light]) is heavy

    def test_small_pressure_gap_stays_on_primary(self):
        heavy, light = pressured_server(0), make_server(1)
        gap = heavy.pressure(4) - light.pressure(4)
        router = PrefixAwareRouter({0: gap})
        # Gap <= slack: riding out the primary's queue preserves sharing.
        assert router.choose(0, 4, [heavy, light]) is heavy

    def test_pressure_beyond_slack_diverts(self):
        heavy, light = pressured_server(0), make_server(1)
        assert heavy.pressure(4) - light.pressure(4) > 2
        router = PrefixAwareRouter({0: 2})
        assert router.choose(0, 4, [heavy, light]) is light
        # Other titles keep affinity: the slack is per-title.
        assert router.choose(1, 4, [heavy, light]) is heavy
