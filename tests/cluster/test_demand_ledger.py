"""The per-server demand ledger against its oracle, the summed title loads.

:meth:`CappedServer.demand` reads a ledger kept from the slots the hosted
protocols log as they schedule; it must always equal
``sum(p.slot_load(slot) for p in server.protocols.values())``.  The runs
below drive servers through every write the cluster makes — admissions,
suffix joins, failover repairs, crashes and recoveries — for every slotted
protocol a cluster accepts, and compare the two after each step over every
unreleased slot an admission can reach.
"""

import random

import pytest

from repro.cluster.admission import CappedServer
from repro.cluster.faults import fail_over, supports_rescheduling
from repro.cluster.topology import ServerSpec
from repro.core.dhb import DHBProtocol
from repro.errors import ConfigurationError
from repro.protocols.registry import SLOTTED_NAMES, ProtocolContext, build_protocol
from repro.sim.slotted import SlottedModel

N_SEGMENTS = 12
TITLES = (0, 1, 2)
#: Slots past the current one that the oracle compares: beyond the latest
#: instance any protocol here schedules (DSB's 15 segments in cycles of up
#: to 5 slots; DHB windows of up to 12 slots).
REACH = 3 * N_SEGMENTS


def factory(name):
    context = ProtocolContext(
        n_segments=N_SEGMENTS,
        duration=N_SEGMENTS * 20.0,
        rate_per_hour=300.0,
    )
    return lambda title: build_protocol(name, context)


def assert_matches_oracle(servers, released, slot):
    for server in servers:
        for probe in range(released, slot + REACH):
            oracle = sum(p.slot_load(probe) for p in server.protocols.values())
            assert server.demand(probe) == oracle, (server.server_id, probe)


#: The slots a drive visits, with two idle stretches of 30 slots.
SLOTS = [*range(0, 30), *range(60, 100), *range(130, 150)]
CRASH_AT, RECOVER_AT = 75, 90


def drive(name, seed):
    """Two servers sharing three titles, driven through every kind of write."""
    rng = random.Random(seed)
    servers = [CappedServer(ServerSpec(i, 64), list(TITLES), factory(name)) for i in (0, 1)]
    probe = servers[0].protocols[0]
    suffix_joins = hasattr(probe, "handle_suffix_request")
    repairs = supports_rescheduling(probe)
    released = 0
    steps = []
    for slot in SLOTS:
        if slot == CRASH_AT:
            if repairs:
                report = fail_over(servers[0], lambda title: [servers[1]], slot)
                steps.append(("fail_over", len(report.events)))
            else:
                servers[0].crash(slot)
                steps.append(("crash", slot))
            assert_matches_oracle(servers, released, slot)
        if slot == RECOVER_AT:
            servers[0].recover()
            assert_matches_oracle(servers, released, slot)
        for server in servers:
            if server.alive:
                server.finalize_slot(slot)
        for _ in range(rng.randrange(4)):
            alive = [server for server in servers if server.alive]
            # Right before the crash, load the server that will crash.
            server = alive[0] if slot == CRASH_AT - 1 else min(
                alive, key=lambda s: s.pressure(slot)
            )
            first = rng.choice((1, 1, 2, 5)) if suffix_joins else 1
            server.admit_suffix(rng.choice(TITLES), slot, first)
            steps.append(("admit", first))
            assert_matches_oracle(servers, released, slot)
        if rng.random() < 0.2:
            released = slot
            for server in servers:
                server.release_before(slot)
            assert_matches_oracle(servers, released, slot)
    return steps


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SLOTTED_NAMES))
def test_ledger_matches_summed_loads(name, seed):
    steps = drive(name, seed)
    assert any(kind == "admit" for kind, _ in steps)
    if name in ("dhb", "adaptive-dhb"):
        assert any(kind == "admit" and first > 1 for kind, first in steps)
        assert any(kind == "fail_over" and events > 0 for kind, events in steps)
    else:
        assert ("crash", CRASH_AT) in steps


def test_every_slotted_protocol_logs_its_placements():
    # The cluster accepts exactly these; each must report what it schedules.
    for name in SLOTTED_NAMES:
        CappedServer(ServerSpec(0, 8), [0], factory(name))


def test_a_protocol_that_cannot_log_is_refused():
    class Silent(SlottedModel):
        def handle_request(self, slot):
            pass

        def slot_load(self, slot):
            return 0

    with pytest.raises(ConfigurationError, match="cannot log"):
        CappedServer(ServerSpec(0, 8), [0], lambda title: Silent())


@pytest.mark.parametrize("name", sorted(SLOTTED_NAMES))
def test_placements_past_the_seeded_run_are_read_from_the_loads(name):
    server = CappedServer(ServerSpec(0, 64), list(TITLES), factory(name))
    server.pressure(0)  # the ledger seeds slots 0..63
    for title in TITLES:
        server.admit(title, slot=58 + title)  # placements straddle slot 64
    assert_matches_oracle([server], 0, 61)


def test_release_moves_the_ledger_floor():
    server = CappedServer(ServerSpec(0, 64), [0], lambda title: DHBProtocol(n_segments=6))
    server.admit(0, slot=0)  # one instance in each of slots 1..6
    assert [server.demand(probe) for probe in range(8)] == [0, 1, 1, 1, 1, 1, 1, 0]
    server.release_before(4)
    server.admit(0, slot=4)
    protocol = server.protocols[0]
    assert [server.demand(probe) for probe in range(4, 12)] == protocol.slot_loads(4, 12)
    server.release_before(200)  # past the seeded run
    server.admit(0, slot=200)
    assert [server.demand(probe) for probe in range(200, 210)] == protocol.slot_loads(
        200, 210
    )
