"""Tests for repro.cluster.faults — fault plans and degraded-mode repair."""

import pytest

from repro.cluster.admission import CappedServer
from repro.cluster.faults import (
    ChannelLoss,
    CrashWindow,
    FaultSchedule,
    fail_over,
    lost_instances,
    random_fault_schedule,
    reschedule_instance,
    supports_rescheduling,
)
from repro.cluster.topology import ServerSpec, uniform_topology
from repro.core.adaptive import AdaptiveDHBProtocol
from repro.core.dhb import DHBProtocol
from repro.core.interactive import InteractiveDHB
from repro.errors import ClusterError
from repro.protocols.ud import UniversalDistributionProtocol
from repro.sim.rng import RandomStreams


def hosting(protocol):
    """A one-title server around an already-driven protocol."""
    return CappedServer(ServerSpec(0, 100), [0], lambda title: protocol)


def owed(protocol, crash_slot):
    """Instances scheduled at or after ``crash_slot``, read off slot loads."""
    horizon = crash_slot + 4 * protocol.n_segments + 64
    return sum(protocol.slot_load(slot) for slot in range(crash_slot, horizon))


def make_server(server_id, titles=(0,), capacity=10):
    return CappedServer(
        ServerSpec(server_id, capacity),
        list(titles),
        lambda title: DHBProtocol(n_segments=6),
    )


class TestFaultSchedule:
    def test_window_validation(self):
        with pytest.raises(ClusterError):
            CrashWindow(server_id=0, start_slot=5, end_slot=5)
        with pytest.raises(ClusterError):
            ChannelLoss(server_id=0, start_slot=0, end_slot=4, fraction=1.5)
        with pytest.raises(ClusterError, match="overlapping"):
            FaultSchedule(
                crashes=(
                    CrashWindow(0, 10, 20),
                    CrashWindow(0, 15, 25),
                )
            )

    def test_validate_against_topology(self):
        topology = uniform_topology(2, capacity=8, n_titles=2)
        schedule = FaultSchedule(crashes=(CrashWindow(9, 1, 5),))
        with pytest.raises(ClusterError, match="unknown server"):
            schedule.validate_against(topology)

    def test_transitions(self):
        schedule = FaultSchedule(crashes=(CrashWindow(1, 10, 20),))
        assert schedule.crashes_at(10) == [1]
        assert schedule.recoveries_at(20) == [1]

    def test_effective_capacity_worst_loss_wins(self):
        schedule = FaultSchedule(
            losses=(
                ChannelLoss(0, 10, 30, fraction=0.25),
                ChannelLoss(0, 20, 40, fraction=0.5),
            )
        )
        assert schedule.effective_capacity(0, 16, 5) == 16
        assert schedule.effective_capacity(0, 16, 15) == 12
        assert schedule.effective_capacity(0, 16, 25) == 8  # overlap: max fraction
        assert schedule.effective_capacity(1, 16, 25) == 16

    def test_random_schedule_is_deterministic(self):
        topology = uniform_topology(4, capacity=8, n_titles=4)
        first = random_fault_schedule(
            topology, 400, RandomStreams(7).get("faults"), n_crashes=2
        )
        second = random_fault_schedule(
            topology, 400, RandomStreams(7).get("faults"), n_crashes=2
        )
        assert first == second
        assert len(first.crashes) == 2
        victims = {crash.server_id for crash in first.crashes}
        assert len(victims) == 2
        for crash in first.crashes:
            assert 100 <= crash.start_slot < 300
            assert crash.end_slot <= 400


class TestDegradedMode:
    def test_supports_rescheduling_is_dhb_gated(self):
        assert supports_rescheduling(DHBProtocol(n_segments=4))
        assert not supports_rescheduling(
            UniversalDistributionProtocol(n_segments=4)
        )

    def test_lost_instances_enumerates_future_only(self):
        server = make_server(0)
        server.admit(0, slot=0)  # S_j scheduled in slot j for j=1..6
        lost = lost_instances(server, crash_slot=3)
        assert {(i.segment, i.due_slot) for i in lost} == {
            (3, 3), (4, 4), (5, 5), (6, 6)
        }

    def test_reschedule_shares_or_places_within_window(self):
        target = DHBProtocol(n_segments=6)
        target.handle_request(slot=0)  # S_4 already due in slot 4
        slot, shared = reschedule_instance(target, crash_slot=3, segment=4, due_slot=4)
        assert shared and slot == 4
        # S_1's instance (slot 1) is past; a fresh one must land in [3, 5].
        slot, shared = reschedule_instance(target, crash_slot=3, segment=1, due_slot=5)
        assert not shared and 3 <= slot <= 5
        assert target.schedule.load(slot) >= 1

    def test_reschedule_rejects_non_dhb(self):
        with pytest.raises(ClusterError, match="reschedule"):
            reschedule_instance(
                UniversalDistributionProtocol(n_segments=4),
                crash_slot=1,
                segment=1,
                due_slot=2,
            )

    def test_fail_over_moves_every_lost_instance(self):
        crashed = make_server(0)
        survivor = make_server(1)
        crashed.admit(0, slot=0)
        report = fail_over(crashed, lambda title: [survivor], crash_slot=3)
        assert report.crashed_server == 0
        assert report.lost_for_good == 0
        assert len(report.events) == 4  # S_3..S_6 were still owed
        assert survivor.failover_clients_in == 4
        assert not crashed.alive
        for event in report.events:
            assert event.to_server == 1
            assert 3 <= event.placed_slot <= event.due_slot

    def test_fail_over_counts_unrecoverable_titles(self):
        crashed = make_server(0)
        crashed.admit(0, slot=0)
        report = fail_over(crashed, lambda title: [], crash_slot=2)
        assert report.lost_for_good == 5  # S_2..S_6
        assert report.events == []


class TestLostInstancesEnumeratesEveryOwedInstance:
    """A segment with two future instances loses both in a crash."""

    def test_adaptive_after_slack_drop(self):
        protocol = AdaptiveDHBProtocol(20, ((0.0, 0), (2.0, 6)), epoch_slots=4)
        for slot in range(45):
            protocol.handle_batch(slot, 4)
        protocol.handle_request(49)  # still slack 6: instances up to 49+j+6
        protocol.handle_request(54)  # slack drops to 0: windows shrink
        assert protocol.retunes[-1].slot == 54
        assert protocol.retunes[-1].new_slack == 0
        lost = lost_instances(hosting(protocol), crash_slot=55)
        assert len(lost) == owed(protocol, 55) > protocol.n_segments

    def test_interactive_resume(self):
        protocol = InteractiveDHB(6)
        protocol.handle_request(0)
        protocol.handle_request(0, start_segment=6)  # S6 twice: slots 1, 6
        lost = lost_instances(hosting(protocol), crash_slot=1)
        assert len(lost) == owed(protocol, 1) == 7
        assert [(i.segment, i.due_slot) for i in lost][-2:] == [(6, 1), (6, 6)]

    def test_static_survivor_of_an_earlier_failover(self):
        protocol = DHBProtocol(n_segments=20)
        for slot in range(5):
            protocol.handle_request(slot)
        # A failover placement lands before the survivor's own S20.
        own = protocol.schedule.next_transmission(20)
        placed, shared = reschedule_instance(protocol, 6, segment=20, due_slot=8)
        assert not shared and placed < own
        lost = lost_instances(hosting(protocol), crash_slot=6)
        assert len(lost) == owed(protocol, 6) == 19
        assert [i.due_slot for i in lost if i.segment == 20] == [placed, own]

    def test_adaptive_admissions_share_failover_placements(self):
        protocol = AdaptiveDHBProtocol(8, ((0.0, 0),), track_clients=True)
        protocol.handle_request(0)  # S_j at slot j
        placed, shared = reschedule_instance(protocol, 4, segment=3, due_slot=6)
        assert not shared and 4 <= placed <= 6
        plan = protocol.handle_request(4)  # needs S3 in (4, 7]
        assert plan.shared[3] and plan.assignments[3] == placed
