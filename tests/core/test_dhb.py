"""Tests for repro.core.dhb — the protocol of the paper's Figure 6."""

import pytest

from repro.errors import ConfigurationError
from repro.core.dhb import DHBProtocol
from repro.core.heuristic import always_latest_chooser
from repro.core.periods import PeriodVector


def new_instances(plan):
    """Segment instances a request forced the server to add."""
    return sum(not shared for shared in plan.shared.values())


class TestPaperFigures:
    def test_figure_4_idle_system(self):
        """A request into an idle system during slot 1 schedules S_j at j+1."""
        protocol = DHBProtocol(n_segments=6, track_clients=True)
        protocol.handle_request(slot=1)
        assert protocol.clients[0].assignments == {
            1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7
        }
        assert all(not shared for shared in protocol.clients[0].shared.values())

    def test_figure_5_second_request_shares(self):
        """A second request during slot 3 adds only S1@4 and S2@5."""
        protocol = DHBProtocol(n_segments=6, track_clients=True)
        protocol.handle_request(slot=1)
        protocol.handle_request(slot=3)
        plan = protocol.clients[1]
        new = {j: s for j, s in plan.assignments.items() if not plan.shared[j]}
        assert new == {1: 4, 2: 5}
        shared = {j: s for j, s in plan.assignments.items() if plan.shared[j]}
        assert shared == {3: 4, 4: 5, 5: 6, 6: 7}

    def test_figure_5_slot_loads(self):
        protocol = DHBProtocol(n_segments=6)
        protocol.handle_request(slot=1)
        protocol.handle_request(slot=3)
        assert [protocol.slot_load(s) for s in range(2, 8)] == [1, 1, 2, 2, 1, 1]


class TestSharing:
    def test_simultaneous_requests_fully_share(self):
        protocol = DHBProtocol(n_segments=10, track_clients=True)
        protocol.handle_request(slot=0)
        protocol.handle_request(slot=0)
        assert new_instances(protocol.clients[1]) == 0

    def test_request_far_later_shares_nothing(self):
        protocol = DHBProtocol(n_segments=5, track_clients=True)
        protocol.handle_request(slot=0)
        protocol.handle_request(slot=100)
        assert new_instances(protocol.clients[1]) == 5

    def test_sharing_disabled_duplicates_everything(self):
        protocol = DHBProtocol(n_segments=5, enable_sharing=False, track_clients=True)
        protocol.handle_request(slot=0)
        protocol.handle_request(slot=0)
        assert new_instances(protocol.clients[1]) == 5

    def test_minimum_frequency_property(self):
        """Never more than one instance of S_j within any j-slot window.

        The paper: "the protocol will never schedule more than one instance
        of segment S_i once every i slots".
        """
        protocol = DHBProtocol(n_segments=8)
        for slot in range(0, 60):
            protocol.handle_request(slot)
        # Collect per-segment transmission slots from the raw schedule.
        per_segment = {j: [] for j in range(1, 9)}
        for slot in range(0, 80):
            for segment in protocol.schedule.segments_in(slot):
                per_segment[segment].append(slot)
        for segment, slots in per_segment.items():
            gaps = [b - a for a, b in zip(slots, slots[1:])]
            assert all(gap >= 1 for gap in gaps)
            # Under saturation, instances settle at the minimum frequency:
            # at most one per `segment` slots on average.
            interior = slots[2:-2]
            if len(interior) >= 2:
                span = interior[-1] - interior[0]
                count = len(interior) - 1
                # Mean inter-instance gap stays close to the minimum
                # frequency; 0.6 leaves room for the heuristic occasionally
                # placing an instance ahead of its latest slot.
                assert span / count >= segment * 0.6


class TestHeuristicBehaviour:
    def test_always_latest_creates_peaks(self):
        """The naive chooser stacks common-multiple slots (the 120! argument)."""
        heuristic = DHBProtocol(n_segments=12)
        naive = DHBProtocol(n_segments=12, chooser=always_latest_chooser)
        for slot in range(0, 200):
            heuristic.handle_request(slot)
            naive.handle_request(slot)
        heuristic_peak = max(heuristic.slot_load(s) for s in range(20, 220))
        naive_peak = max(naive.slot_load(s) for s in range(20, 220))
        assert naive_peak > heuristic_peak

    def test_heuristic_never_misses_deadlines(self):
        protocol = DHBProtocol(n_segments=7, track_clients=True)
        for slot in [0, 0, 1, 3, 3, 8, 20, 21, 22, 23]:
            protocol.handle_request(slot)
        for plan in protocol.clients:
            plan.verify(protocol.periods)


class TestCustomPeriods:
    def test_periods_widen_windows(self):
        protocol = DHBProtocol(periods=PeriodVector([1, 4, 4]), track_clients=True)
        protocol.handle_request(slot=0)
        plan = protocol.clients[0]
        # With the latest-tie heuristic, S2 lands at the far end of its
        # widened window [1, 4].
        assert plan.assignments[1] == 1
        assert plan.assignments[2] == 4
        assert plan.assignments[3] == 3  # least-loaded slot of [1..4] after S2@4

    def test_plan_verifies_under_custom_periods(self):
        protocol = DHBProtocol(periods=[1, 3, 3, 8], track_clients=True)
        for slot in range(10):
            protocol.handle_request(slot)
        for plan in protocol.clients:
            plan.verify(protocol.periods)


class TestConfiguration:
    def test_n_segments_property(self):
        assert DHBProtocol(n_segments=99).n_segments == 99

    def test_periods_as_list(self):
        assert DHBProtocol(periods=[1, 2, 3]).n_segments == 3

    def test_conflicting_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            DHBProtocol(n_segments=5, periods=[1, 2, 3])

    def test_missing_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            DHBProtocol()

    def test_repr(self):
        assert "uniform" in repr(DHBProtocol(n_segments=3))
        assert "custom" in repr(DHBProtocol(periods=[1, 3, 3]))


class TestWeights:
    def test_slot_weight_reports_bytes(self):
        protocol = DHBProtocol(
            n_segments=3, segment_weights=[100.0, 200.0, 300.0]
        )
        protocol.handle_request(slot=0)
        assert protocol.slot_weight(1) == pytest.approx(100.0)
        assert protocol.slot_weight(2) == pytest.approx(200.0)
        assert protocol.slot_weight(3) == pytest.approx(300.0)

    def test_default_weight_equals_load(self):
        protocol = DHBProtocol(n_segments=3)
        protocol.handle_request(slot=0)
        for slot in range(1, 4):
            assert protocol.slot_weight(slot) == protocol.slot_load(slot)


def test_release_before_keeps_future_schedule():
    protocol = DHBProtocol(n_segments=5, track_clients=True)
    protocol.handle_request(slot=0)
    protocol.release_before(3)
    protocol.handle_request(slot=3)  # shares S4, S5 scheduled at 4, 5
    plan = protocol.clients[1]
    assert plan.shared[4] and plan.shared[5]


class TestFastPathEquivalence:
    """The vectorized admission path must be indistinguishable from the
    generic chooser loop — same schedule, same counters, slot by slot."""

    @staticmethod
    def _latest_min_via_generic(protocol):
        """Force the generic chooser loop by using a distinct-but-equal callable."""
        from repro.core.heuristic import latest_min_load_chooser

        protocol.chooser = lambda load, first, last: latest_min_load_chooser(
            load, first, last
        )
        return protocol

    def test_random_trace_matches_generic_loop(self):
        import random

        rng = random.Random(1234)
        fast = DHBProtocol(n_segments=25)
        slow = self._latest_min_via_generic(DHBProtocol(n_segments=25))
        slot = 0
        for _ in range(400):
            slot += rng.choice((0, 0, 0, 1, 1, 3, 10))
            fast.handle_request(slot)
            slow.handle_request(slot)
        assert fast.requests_admitted == slow.requests_admitted == 400
        assert fast.schedule.total_instances == slow.schedule.total_instances
        horizon = slot + 30
        loads_fast = [fast.slot_load(s) for s in range(horizon)]
        loads_slow = [slow.slot_load(s) for s in range(horizon)]
        assert loads_fast == loads_slow
        for s in range(horizon):
            assert fast.schedule.segments_in(s) == slow.schedule.segments_in(s)

    def test_track_clients_uses_generic_loop_and_agrees(self):
        fast = DHBProtocol(n_segments=10)
        tracked = DHBProtocol(n_segments=10, track_clients=True)
        for slot in (0, 0, 2, 5, 5, 9):
            fast.handle_request(slot)
            tracked.handle_request(slot)
        for s in range(25):
            assert fast.schedule.segments_in(s) == tracked.schedule.segments_in(s)
