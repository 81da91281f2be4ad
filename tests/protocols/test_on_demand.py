"""Tests for repro.protocols.on_demand — shared UD/dynamic-NPB machinery."""


from repro.protocols.base import StaticMap, Train
from repro.protocols.on_demand import OnDemandMapProtocol


def make_protocol():
    return OnDemandMapProtocol(
        StaticMap(
            {Train(0, 1, 0): 1, Train(1, 2, 0): 2, Train(1, 2, 1): 3}, n_streams=2
        )
    )


def test_idle_system_transmits_nothing():
    protocol = make_protocol()
    assert all(protocol.slot_load(s) == 0 for s in range(20))


def test_next_occurrence():
    protocol = make_protocol()
    # S2 occurs at even slots, S3 at odd slots.
    assert protocol.next_occurrence(2, 1) == 2
    assert protocol.next_occurrence(2, 2) == 2
    assert protocol.next_occurrence(2, 3) == 4
    assert protocol.next_occurrence(3, 2) == 3
    assert protocol.next_occurrence(1, 7) == 7


def test_request_marks_first_occurrences():
    protocol = make_protocol()
    protocol.handle_request(slot=0)
    # S1 at slot 1, S2 at slot 2, S3 at slot 1.
    assert protocol.slot_load(1) == 2
    assert protocol.slot_load(2) == 1
    assert protocol.slot_load(3) == 0


def test_marking_is_idempotent_sharing():
    protocol = make_protocol()
    protocol.handle_request(slot=0)
    protocol.handle_request(slot=0)
    assert protocol.slot_load(1) == 2
    assert protocol.slot_load(2) == 1


def test_saturation_reaches_full_map():
    protocol = make_protocol()
    for slot in range(20):
        protocol.handle_request(slot)
    # Past the transient, every occurrence of every stream is marked.
    loads = [protocol.slot_load(s) for s in range(5, 19)]
    assert all(load == 2 for load in loads)


def test_marked_occurrences_meet_deadlines():
    protocol = make_protocol()
    for arrival in range(10):
        protocol.handle_request(arrival)
        for segment in range(1, 4):
            occurrence = protocol.next_occurrence(segment, arrival + 1)
            assert arrival + 1 <= occurrence <= arrival + segment


def test_release_before():
    protocol = make_protocol()
    protocol.handle_request(slot=0)
    protocol.release_before(5)
    assert protocol.slot_load(1) == 0
    protocol.handle_request(slot=6)
    assert protocol.slot_load(7) > 0


def test_properties():
    protocol = make_protocol()
    assert protocol.n_segments == 3
    assert protocol.n_streams == 2
