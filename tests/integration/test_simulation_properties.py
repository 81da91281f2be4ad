"""System-level property tests: driver + protocol, random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dhb import DHBProtocol
from repro.protocols.npb import NewPagodaBroadcasting
from repro.protocols.on_demand import OnDemandMapProtocol
from repro.protocols.fb import fb_map
from repro.protocols.ud import UniversalDistributionProtocol
from repro.sim.slotted import SlottedSimulation

arrival_lists = st.lists(st.floats(0.0, 999.0), min_size=0, max_size=120).map(sorted)


@settings(max_examples=60, deadline=None)
@given(times=arrival_lists, n_segments=st.integers(1, 25))
def test_dhb_simulation_invariants(times, n_segments):
    protocol = DHBProtocol(n_segments=n_segments, track_clients=True)
    sim = SlottedSimulation(protocol, slot_duration=10.0, horizon_slots=100)
    result = sim.run(times)
    # Waiting bound: nobody waits more than a slot.
    assert result.max_wait <= 10.0 + 1e-9
    # Bandwidth sanity: mean <= max, both non-negative.
    assert 0.0 <= result.mean_streams <= result.max_streams + 1e-9
    # Every admitted client is on time.
    for plan in protocol.clients:
        plan.verify(protocol.periods)
    # Total cost never exceeds the no-sharing cost.
    admitted = len(protocol.clients)
    assert protocol.schedule.total_instances <= admitted * n_segments


@settings(max_examples=40, deadline=None)
@given(times=arrival_lists)
def test_dhb_cost_monotone_in_request_volume(times):
    """Adding requests never reduces total scheduled instances."""
    base = DHBProtocol(n_segments=12)
    extended = DHBProtocol(n_segments=12)
    slots = sorted(int(t / 10.0) for t in times)
    for slot in slots:
        base.handle_request(slot)
        extended.handle_request(slot)
    for slot in slots:  # replay the trace again on top
        extended.handle_request(slot)
    assert extended.schedule.total_instances >= base.schedule.total_instances


@settings(max_examples=40, deadline=None)
@given(times=arrival_lists)
def test_ud_bounded_by_fb_allocation(times):
    """On-demand FB never transmits more than FB itself would."""
    ud = UniversalDistributionProtocol(n_segments=15)
    sim = SlottedSimulation(ud, slot_duration=10.0, horizon_slots=100)
    result = sim.run(times)
    assert result.max_streams <= ud.n_streams


@settings(max_examples=30, deadline=None)
@given(times=arrival_lists)
def test_on_demand_marks_subset_of_map(times):
    """Every transmitted occurrence exists in the underlying fixed map."""
    protocol = OnDemandMapProtocol(fb_map(4))
    slots = sorted(int(t / 10.0) for t in times)
    for slot in slots:
        protocol.handle_request(slot)
    for slot in range(0, 120):
        marked = set(protocol._schedule.segments_in(slot))
        available = set(protocol.map.segments_in_slot(slot))
        assert marked <= available


@settings(max_examples=30, deadline=None)
@given(
    times=arrival_lists,
    seed=st.integers(0, 5),
)
def test_fixed_protocol_invariant_under_workload(times, seed):
    npb = NewPagodaBroadcasting(n_streams=3)
    sim = SlottedSimulation(npb, slot_duration=10.0, horizon_slots=50)
    result = sim.run(times)
    assert result.mean_streams == 3.0
    assert result.max_streams == 3.0


@settings(max_examples=30, deadline=None)
@given(times=arrival_lists, warmup=st.integers(0, 50))
def test_warmup_never_increases_measured_mean_variability(times, warmup):
    """The run completes for any warmup below the horizon and reports a
    consistent number of measured slots."""
    protocol = DHBProtocol(n_segments=8)
    sim = SlottedSimulation(
        protocol, slot_duration=10.0, horizon_slots=60, warmup_slots=warmup
    )
    result = sim.run(times)
    assert result.slots_measured == 60 - warmup
