"""Columnar slotted path: batched admission == per-request, bit for bit.

Two layers of equivalence guard the hot path:

* protocol level — ``handle_batch(slot, count)`` must leave every protocol
  in exactly the state ``count`` repeated ``handle_request(slot)`` calls
  produce (hypothesis property over random admission sequences);
* driver level — ``SlottedSimulation`` must return the exact result (and
  trace records) of the per-request reference loop in
  :mod:`tests.sim.reference`, whatever the input type, with or without a
  trace sink, and with ``columnar=False``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dhb import DHBProtocol
from repro.errors import SimulationError
from repro.obs.trace import MemoryTraceSink
from repro.protocols.dnpb import DynamicPagodaProtocol
from repro.protocols.dsb import DynamicSkyscraperProtocol
from repro.protocols.fb import FastBroadcasting
from repro.protocols.ud import UniversalDistributionProtocol
from repro.runtime.seeds import arrival_trace
from repro.sim.slotted import SlottedModel, SlottedSimulation

from .reference import reference_run

N_SEGMENTS = 20

PROTOCOL_FACTORIES = {
    "dhb": lambda: DHBProtocol(n_segments=N_SEGMENTS),
    "ud": lambda: UniversalDistributionProtocol(n_segments=N_SEGMENTS),
    "dnpb": lambda: DynamicPagodaProtocol(n_segments=N_SEGMENTS),
    "dsb": lambda: DynamicSkyscraperProtocol(n_segments=N_SEGMENTS),
}


class LoopProtocol(SlottedModel):
    """A protocol with no batched override: exercises the default loop."""

    def __init__(self):
        self.loads = {}
        self.calls = []

    def handle_request(self, slot):
        self.calls.append(slot)
        self.loads[slot + 1] = self.loads.get(slot + 1, 0) + 1

    def slot_load(self, slot):
        return self.loads.get(slot, 0)

    def slot_weight(self, slot):
        return 0.75 * self.loads.get(slot, 0)  # distinct from the load


def protocol_state(protocol):
    """Observable protocol state: admissions plus per-slot loads."""
    max_slot = 200 + N_SEGMENTS + 2
    return (
        protocol.requests_admitted,
        [protocol.slot_load(slot) for slot in range(max_slot)],
        [protocol.slot_instances(slot) for slot in range(max_slot)],
    )


# Random admission sequences: slots non-decreasing (the driver's delivery
# order), batch sizes 1..8, slots bounded so state comparison stays cheap.
admission_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(1, 8)),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(deltas=admission_sequences)
def test_handle_batch_matches_repeated_handle_request(name, deltas):
    factory = PROTOCOL_FACTORIES[name]
    batched = factory()
    scalar = factory()
    slot = 0
    for delta, count in deltas:
        slot += delta
        batched.handle_batch(slot, count)
        for _ in range(count):
            scalar.handle_request(slot)
    assert protocol_state(batched) == protocol_state(scalar)


def test_default_handle_batch_loops_over_handle_request():
    protocol = LoopProtocol()
    protocol.handle_batch(3, 4)
    assert protocol.calls == [3, 3, 3, 3]


#: Ways to feed the driver: numpy array, plain list, array with a trace
#: sink attached, array admitted through the base per-request loop.
FEEDS = ("array", "list", "traced", "per_request")


def run_against_reference(make_protocol, arrivals, feed="array", d=10.0,
                          horizon=60, warmup=6):
    """Run the driver on one feed and assert it equals the reference loop."""
    sink = MemoryTraceSink() if feed == "traced" else None
    result = SlottedSimulation(
        make_protocol(), d, horizon, warmup, keep_series=True, trace=sink,
        columnar=feed != "per_request",
    ).run(arrivals.tolist() if feed == "list" else arrivals)
    expected, records = reference_run(make_protocol(), arrivals, d, horizon, warmup)
    assert result.columnar is (feed != "per_request")
    assert dataclasses.replace(result, columnar=False) == expected
    if sink is not None:
        assert sink.records == records
    return result


def feed_cases(names):
    """``(name, feed)`` cases; the array feed keeps the bare name as its id."""
    return [
        pytest.param(name, feed, id=name if feed == "array" else f"{name}-{feed}")
        for name in names
        for feed in FEEDS
    ]


@pytest.mark.parametrize("name, feed", feed_cases(sorted(PROTOCOL_FACTORIES)))
def test_driver_paths_agree_on_poisson_traces(name, feed):
    for seed in (1, 2, 3):
        arrivals = arrival_trace(seed, workload=1800.0, horizon_hours=1.0)
        arrivals = arrivals[arrivals < 600.0]
        run_against_reference(PROTOCOL_FACTORIES[name], arrivals, feed)


def test_driver_paths_agree_for_default_loop_protocol():
    arrivals = arrival_trace(9, workload=3600.0, horizon_hours=1.0)
    for feed in FEEDS:
        run_against_reference(LoopProtocol, arrivals, feed, horizon=120)


def test_fixed_protocol_batches_to_constant_load():
    arrivals = arrival_trace(5, workload=720.0, horizon_hours=1.0)
    run_against_reference(lambda: FastBroadcasting(n_segments=N_SEGMENTS), arrivals)


def test_negative_arrivals_ignored_on_both_paths():
    arrivals = np.array([-25.0, -0.5, 3.0, 14.0, 95.0])
    for feed in FEEDS:
        result = run_against_reference(
            lambda: DHBProtocol(n_segments=5), arrivals, feed, warmup=0
        )
        assert result.n_requests == 3  # the two pre-epoch arrivals are dropped


class BatchOnlyProtocol(LoopProtocol):
    """Admits whole batches; a per-request admission is a driver bug."""

    def handle_request(self, slot):
        raise AssertionError("driver admitted a request on its own")

    def handle_batch(self, slot, count):
        self.calls.append((slot, count))
        self.loads[slot + 1] = self.loads.get(slot + 1, 0) + count


@pytest.mark.parametrize("feed", ["array", "list", "traced"])
def test_driver_never_admits_request_by_request(feed):
    arrivals = arrival_trace(9, workload=3600.0, horizon_hours=1.0)
    protocol = BatchOnlyProtocol()
    result = SlottedSimulation(
        protocol, 10.0, 120, trace=MemoryTraceSink() if feed == "traced" else None
    ).run(arrivals.tolist() if feed == "list" else arrivals)
    assert result.columnar is True
    assert sum(count for _, count in protocol.calls) == result.n_requests > 1
    assert len(protocol.calls) < result.n_requests  # real batches, one per slot


class RequestOnlyProtocol(LoopProtocol):
    """Its batched override must stay unused under ``columnar=False``."""

    def handle_batch(self, slot, count):
        raise AssertionError("columnar=False called the batched override")


def test_columnar_false_forces_the_scalar_path():
    protocol = RequestOnlyProtocol()
    result = SlottedSimulation(protocol, 10.0, 10, columnar=False).run(
        np.array([3.0, 4.0, 14.0])
    )
    assert result.columnar is False
    assert protocol.calls == [0, 0, 1]  # one handle_request per arrival


def test_unsorted_numpy_trace_rejected_upfront():
    protocol = DHBProtocol(n_segments=5)
    sim = SlottedSimulation(protocol, 10.0, 10)
    with pytest.raises(SimulationError):
        sim.run(np.array([50.0, 3.0]))
    # Rejected before any delivery: the upfront check runs pre-loop.
    assert protocol.requests_admitted == 0


def test_unsorted_generic_sequence_rejected_upfront():
    protocol = DHBProtocol(n_segments=5)
    with pytest.raises(SimulationError):
        SlottedSimulation(protocol, 10.0, 10).run([3.0, 50.0, 14.0])
    assert protocol.requests_admitted == 0


@pytest.mark.parametrize(
    "arrivals",
    [
        pytest.param(np.array([[3.0, 14.0], [25.0, 36.0]]), id="2-d-array"),
        pytest.param([[3.0], [14.0]], id="nested-list"),
        pytest.param([1.0, math.nan, 3.0], id="nan-inside"),
        pytest.param([1.0, 3.0, math.nan], id="nan-last"),
        pytest.param([math.nan], id="single-nan"),
    ],
)
def test_malformed_arrivals_rejected_before_admission(arrivals):
    protocol = DHBProtocol(n_segments=5)
    with pytest.raises(SimulationError):
        SlottedSimulation(protocol, 10.0, 10).run(arrivals)
    assert protocol.requests_admitted == 0
