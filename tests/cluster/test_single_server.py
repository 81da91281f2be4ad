"""A one-server, one-title cluster is the plain slotted simulator.

With a single replica there is nothing to route, and with a capacity no
schedule reaches, nothing is deferred: the cluster loop then schedules the
same trace the same way :class:`SlottedSimulation` does.  Both drivers draw
the trace from the ``"cluster-arrivals"`` stream of the same seed, so every
count, wait and peak must agree exactly.
"""

import pytest

from repro.cluster.scenario import ClusterScenario, run_scenario
from repro.cluster.topology import uniform_topology
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Observation
from repro.protocols.registry import ProtocolContext, build_protocol
from repro.runtime.seeds import CLUSTER_ARRIVALS_STREAM
from repro.sim.rng import RandomStreams
from repro.sim.slotted import SlottedSimulation
from repro.workload.arrivals import PoissonArrivals

SEED = 7
N_SEGMENTS = 60
SLOT = 20.0
HORIZON = 720
WARMUP = 120


@pytest.mark.parametrize("rate", [30.0, 300.0, 3000.0])
@pytest.mark.parametrize("protocol", ["dhb", "ud"])
def test_one_server_cluster_is_the_simulator(protocol, rate):
    scenario = ClusterScenario(
        name="one-server",
        topology=uniform_topology(1, capacity=10_000, n_titles=1),
        protocol=protocol,
        n_segments=N_SEGMENTS,
        slot_duration=SLOT,
        horizon_slots=HORIZON,
        warmup_slots=WARMUP,
        total_rate_per_hour=rate,
        seed=SEED,
    )
    cluster_metrics = MetricsRegistry()
    cluster = run_scenario(scenario, Observation(metrics=cluster_metrics, trace=None))
    assert cluster.rejected == 0
    assert cluster.deferred_instance_slots == 0

    times = PoissonArrivals(rate).generate(
        HORIZON * SLOT, RandomStreams(SEED).get(CLUSTER_ARRIVALS_STREAM)
    )
    context = ProtocolContext(
        n_segments=N_SEGMENTS, duration=N_SEGMENTS * SLOT, rate_per_hour=rate
    )
    sim_metrics = MetricsRegistry()
    sim = SlottedSimulation(
        build_protocol(protocol, context),
        SLOT,
        HORIZON,
        warmup_slots=WARMUP,
        metrics=sim_metrics,
    ).run(times)

    requests = sim_metrics.counter("sim.requests").value
    assert requests > 0
    assert cluster.admitted == requests
    assert cluster_metrics.counter("cluster.requests").value == requests
    assert cluster.slots_measured == sim.slots_measured
    assert cluster.mean_wait == sim.mean_wait
    assert cluster.max_wait == sim.max_wait
    assert cluster.peak_streams == sim.max_streams
    # The cluster takes an exact integer sum over the slots, the simulator
    # a running float fold, so the means differ in the last digits.  An
    # exact per-run load histogram in both drivers makes this equality exact.
    assert cluster.mean_streams == pytest.approx(sim.mean_streams, rel=1e-12, abs=0)
