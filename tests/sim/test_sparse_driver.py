"""The occupied-slot driver against the per-request reference, on edge cases.

``SlottedSimulation.run`` visits only the occupied slots, admitting each
one's batch; once per block of occupied slots it reads the block's loads
and weights with one bulk read each, traces and releases, and it folds
waits in request chunks outside the slot loop.  Each case here runs every
feed (array, list, traced, per-request admission) through
:func:`tests.sim.test_columnar.run_against_reference`, which demands the
reference loop's result and trace records exactly.
"""

import numpy as np
import pytest

from repro.core.dhb import DHBProtocol
from repro.core.variants import dhb_c
from repro.protocols.dsb import DynamicSkyscraperProtocol
from repro.protocols.npb import NewPagodaBroadcasting
from repro.protocols.ud import UniversalDistributionProtocol
from repro.runtime.seeds import arrival_trace
from repro.sim import slotted
from repro.sim.slotted import SlottedSimulation
from repro.video.matrix import matrix_like_video

from .test_columnar import FEEDS, LoopProtocol, run_against_reference

D, HORIZON, WARMUP = 10.0, 60, 6

PROTOCOLS = {
    "dhb": lambda: DHBProtocol(n_segments=8),
    "ud": lambda: UniversalDistributionProtocol(n_segments=8),
    "dsb": lambda: DynamicSkyscraperProtocol(n_segments=8),
    "npb-partial": lambda: NewPagodaBroadcasting(n_streams=3, n_segments=7),
    "loop": LoopProtocol,
}

TRACES = {
    # Long silences between short bursts.
    "sparse": [3.0, 4.5, 251.0, 252.0, 252.5, 590.0],
    "only-in-warmup": [0.5, 12.0, 33.0, 59.9],
    "first-after-warmup": [60.0, 61.0, 400.0],
    # Exactly on slot boundaries, and before the epoch.
    "on-boundaries": [-20.0, -0.0, 0.0, 10.0, 60.0, 70.0, 70.0, 590.0],
    "last-slot-only": [591.0, 599.5],
    "empty": [],
}


def cases():
    return [
        pytest.param(name, trace, feed, id=f"{name}-{trace}-{feed}")
        for name in sorted(PROTOCOLS)
        for trace in sorted(TRACES)
        for feed in FEEDS
    ]


@pytest.mark.parametrize("name, trace, feed", cases())
def test_edge_traces_match_reference(name, trace, feed):
    arrivals = np.array(TRACES[trace], dtype=np.float64)
    run_against_reference(PROTOCOLS[name], arrivals, feed, D, HORIZON, WARMUP)


@pytest.mark.parametrize("feed", FEEDS)
@pytest.mark.parametrize("name", ["dhb", "dsb"])
def test_low_rate_poisson_over_long_horizon(name, feed):
    # Figure 7's low end: 1 request/hour in 72.7 s slots, ~98% empty.
    d = 7200.0 / 99
    arrivals = arrival_trace(7, workload=1.0, horizon_hours=60.0)
    run_against_reference(PROTOCOLS[name], arrivals, feed, d, 3000, 99)


@pytest.mark.parametrize("feed", FEEDS)
def test_weighted_fig9_variant(feed):
    variant = dhb_c(matrix_like_video(), 60.0)
    arrivals = arrival_trace(3, workload=20.0, horizon_hours=8.0)
    result = run_against_reference(
        variant.build_protocol, arrivals, feed, variant.slot_duration, 480, 134
    )
    assert result.mean_weight != result.mean_streams  # bytes, not streams


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("trace", ["sparse", "on-boundaries", "poisson"])
def test_wait_chunk_seams(monkeypatch, chunk, trace):
    monkeypatch.setattr(slotted, "_WAIT_CHUNK", chunk)
    if trace == "poisson":
        arrivals = arrival_trace(4, workload=1800.0, horizon_hours=1.0)
        arrivals = arrivals[arrivals < 600.0]
    else:
        arrivals = np.array(TRACES[trace])
    # A warmup of 0 starts the first chunk at the first request in slot 0's
    # bucket, after the arrivals before the epoch (on-boundaries: -20.0).
    for warmup in (WARMUP, 0):
        for feed in FEEDS:
            run_against_reference(PROTOCOLS["dhb"], arrivals, feed, D, HORIZON, warmup)


@pytest.mark.parametrize("block", [1, 2, 7, slotted._BLOCK])
@pytest.mark.parametrize("trace", sorted(TRACES) + ["poisson"])
def test_block_seams(monkeypatch, block, trace):
    """Upkeep per block of occupied slots equals the per-slot reference at
    any block size: seams between blocks, a block ending on the horizon, a
    block of one slot."""
    monkeypatch.setattr(slotted, "_BLOCK", block)
    if trace == "poisson":
        arrivals = arrival_trace(4, workload=1800.0, horizon_hours=1.0)
        arrivals = arrivals[arrivals < 600.0]
    else:
        arrivals = np.array(TRACES[trace])
    for name in sorted(PROTOCOLS):
        for feed in FEEDS:
            run_against_reference(PROTOCOLS[name], arrivals, feed, D, HORIZON, WARMUP)


class ReleaseSpy(DHBProtocol):
    """DHB that logs every release and every admitted batch."""

    def __init__(self):
        super().__init__(n_segments=8)
        self.releases = []
        self.batches = []

    def handle_batch(self, slot, count):
        self.batches.append(slot)
        super().handle_batch(slot, count)

    def release_before(self, slot):
        self.releases.append(slot)
        super().release_before(slot)


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_release_once_per_run_and_monotone(monkeypatch, trace):
    for block in (1, 2, 3, slotted._BLOCK):
        monkeypatch.setattr(slotted, "_BLOCK", block)
        protocol = ReleaseSpy()
        SlottedSimulation(protocol, D, HORIZON, WARMUP).run(np.array(TRACES[trace]))
        releases = protocol.releases
        assert releases == sorted(releases)
        assert protocol.batches == sorted(set(protocol.batches))  # one per slot
        # One release per block of occupied slots (the horizon closes the
        # last), below the block's last slot.
        ends = protocol.batches + [HORIZON]
        blocks = [ends[begin : begin + block] for begin in range(0, len(ends), block)]
        assert releases == [min(slots[-1], HORIZON - 1) for slots in blocks]
        # The run ends where the per-slot loop ends: released below the last slot.
        assert releases[-1] == HORIZON - 1
