"""The chunked edge decision kernel against a per-arrival oracle.

``EdgeTier.decide`` decides a whole chunk of slots in one call: arrivals
dealt to nodes by stride, prefixes from a per-node table, one weighted
round-robin loop per node and one refill/draw loop per class.  The oracle
here decides the same arrivals one at a time, the way the hierarchy did
before chunking: round-robin dealing in arrival order, a prefix lookup in
the node's allocation, and ``shaping_reference.ReferenceShaper``'s
``classify``/``reserve`` with a refill at every slot start.  Every chunk
size must give the oracle's decisions and leave the oracle's end state:
WRR credits, bucket levels, per-class and per-node counters, and the
dealing turn.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.topology import EdgeSpec
from repro.edge.cache import allocate_prefixes
from repro.edge.node import EdgeNode, EdgeTier
from repro.edge.shaping import PolicyShaper, TrafficClass
from repro.workload.popularity import ZipfCatalog

from .shaping_reference import ReferenceShaper

N_SEGMENTS = 12
N_TITLES = 5
HORIZON = 150
CHUNKS = (1, 7, 64, HORIZON + 10)

TWO = (
    TrafficClass("premium", weight=7, uplink_share=0.7),
    TrafficClass("best-effort", weight=3, uplink_share=0.3),
)


@dataclasses.dataclass(frozen=True)
class Case:
    classes: tuple
    uplink: float
    cache_segments: int = 20
    n_nodes: int = 2
    rate: float = 1.5  # mean arrivals per slot


CASES = {
    "one-class": Case((TrafficClass("only", weight=1, uplink_share=1.0),), 6.0),
    "two-classes": Case(TWO, 8.0),
    "three-classes": Case(
        (
            TrafficClass("gold", weight=2, uplink_share=0.5),
            TrafficClass("silver", weight=2, uplink_share=0.3),
            TrafficClass("bronze", weight=1, uplink_share=0.2),
        ),
        7.0,
        n_nodes=3,
    ),
    "zero-share-class": Case(
        (
            TrafficClass("paid", weight=1, uplink_share=1.0),
            TrafficClass("free", weight=1, uplink_share=0.0),
        ),
        5.0,
    ),
    "uplink-0": Case(TWO, 0.0),
    # Sparse demand on a fractional uplink: the buckets sit at capacity,
    # so nearly every slot start's refill is clamped.
    "clamped-refills": Case(TWO, 2.5, rate=0.05),
    # Far more prefix segments asked than the uplink earns: the buckets
    # fall into debt early and never climb out.
    "indebted": Case(TWO, 0.7, rate=4.0),
    # Full-video prefixes: some titles are served fully at the edge.
    "full-titles": Case(TWO, 30.0, cache_segments=3 * N_SEGMENTS),
}


def workload(case, seed=11):
    """Per-slot arrival counts and titles, with empty slots and seams hit."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(case.rate, HORIZON)
    counts[20:40] = 0  # a run of empty slots
    for seam in (6, 7, 63, 64, 65):  # both sides of the 7- and 64-slot seams
        counts[seam] = max(counts[seam], 2)
    counts[128:] = 0  # an empty tail, a whole empty chunk at size 7
    titles = rng.choice(N_TITLES, int(counts.sum()), p=[0.4, 0.25, 0.15, 0.12, 0.08])
    return counts, titles


def allocation(case):
    return allocate_prefixes(
        "popularity",
        ZipfCatalog(N_TITLES, 1.0).probabilities,
        case.cache_segments,
        N_SEGMENTS,
    )


def make_tier(case):
    nodes = [
        EdgeNode(
            EdgeSpec(edge_id=i, cache_segments=case.cache_segments, uplink_streams=case.uplink),
            allocation(case),
            PolicyShaper(case.classes, case.uplink),
            slot_duration=20.0,
        )
        for i in range(case.n_nodes)
    ]
    return EdgeTier(nodes)


def oracle(case, counts, titles):
    """Decide arrival by arrival: decisions, end state and clamped refills."""
    prefixes = [allocation(case).prefixes for _ in range(case.n_nodes)]
    shapers = [ReferenceShaper(case.classes, case.uplink) for _ in range(case.n_nodes)]
    nodes = [dict(hits=0, misses=0, bypassed=0, segments_served=0) for _ in shapers]
    decisions = []
    turn = clamps = 0
    arrivals = iter(titles.tolist())
    for slot, count in enumerate(counts.tolist()):
        for shaper in shapers:
            clamps += sum(
                bucket.level + bucket.rate > bucket.capacity
                for bucket in shaper._buckets.values()
            )
            shaper.begin_slot()
        for _ in range(count):
            title = next(arrivals)
            index = turn % case.n_nodes
            turn += 1
            prefix = prefixes[index][title]
            node = nodes[index]
            if prefix <= 0:
                node["misses"] += 1
                decisions.append((0, 0))
                continue
            shaper = shapers[index]
            defer = shaper.reserve(shaper.classify(), prefix)
            if defer is None:
                node["bypassed"] += 1
                decisions.append((0, 0))
                continue
            node["hits"] += 1
            node["segments_served"] += prefix
            decisions.append((prefix, defer))
    return decisions, state_of_reference(shapers, nodes, turn), clamps


def state_of_reference(shapers, nodes, turn):
    return {
        "turn": turn,
        "nodes": nodes,
        "shapers": [
            {
                "credits": shaper._credits,
                "levels": [shaper._buckets[cls.name].level for cls in shaper.classes],
                "requests": shaper.requests,
                "deferrals": shaper.deferrals,
                "deferral_slots": shaper.deferral_slots,
                "bypassed": shaper.bypassed,
            }
            for shaper in shapers
        ],
    }


def state_of(tier):
    return {
        "turn": tier._turn,
        "nodes": [
            dict(
                hits=node.hits,
                misses=node.misses,
                bypassed=node.bypassed,
                segments_served=node.segments_served,
            )
            for node in tier.nodes
        ],
        "shapers": [
            {
                "credits": node.shaper._credits,
                "levels": node.shaper._levels,
                "requests": node.shaper.requests,
                "deferrals": node.shaper.deferrals,
                "deferral_slots": node.shaper.deferral_slots,
                "bypassed": node.shaper.bypassed,
            }
            for node in tier.nodes
        ],
    }


def decide_in_chunks(case, counts, titles, chunk):
    """Drive the tier the way the cluster loop does, ``chunk`` slots at a time."""
    tier = make_tier(case)
    starts = np.concatenate(([0], np.cumsum(counts)))
    prefix, defer = [], []
    slot = 0
    while slot < HORIZON:
        stop = min(slot + chunk, HORIZON)
        got = tier.decide(slot, counts[slot:stop], titles[starts[slot]:starts[stop]])
        prefix.extend(got[0].tolist())
        defer.extend(got[1].tolist())
        slot = stop
    return list(zip(prefix, defer)), state_of(tier)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(CASES))
def test_chunked_decisions_match_the_per_arrival_oracle(name, chunk):
    case = CASES[name]
    counts, titles = workload(case)
    expected, expected_state, _ = oracle(case, counts, titles)
    got, state = decide_in_chunks(case, counts, titles, chunk)
    assert got == expected
    assert state == expected_state


def test_the_cases_reach_what_they_are_named_for():
    # Guard the fixtures: each case really exercises its regime.
    def run(name):
        counts, titles = workload(CASES[name])
        return decide_in_chunks(CASES[name], counts, titles, 64)

    decisions, state = run("zero-share-class")
    assert all(node["bypassed"] > 0 for node in state["nodes"])
    decisions, state = run("uplink-0")
    assert all(prefix == 0 for prefix, _ in decisions)
    decisions, state = run("indebted")
    assert all(level < 0 for shaper in state["shapers"] for level in shaper["levels"])
    case = CASES["clamped-refills"]
    _, _, clamps = oracle(case, *workload(case))
    assert clamps >= 0.9 * HORIZON * case.n_nodes * len(case.classes)
    decisions, _ = run("full-titles")
    assert any(prefix == N_SEGMENTS for prefix, _ in decisions)
    _, state = run("three-classes")
    assert state["turn"] == int(workload(CASES["three-classes"])[0].sum())


def test_one_arrival_calls_are_the_kernel():
    # An empty decide per slot start plus admit per arrival, and one
    # decide per slot, agree.
    case = CASES["two-classes"]
    counts, titles = workload(case)
    expected, expected_state = decide_in_chunks(case, counts, titles, 1)
    tier = make_tier(case)
    arrivals = iter(titles.tolist())
    got = []
    for slot, count in enumerate(counts.tolist()):
        tier.decide(slot, (0,), ())
        for _ in range(count):
            decision = tier.admit(next(arrivals), 0.0, slot, 0.0)
            prefix = decision.edge_segments if decision.hit else 0
            got.append((prefix, round(decision.wait / 20.0)))
    assert got == expected
    assert state_of(tier) == expected_state
