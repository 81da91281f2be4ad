"""The train maps of FB, SB and NPB against their expanded patterns.

``pattern_reference`` keeps every stream as an explicit list of segments,
expanded to the lcm of that stream's train periods.  Each train stream
repeats with that same length, so comparing ``segment_at`` over one pattern
length per stream covers the map's whole hyperperiod.  ``segments_in_slot``
is compared slot by slot, with the reference's idle zeros dropped.
"""

import random
from math import lcm

import pytest

from repro.protocols.fb import fb_map
from repro.protocols.npb import pagoda_map
from repro.protocols.sb import sb_map

from . import pattern_reference as ref

CASES = (
    [("fb", (k,), fb_map, ref.fb_patterns) for k in range(1, 8)]
    + [("fb", (7, 99), fb_map, ref.fb_patterns)]
    + [("sb", (k,), sb_map, ref.sb_patterns) for k in range(1, 9)]
    + [("npb", (k,), pagoda_map, ref.pagoda_patterns) for k in range(1, 6)]
    + [("npb", (6, 99), pagoda_map, ref.pagoda_patterns)]
)


def assert_same_slots(trains, patterns, slots):
    for slot in slots:
        expected = [s for s in patterns.segments_in_slot(slot) if s != ref.IDLE]
        assert trains.segments_in_slot(slot) == expected, slot


@pytest.mark.parametrize(
    "build, reference, args",
    [(build, reference, args) for _, args, build, reference in CASES],
    ids=[f"{name}{args}" for name, args, _, _ in CASES],
)
def test_trains_equal_expanded_patterns_over_a_hyperperiod(build, reference, args):
    trains, patterns = build(*args), reference(*args)
    assert (trains.n_streams, trains.n_segments) == (
        patterns.n_streams,
        patterns.n_segments,
    )
    for stream, pattern in enumerate(patterns.patterns):
        assert [trains.segment_at(stream, s) for s in range(len(pattern))] == pattern
    hyperperiod = lcm(*(len(pattern) for pattern in patterns.patterns))
    assert_same_slots(trains, patterns, range(min(hyperperiod, 30_000)))
    for segment in range(1, patterns.n_segments + 1):
        assert trains.period_of(segment) == patterns.period_of(segment)
    for n_slots in (4, 6, 64):
        assert trains.render(n_slots) == patterns.render(n_slots)


def test_six_stream_pagoda_on_sampled_slots():
    """The full six-stream map, whose last stream repeats every 7,927,920
    slots: compared on 10,000 random slots (far past one hyperperiod too)."""
    trains, patterns = pagoda_map(6), ref.pagoda_patterns(6)
    assert [len(p) for p in patterns.patterns] == [1, 16, 324, 1800, 35280, 7927920]
    rng = random.Random(2001)
    slots = [rng.randrange(10**12) for _ in range(10_000)]
    assert_same_slots(trains, patterns, slots)
    for slot in slots[:1000]:
        for stream in range(trains.n_streams):
            assert trains.segment_at(stream, slot) == patterns.segment_at(stream, slot)
    assert trains.render(64) == patterns.render(64)
