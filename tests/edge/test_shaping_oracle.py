"""The index-based policy shaper against its dict-keyed reference.

``shaping_reference.ReferenceShaper`` is the shaper before the per-arrival
path was made allocation-free (``max(..., key=(credit, -i))``
classification, name-keyed buckets and counters).  The production shaper
must agree with it exactly, request by request: the class chosen, the
deferral returned, every bucket level and every per-class counter.  The
production side shapes the same requests as runs of random length through
``PolicyShaper.shape``, slot starts inside and between the runs.  Class
sets are drawn with tied weights, zero uplink shares and fractional
uplinks; the same property runs again with the array replays forced into
tiny windows and fed wrong guesses.  Long deterministic runs (100k requests per class set, in
runs of up to 5,000) hold the shaper to the reference where its array
replays do most of the work: buckets in debt, buckets back at capacity at
every refill, and the two alternating.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import shaping
from repro.edge.shaping import PolicyShaper, TrafficClass

from .shaping_reference import ReferenceShaper

COUNTERS = ("requests", "deferrals", "deferral_slots", "bypassed")


@st.composite
def class_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    # Few distinct weights, so ties between classes are common.
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
            min_size=n,
            max_size=n,
        )
    )
    total = sum(raw)
    shares = [share / total if total > 1.0 else share for share in raw]
    return tuple(
        TrafficClass(f"c{i}", weight=weight, uplink_share=share)
        for i, (weight, share) in enumerate(zip(weights, shares))
    )


STEPS = st.lists(
    st.one_of(
        st.just(None),  # a slot boundary: refill every bucket
        st.tuples(st.booleans(), st.integers(0, 40)),  # (starts a run, cost)
    ),
    min_size=1,
    max_size=300,
)


def assert_same_state(shaper, reference):
    for counter in COUNTERS:
        assert getattr(shaper, counter) == getattr(reference, counter)
    assert shaper._credits == reference._credits
    assert shaper._levels == [
        reference._buckets[name].level for name in shaper.names
    ]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    classes=class_sets(),
    uplink=st.one_of(st.just(0.0), st.floats(0.1, 40.0)),
    burst=st.floats(1.0, 8.0),
    steps=STEPS,
)
def test_shaper_matches_reference(classes, uplink, burst, steps):
    shaper = PolicyShaper(classes, uplink_streams=uplink, burst_slots=burst)
    reference = ReferenceShaper(classes, uplink_streams=uplink, burst_slots=burst)
    expected, got = [], []
    costs, epochs, starts = [], [], 0

    def shape_run():
        picked, defers = shaper.shape(costs, epochs, starts + 1)
        got.extend(zip((shaper.names[i] for i in picked), defers.tolist()))

    for step in steps:
        if step is None:
            reference.begin_slot()
            starts += 1
            continue
        new_run, cost = step
        expected_class = reference.classify()
        expected_defer = reference.reserve(expected_class, cost)
        # The shaper marks a shaped-out request -1 where the reference
        # returns None.
        expected.append(
            (expected_class.name, -1 if expected_defer is None else expected_defer)
        )
        if new_run:
            shape_run()
            costs, epochs, starts = [], [], 0
        costs.append(cost)
        epochs.append(starts)
    shape_run()
    assert got == expected
    assert_same_state(shaper, reference)


def test_shaper_matches_reference_in_small_windows():
    # Every run of draws replayed in arrays, and picks verified a few at a
    # time from guesses of which every third is wrong, so the hypothesis
    # runs above cross every window seam, wrong guess and clamp.
    guess = PolicyShaper._guess

    def bad_guess(self, m):
        picks = guess(self, m).copy()
        picks[::3] = (picks[::3] + 1) % len(self.classes)
        return picks

    with mock.patch.multiple(
        shaping, REPLAY_DRAWS=1, MIN_SPECULATION=1, SPECULATION_PICKS=8
    ), mock.patch.object(PolicyShaper, "_guess", bad_guess):
        test_shaper_matches_reference()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    rate=st.floats(0.5, 20.0),
    burst=st.floats(1.0, 6.0),
    runs=st.lists(
        st.lists(
            # (slot starts before the draw, its cost in bucket capacities)
            st.tuples(st.integers(0, 3), st.floats(0.0, 1.5)),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_bucket_replay_hands_over_at_the_binding_refill(rate, burst, runs):
    # One class, so every request meets the same bucket.  Draws of up to
    # one and a half capacities against refills of one rate per slot start
    # swing the bucket between debt and capacity inside a run, so replays
    # meet their first binding refill mid-run; the state is compared after
    # every run, before the next run's refills can hide a slip.
    classes = (TrafficClass("only", weight=1, uplink_share=1.0),)
    shaper = PolicyShaper(classes, uplink_streams=rate, burst_slots=burst)
    reference = ReferenceShaper(classes, uplink_streams=rate, burst_slots=burst)
    capacity = rate * burst
    with mock.patch.object(shaping, "REPLAY_DRAWS", 1):
        for run in runs:
            costs, epochs, expected = [], [], []
            for gap, size in run:
                for _ in range(gap):
                    reference.begin_slot()
                cost = int(size * capacity)
                expected.append(reference.reserve(reference.classify(), cost))
                costs.append(cost)
                epochs.append(gap + (epochs[-1] if epochs else 0))
            reference.begin_slot()
            _, defers = shaper.shape(costs, epochs, epochs[-1] + 2)
            assert defers.tolist() == expected
            assert_same_state(shaper, reference)


def test_ties_go_to_declaration_order():
    classes = (
        TrafficClass("a", weight=2, uplink_share=0.5),
        TrafficClass("b", weight=2, uplink_share=0.5),
    )
    shaper = PolicyShaper(classes, uplink_streams=4.0)
    reference = ReferenceShaper(classes, uplink_streams=4.0)
    names = [shaper.names[i] for i in shaper.shape([0] * 6, [0] * 6, 1)[0]]
    assert names == [reference.classify().name for _ in range(6)]
    assert names == ["a", "b"] * 3


# Long runs: the regimes the array replays are built for, each class set
# for at least 100k requests in runs of 1-5,000 with slot starts inside and
# between the runs.  7:3 is the stock split (its picks repeat every 10
# from the first), 1:1:1 repeats only after a transient of five picks, and
# the five tied classes repeat with a period of four times their weight
# sum, which the guess has to find.
LONG_CLASS_SETS = {
    "7:3": ((7, 0.7), (3, 0.3)),
    "1:1:1": ((1, 0.5), (1, 0.3), (1, 0.2)),
    "2:2:3:3:1": ((2, 0.3), (2, 0.25), (3, 0.2), (3, 0.15), (1, 0.1)),
}
LONG_UPLINK = 16.0
LONG_REQUESTS = 100_000


def _class_set(name):
    return tuple(
        TrafficClass(f"c{i}", weight=weight, uplink_share=share)
        for i, (weight, share) in enumerate(LONG_CLASS_SETS[name])
    )


@functools.lru_cache(maxsize=None)
def reference_classes(name):
    """The reference's first ``LONG_REQUESTS`` classes and its end state.

    Classification reads no bucket, so every regime shares it.
    """
    reference = ReferenceShaper(_class_set(name))
    classes = reference.classes
    indices = [classes.index(reference.classify()) for _ in range(LONG_REQUESTS)]
    return np.array(indices), list(reference._credits), dict(reference.requests)


def _heavy(rng, n):
    # ~2.5 requests per slot at 20-60 tokens each against 16 per slot.
    return rng.integers(20, 61, n), rng.binomial(1, 0.4, n)


def _light(rng, n, most):
    # At most the smallest class rate per request and a slot start before
    # each: a bucket is back at capacity at every refill.
    return rng.integers(0, most + 1, n), np.ones(n, dtype=np.int64)


def long_requests(regime, name, seed=7):
    """``(costs, gaps)``: request ``i`` comes after ``gaps[i]`` slot starts."""
    rng = np.random.default_rng(seed)
    most = int(min(share for _, share in LONG_CLASS_SETS[name]) * LONG_UPLINK)
    if regime == "indebted":
        return _heavy(rng, LONG_REQUESTS)
    if regime == "idle":
        return _light(rng, LONG_REQUESTS, most)
    # Alternating: bursts that run the buckets into debt, then a quiet
    # stretch that refills some of them to capacity, with light traffic.
    costs, gaps = [], []
    while sum(map(len, costs)) < LONG_REQUESTS:
        burst = _heavy(rng, int(rng.integers(100, 1_000)))
        quiet = _light(rng, int(rng.integers(200, 2_000)), most)
        quiet[1][0] += int(rng.integers(0, 4_000))
        for part in (burst, quiet):
            costs.append(part[0])
            gaps.append(part[1])
    return np.concatenate(costs)[:LONG_REQUESTS], np.concatenate(gaps)[:LONG_REQUESTS]


@pytest.mark.parametrize("regime", ["indebted", "idle", "alternating"])
@pytest.mark.parametrize("name", list(LONG_CLASS_SETS))
def test_long_runs_match_reference(name, regime):
    classes = _class_set(name)
    expected_classes, credits, requests = reference_classes(name)
    costs, gaps = long_requests(regime, name)
    # The reference's buckets, fed the shared classes.
    buckets = ReferenceShaper(classes, uplink_streams=LONG_UPLINK)
    expected_defers = np.empty(len(costs), dtype=np.int64)
    for i, (index, cost, gap) in enumerate(
        zip(expected_classes.tolist(), costs.tolist(), gaps.tolist())
    ):
        for _ in range(gap):
            buckets.begin_slot()
        expected_defers[i] = buckets.reserve(classes[index], cost)
    trailing = 3
    for _ in range(trailing):
        buckets.begin_slot()

    shaper = PolicyShaper(classes, uplink_streams=LONG_UPLINK)
    rng = np.random.default_rng(11)
    starts = np.cumsum(gaps)  # slot starts before each request
    picked, deferred = [], []
    first = done = 0
    while first < len(costs):
        last = min(len(costs), first + int(rng.integers(1, 5_001)))
        # A run ends with the slot starts before the next run's first
        # request (or the trailing ones).
        end = starts[last] if last < len(costs) else starts[-1] + trailing
        run_classes, run_defers = shaper.shape(
            costs[first:last], starts[first:last] - done, int(end - done) + 1
        )
        picked.append(run_classes)
        deferred.append(run_defers)
        first, done = last, end
    assert np.array_equal(np.concatenate(picked), expected_classes)
    assert np.array_equal(np.concatenate(deferred), expected_defers)
    assert shaper.requests == requests
    assert shaper._credits == credits
    for counter in ("deferrals", "deferral_slots", "bypassed"):
        assert getattr(shaper, counter) == getattr(buckets, counter)
    assert shaper._levels == [buckets._buckets[cls.name].level for cls in classes]
    # Each regime is what it says: every draw deferred, none, or a mix.
    share = np.count_nonzero(expected_defers) / len(costs)
    low, high = {"indebted": (0.99, 1.0), "idle": (0.0, 0.0), "alternating": (0.2, 0.8)}[regime]
    assert low <= share <= high


def test_weights_past_the_history_hand_out_the_recurrence():
    # Σ weights 8,000 exceeds the history a lag is looked for in, so the
    # shaper hands out the per-request recurrence's picks and credits.
    classes = (TrafficClass("a", weight=5000, uplink_share=0.6),
               TrafficClass("b", weight=3000, uplink_share=0.4))
    assert 8000 > shaping.HISTORY_PICKS
    reference = ReferenceShaper(classes)
    shaper = PolicyShaper(classes)
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 2_000))
        want = [classes.index(reference.classify()) for _ in range(n)]
        assert shaper._picks(n).tolist() == want
        assert shaper._credits == reference._credits
    assert shaper.requests == reference.requests
