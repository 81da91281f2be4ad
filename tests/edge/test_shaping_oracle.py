"""The index-based policy shaper against its dict-keyed reference.

``shaping_reference.ReferenceShaper`` is the shaper before the per-arrival
path was made allocation-free (``max(..., key=(credit, -i))``
classification, name-keyed buckets and counters).  The production shaper
must agree with it exactly, request by request: the class chosen, the
deferral returned, every bucket level and every per-class counter.  The
production side shapes the same requests as runs of random length through
``PolicyShaper.shape``, slot starts inside and between the runs.  Class
sets are drawn with tied weights, zero uplink shares and fractional
uplinks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
