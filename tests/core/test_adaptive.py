"""Tests for repro.core.adaptive: the retuning protocol's guarantees.

The load-bearing properties:

1. **Zero loss across retunes** — every admitted client receives every
   segment strictly after its arrival slot and no later than
   ``arrival + j + S_admit`` where ``S_admit`` is the slack in force at
   its admission, for arbitrary traces and ladders (hypothesis).
2. **No double-scheduling** — within one slot a segment is placed at
   most once; the schedule's instance count equals the protocol's
   placement count.
3. **Static equivalence** — with a single zero-slack rung the protocol
   is bit-for-bit DHBProtocol (as are fresh-only interactive DHB and a
   receive cap above n: every variant runs DHB's admission kernel).
4. **Batch/scalar equivalence** — the batched admission path matches
   one-by-one admission exactly (schedule, retunes, counters), for every
   DHB variant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    AdaptiveDHBProtocol,
    SlotRateEstimator,
    default_slack_ladder,
)
from repro.core.bandwidth_limited import BandwidthLimitedDHB
from repro.core.dhb import DHBProtocol
from repro.core.interactive import InteractiveDHB
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

request_traces = st.lists(st.integers(0, 120), min_size=1, max_size=120).map(sorted)


@st.composite
def slack_ladders(draw):
    """Valid ladders: threshold 0 first, strictly increasing, slacks >= 0."""
    n_rungs = draw(st.integers(1, 4))
    thresholds = [0.0]
    for _ in range(n_rungs - 1):
        thresholds.append(thresholds[-1] + draw(st.floats(0.5, 4.0)))
    slacks = [draw(st.integers(0, 12)) for _ in range(n_rungs)]
    return tuple(zip(thresholds, slacks))


# ---------------------------------------------------------------------------
# SlotRateEstimator
# ---------------------------------------------------------------------------

def test_estimator_batch_equals_scalar():
    batched, scalar = SlotRateEstimator(0.3), SlotRateEstimator(0.3)
    batched.add(2, 4)
    for _ in range(4):
        scalar.add(2)
    assert batched.estimate_before(5) == scalar.estimate_before(5)


def test_estimator_decays_over_empty_slots():
    estimator = SlotRateEstimator(0.5)
    estimator.add(0, 8)
    near = estimator.estimate_before(1)
    far = estimator.estimate_before(10)
    assert near == pytest.approx(4.0)
    assert 0 < far < near


def test_estimate_before_is_pure():
    estimator = SlotRateEstimator(0.25)
    estimator.add(3, 2)
    first = estimator.estimate_before(7)
    assert estimator.estimate_before(7) == first
    estimator.add(4, 1)  # still legal after the peeks
    assert estimator.estimate_before(7) != first or first == 0.0


def test_estimator_rejects_decreasing_slots():
    estimator = SlotRateEstimator(0.2)
    estimator.add(5)
    with pytest.raises(ConfigurationError):
        estimator.add(4)


def test_estimator_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        SlotRateEstimator(0.0)
    with pytest.raises(ConfigurationError):
        SlotRateEstimator(1.5)


# ---------------------------------------------------------------------------
# Construction validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "ladder",
    [
        (),
        ((1.0, 0),),                 # first threshold must be 0
        ((0.0, 0), (0.0, 3)),        # thresholds strictly increasing
        ((0.0, 0), (2.0, -1)),       # negative slack
    ],
)
def test_invalid_ladders_rejected(ladder):
    with pytest.raises(ConfigurationError):
        AdaptiveDHBProtocol(10, slack_ladder=ladder)


def test_default_ladder_shape():
    ladder = default_slack_ladder(99)
    assert ladder[0] == (0.0, 0)
    assert [t for t, _ in ladder] == sorted({t for t, _ in ladder})
    assert all(s >= 0 for _, s in ladder)


# ---------------------------------------------------------------------------
# Static equivalence at zero slack
# ---------------------------------------------------------------------------

#: Configurations that must reduce to static DHB on fresh requests.
STATIC_EQUIVALENTS = {
    "zero-slack adaptive": lambda n: AdaptiveDHBProtocol(n, slack_ladder=((0.0, 0),)),
    "fresh-only interactive": lambda n: InteractiveDHB(n),
    "cap above n": lambda n: BandwidthLimitedDHB(n, client_cap=n + 1),
}


@settings(max_examples=100, deadline=None)
@given(
    trace=request_traces,
    n_segments=st.integers(1, 20),
    variant=st.sampled_from(sorted(STATIC_EQUIVALENTS)),
)
def test_zero_slack_is_static_dhb(trace, n_segments, variant):
    adaptive = STATIC_EQUIVALENTS[variant](n_segments)
    static = DHBProtocol(n_segments)
    for slot in trace:
        adaptive.handle_request(slot)
        static.handle_request(slot)
    horizon = trace[-1] + n_segments + 1
    for slot in range(horizon):
        assert adaptive.slot_load(slot) == static.slot_load(slot)
        assert adaptive.slot_instances(slot) == static.slot_instances(slot)
    assert getattr(adaptive, "retunes", []) == []


# ---------------------------------------------------------------------------
# Zero loss / no double-scheduling across retunes (the tentpole property)
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(trace=request_traces, n_segments=st.integers(1, 16), ladder=slack_ladders())
def test_retune_never_drops_or_double_schedules(trace, n_segments, ladder):
    protocol = AdaptiveDHBProtocol(
        n_segments, slack_ladder=ladder, epoch_slots=4, track_clients=True
    )
    for slot in trace:
        protocol.handle_request(slot)
    assert len(protocol.clients) == len(trace) == len(protocol.client_slacks)
    max_ladder_slack = max(s for _, s in ladder)
    for plan, slack in zip(protocol.clients, protocol.client_slacks):
        assert slack <= max_ladder_slack
        for segment in range(1, n_segments + 1):
            slot = plan.assignments[segment]
            # Owed instance honored: strictly future, inside the window
            # that was in force at admission time — regardless of any
            # retune (up or down) that happened afterwards.
            assert plan.arrival_slot < slot <= plan.arrival_slot + segment + slack
            # And actually present in the transmission schedule.
            assert segment in protocol.slot_instances(slot)
    # No double-scheduling: each scheduled instance is transmitted once
    # and the schedule's totals agree with per-slot loads.
    horizon = trace[-1] + n_segments + max_ladder_slack + 2
    total = sum(protocol.slot_load(slot) for slot in range(horizon))
    assert total == protocol.schedule.total_instances
    for slot in range(horizon):
        instances = protocol.slot_instances(slot)
        assert len(instances) == len(set(instances))


#: Every DHB variant, built from (n_segments, slack ladder).
VARIANTS = {
    "adaptive": lambda n, ladder: AdaptiveDHBProtocol(
        n, slack_ladder=ladder, epoch_slots=4
    ),
    "static": lambda n, ladder: DHBProtocol(n),
    "interactive": lambda n, ladder: InteractiveDHB(n),
    "capped": lambda n, ladder: BandwidthLimitedDHB(n, client_cap=2),
}


@settings(max_examples=100, deadline=None)
@given(
    trace=request_traces,
    n_segments=st.integers(1, 16),
    ladder=slack_ladders(),
    variant=st.sampled_from(sorted(VARIANTS)),
)
def test_batch_equals_scalar(trace, n_segments, ladder, variant):
    scalar = VARIANTS[variant](n_segments, ladder)
    batched = VARIANTS[variant](n_segments, ladder)
    for slot in trace:
        scalar.handle_request(slot)
    slots, counts = np.unique(np.asarray(trace), return_counts=True)
    for slot, count in zip(slots, counts):
        batched.handle_batch(int(slot), int(count))
    horizon = trace[-1] + n_segments + max(s for _, s in ladder) + 2
    for slot in range(horizon):
        assert scalar.slot_instances(slot) == batched.slot_instances(slot)
    assert scalar.schedule.total_instances == batched.schedule.total_instances
    assert scalar.requests_admitted == batched.requests_admitted
    if variant == "adaptive":
        assert scalar.retunes == batched.retunes
        assert scalar.max_slack_used == batched.max_slack_used


# ---------------------------------------------------------------------------
# Retuning behavior and bandwidth payoff
# ---------------------------------------------------------------------------

def test_retunes_fire_only_at_epoch_boundaries():
    protocol = AdaptiveDHBProtocol(
        20, slack_ladder=((0.0, 0), (2.0, 6)), epoch_slots=8, alpha=0.5
    )
    for slot in range(8):  # 3 requests/slot throughout epoch 0
        protocol.handle_batch(slot, 3)
    assert protocol.slack == 0  # epoch 0: no signal yet at first admission
    protocol.handle_request(8)  # first admission of epoch 1 retunes
    assert protocol.slack == 6
    assert len(protocol.retunes) == 1
    event = protocol.retunes[0]
    assert event.slot == 8 and event.old_slack == 0 and event.new_slack == 6
    assert event.estimated_rate >= 2.0


def test_slack_retunes_down_when_demand_fades():
    protocol = AdaptiveDHBProtocol(
        20, slack_ladder=((0.0, 0), (2.0, 6)), epoch_slots=4
    )
    for slot in range(8):
        protocol.handle_batch(slot, 4)
    protocol.handle_request(8)
    assert protocol.slack == 6
    # A long quiet stretch decays the EWMA back below the rung.
    protocol.handle_request(200)
    assert protocol.slack == 0
    assert protocol.max_slack_used == 6
    assert [e.new_slack for e in protocol.retunes] == [6, 0]


def test_saturated_slack_lowers_bandwidth_vs_static():
    """One request per slot saturates DHB at H(n); slack must beat it."""
    adaptive = AdaptiveDHBProtocol(
        40, slack_ladder=((0.0, 0), (0.5, 10)), epoch_slots=4
    )
    static = DHBProtocol(40)
    for slot in range(600):
        adaptive.handle_request(slot)
        static.handle_request(slot)
    window = range(200, 600)  # steady state, past the retune
    adaptive_mean = sum(adaptive.slot_load(s) for s in window) / len(window)
    static_mean = sum(static.slot_load(s) for s in window) / len(window)
    assert adaptive_mean < static_mean


def test_metrics_counters_emitted():
    registry = MetricsRegistry()
    protocol = AdaptiveDHBProtocol(10, slack_ladder=((0.0, 0), (0.5, 4)))
    protocol.bind_metrics(registry)
    for slot in range(40):
        protocol.handle_request(slot)
    snapshot = registry.to_dict()["counters"]
    assert snapshot["protocol.requests"] == 40
    assert snapshot["protocol.instances_scheduled"] == protocol.schedule.total_instances
    assert snapshot["protocol.retunes"] == len(protocol.retunes) >= 1


def test_release_before_keeps_serving():
    protocol = AdaptiveDHBProtocol(8, slack_ladder=((0.0, 0), (1.0, 3)))
    for slot in range(50):
        protocol.handle_request(slot)
    protocol.release_before(40)
    protocol.handle_request(60)  # future lists self-prune; no stale sharing
    assert protocol.slot_load(61) >= 0


def test_repr_mentions_slack_and_retunes():
    protocol = AdaptiveDHBProtocol(10)
    text = repr(protocol)
    assert "AdaptiveDHBProtocol" in text and "slack=0" in text
