"""Tests for repro.edge.shaping — classification and uplink metering."""

import pytest

from repro.edge.shaping import (
    DEFAULT_CLASSES,
    PolicyShaper,
    TrafficClass,
    parse_classes,
    validate_classes,
)
from repro.errors import ConfigurationError


def classify(shaper, count):
    """Class names of ``count`` requests shaped in turn."""
    classes, _ = shaper.shape([0] * count, [0] * count, 1)
    return [shaper.names[index] for index in classes]


def reserve(shaper, cost, slot_starts=0):
    """Deferral of one ``cost``-token request after ``slot_starts`` refills."""
    _, defers = shaper.shape([cost], [slot_starts], slot_starts + 1)
    return int(defers[0])


def test_classification_follows_weights():
    shaper = PolicyShaper(DEFAULT_CLASSES, uplink_streams=10.0)
    names = classify(shaper, 1000)
    assert names.count("premium") == 700
    assert names.count("best-effort") == 300


def test_classification_is_deterministic():
    first = PolicyShaper(DEFAULT_CLASSES, uplink_streams=10.0)
    second = PolicyShaper(DEFAULT_CLASSES, uplink_streams=10.0)
    assert [classify(first, 1)[0] for _ in range(50)] == classify(second, 50)


def test_classification_interleaves():
    # Weighted round-robin spreads the minority class through the stream
    # rather than batching it at the end.
    shaper = PolicyShaper(DEFAULT_CLASSES, uplink_streams=10.0)
    first_ten = classify(shaper, 10)
    assert first_ten.count("best-effort") == 3
    assert first_ten[0] == "premium"


def test_bucket_covers_burst_then_defers():
    cls = (TrafficClass("only", weight=1, uplink_share=1.0),)
    shaper = PolicyShaper(cls, uplink_streams=5.0, burst_slots=2.0)
    # Capacity is 10 tokens: two 5-segment prefixes go out immediately.
    assert reserve(shaper, 5) == 0
    assert reserve(shaper, 5) == 0
    # The bucket is empty; the next 5-cost request waits one refill.
    assert reserve(shaper, 5) == 1
    assert shaper.deferrals["only"] == 1
    assert shaper.deferral_slots["only"] == 1


def test_deferral_grows_with_debt():
    cls = (TrafficClass("only", weight=1, uplink_share=1.0),)
    shaper = PolicyShaper(cls, uplink_streams=2.0, burst_slots=1.0)
    assert reserve(shaper, 2) == 0
    assert reserve(shaper, 2) == 1
    assert reserve(shaper, 2) == 2  # debt accumulates: queueing delay


def test_refill_is_capped_at_burst():
    cls = (TrafficClass("only", weight=1, uplink_share=1.0),)
    shaper = PolicyShaper(cls, uplink_streams=4.0, burst_slots=1.0)
    # Idle slots must not bank more than one burst allowance.
    assert reserve(shaper, 4, slot_starts=10) == 0
    assert reserve(shaper, 4) == 1


def test_zero_share_class_bypasses():
    classes = (
        TrafficClass("gold", weight=1, uplink_share=1.0),
        TrafficClass("free", weight=1, uplink_share=0.0),
    )
    shaper = PolicyShaper(classes, uplink_streams=8.0)
    # Equal weights alternate from the first class: the second request is
    # the free class's, and it is shaped out (-1).
    classes, defers = shaper.shape([3, 3], [0, 0], 1)
    assert classes.tolist() == [0, 1]
    assert defers.tolist() == [0, -1]
    assert shaper.bypassed["free"] == 1


def test_parse_classes_round_trip():
    classes = parse_classes("gold:3:0.8, bronze:1:0.2")
    assert [cls.name for cls in classes] == ["gold", "bronze"]
    assert classes[0].weight == 3
    assert classes[1].uplink_share == pytest.approx(0.2)


def test_parse_classes_rejects_bad_specs():
    with pytest.raises(ConfigurationError, match="name:weight:share"):
        parse_classes("gold:3")
    with pytest.raises(ConfigurationError, match="bad class spec"):
        parse_classes("gold:x:0.5")
    with pytest.raises(ConfigurationError, match="no classes"):
        parse_classes(" , ")


def test_class_validation():
    with pytest.raises(ConfigurationError, match="weight"):
        TrafficClass("x", weight=0, uplink_share=0.5)
    with pytest.raises(ConfigurationError, match="uplink_share"):
        TrafficClass("x", weight=1, uplink_share=1.5)
    with pytest.raises(ConfigurationError, match="duplicate"):
        validate_classes(
            (
                TrafficClass("x", weight=1, uplink_share=0.4),
                TrafficClass("x", weight=1, uplink_share=0.4),
            )
        )
    with pytest.raises(ConfigurationError, match="sum"):
        validate_classes(
            (
                TrafficClass("a", weight=1, uplink_share=0.8),
                TrafficClass("b", weight=1, uplink_share=0.8),
            )
        )
    with pytest.raises(ConfigurationError, match="uplink_streams"):
        PolicyShaper(DEFAULT_CLASSES, uplink_streams=-1.0)
    with pytest.raises(ConfigurationError, match="burst_slots"):
        PolicyShaper(DEFAULT_CLASSES, uplink_streams=1.0, burst_slots=0.5)
