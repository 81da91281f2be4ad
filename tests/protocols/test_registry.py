"""Tests for repro.protocols.registry."""

import pytest

from repro.errors import ConfigurationError
from repro.protocols.registry import (
    REACTIVE_NAMES,
    SLOTTED_NAMES,
    ProtocolContext,
    available_protocols,
    build_protocol,
)
from repro.sim.continuous import ReactiveModel
from repro.sim.slotted import SlottedModel

CONTEXT = ProtocolContext(n_segments=15, duration=7200.0, rate_per_hour=20.0)


def test_every_name_builds():
    for name in available_protocols():
        protocol = build_protocol(name, CONTEXT)
        assert isinstance(protocol, (SlottedModel, ReactiveModel))


def test_classification_is_total_and_disjoint():
    names = set(available_protocols())
    assert SLOTTED_NAMES | REACTIVE_NAMES == names
    assert not SLOTTED_NAMES & REACTIVE_NAMES


def test_classification_matches_types():
    for name in available_protocols():
        protocol = build_protocol(name, CONTEXT)
        if name in SLOTTED_NAMES:
            assert isinstance(protocol, SlottedModel)
        else:
            assert isinstance(protocol, ReactiveModel)


def test_slotted_protocols_honour_segment_count():
    for name in ["dhb", "ud", "dnpb"]:
        assert build_protocol(name, CONTEXT).n_segments == 15
    # Fixed protocols may round the count up to their capacity.
    for name in ["fb", "npb", "sb"]:
        assert build_protocol(name, CONTEXT).n_segments >= 15


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        build_protocol("nope", CONTEXT)


def test_context_validation():
    with pytest.raises(ConfigurationError):
        ProtocolContext(n_segments=0, duration=1.0, rate_per_hour=1.0)
    with pytest.raises(ConfigurationError):
        ProtocolContext(n_segments=1, duration=0.0, rate_per_hour=1.0)
    with pytest.raises(ConfigurationError):
        ProtocolContext(n_segments=1, duration=1.0, rate_per_hour=-1.0)


def test_zero_rate_context_still_builds_reactive():
    context = ProtocolContext(n_segments=9, duration=7200.0, rate_per_hour=0.0)
    for name in REACTIVE_NAMES:
        build_protocol(name, context)
