"""Tests for repro.core.client."""

import pytest

from repro.errors import DeadlineMissedError, SchedulingError
from repro.core.client import ClientPlan
from repro.core.periods import PeriodVector


def make_plan(arrival, assignments, shared=None):
    plan = ClientPlan(arrival_slot=arrival)
    for segment, slot in assignments.items():
        plan.assign(segment, slot, shared=(shared or {}).get(segment, False))
    return plan


def test_valid_plan_verifies():
    plan = make_plan(1, {1: 2, 2: 3, 3: 4})
    plan.verify(PeriodVector.uniform(3))


def test_deadline_violation_detected():
    plan = make_plan(0, {1: 1, 2: 2, 3: 5})  # S3 due by slot 3
    with pytest.raises(DeadlineMissedError) as excinfo:
        plan.verify(PeriodVector.uniform(3))
    assert excinfo.value.segment == 3
    assert excinfo.value.deadline_slot == 3


def test_past_assignment_detected():
    plan = make_plan(5, {1: 5, 2: 6, 3: 7})  # S1 in the arrival slot itself
    with pytest.raises(SchedulingError):
        plan.verify(PeriodVector.uniform(3))


def test_missing_segment_detected():
    plan = make_plan(0, {1: 1, 3: 3})
    with pytest.raises(SchedulingError):
        plan.verify(PeriodVector.uniform(3))


def test_custom_periods_change_deadlines():
    plan = make_plan(0, {1: 1, 2: 4})
    plan.verify(PeriodVector([1, 4]))  # S2 may ride out to slot 4
    with pytest.raises(DeadlineMissedError):
        plan.verify(PeriodVector([1, 2]))


def test_double_assignment_rejected():
    plan = ClientPlan(arrival_slot=0)
    plan.assign(1, 1, shared=False)
    with pytest.raises(SchedulingError):
        plan.assign(1, 2, shared=True)


def test_new_instance_count():
    plan = make_plan(0, {1: 1, 2: 2, 3: 3}, shared={2: True})
    assert sum(not shared for shared in plan.shared.values()) == 2  # new instances


def test_max_concurrent_receptions():
    plan = make_plan(0, {1: 1, 2: 2, 3: 2, 4: 2})
    assert plan.max_concurrent_receptions() == 3
    assert ClientPlan(arrival_slot=0).max_concurrent_receptions() == 0
