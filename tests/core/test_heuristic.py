"""Tests for repro.core.heuristic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.core.heuristic import (
    always_latest_chooser,
    earliest_min_load_chooser,
    latest_min_load_chooser,
    make_random_chooser,
    make_slack_chooser,
)


def loads_fn(loads):
    return lambda slot: loads[slot]


class TestLatestMinLoad:
    def test_picks_minimum(self):
        loads = {1: 3, 2: 1, 3: 2}
        assert latest_min_load_chooser(loads_fn(loads), 1, 3) == 2

    def test_tie_breaks_latest(self):
        loads = {1: 0, 2: 5, 3: 0}
        assert latest_min_load_chooser(loads_fn(loads), 1, 3) == 3

    def test_single_slot_window(self):
        assert latest_min_load_chooser(loads_fn({7: 9}), 7, 7) == 7

    def test_all_equal_picks_last(self):
        loads = {s: 2 for s in range(1, 6)}
        assert latest_min_load_chooser(loads_fn(loads), 1, 5) == 5


class TestEarliestMinLoad:
    def test_tie_breaks_earliest(self):
        loads = {1: 0, 2: 5, 3: 0}
        assert earliest_min_load_chooser(loads_fn(loads), 1, 3) == 1

    def test_still_prefers_lower_load(self):
        loads = {1: 4, 2: 1, 3: 4}
        assert earliest_min_load_chooser(loads_fn(loads), 1, 3) == 2


class TestAlwaysLatest:
    def test_ignores_loads(self):
        loads = {1: 0, 2: 0, 3: 1_000_000}
        assert always_latest_chooser(loads_fn(loads), 1, 3) == 3


class TestRandom:
    def test_within_window(self):
        chooser = make_random_chooser(np.random.default_rng(0))
        picks = {chooser(loads_fn({s: 0 for s in range(4, 9)}), 4, 8) for _ in range(200)}
        assert picks == {4, 5, 6, 7, 8}

    def test_reproducible(self):
        a = make_random_chooser(np.random.default_rng(3))
        b = make_random_chooser(np.random.default_rng(3))
        loads = {s: 0 for s in range(1, 10)}
        assert [a(loads_fn(loads), 1, 9) for _ in range(20)] == [
            b(loads_fn(loads), 1, 9) for _ in range(20)
        ]


class TestSlackChooser:
    def test_slack_zero_matches_paper_rule(self):
        chooser = make_slack_chooser(0)
        loads = {1: 2, 2: 0, 3: 1, 4: 0}
        assert chooser(loads_fn(loads), 1, 4) == latest_min_load_chooser(
            loads_fn(loads), 1, 4
        )

    def test_slack_admits_later_heavier_slots(self):
        chooser = make_slack_chooser(1)
        loads = {1: 0, 2: 1, 3: 1}
        assert chooser(loads_fn(loads), 1, 3) == 3  # within min+1

    def test_large_slack_is_always_latest(self):
        chooser = make_slack_chooser(10**6)
        loads = {1: 0, 2: 0, 3: 999}
        assert chooser(loads_fn(loads), 1, 3) == 3

    def test_invalid_slack(self):
        with pytest.raises(SchedulingError):
            make_slack_chooser(-1)

    def test_slack_trades_peak_for_average(self):
        """The dial the future work asks about: more slack -> more sharing
        delay (no higher average) but taller synchronised peaks."""
        from repro.core.dhb import DHBProtocol

        stats = {}
        for slack in (0, 10**6):
            protocol = DHBProtocol(n_segments=30, chooser=make_slack_chooser(slack))
            for slot in range(600):
                protocol.handle_request(slot)
            window = range(100, 620)
            loads = [protocol.slot_load(s) for s in window]
            stats[slack] = (sum(loads) / len(loads), max(loads))
        mean_0, peak_0 = stats[0]
        mean_inf, peak_inf = stats[10**6]
        assert peak_inf > peak_0
        assert mean_inf <= mean_0 * 1.02


@pytest.mark.parametrize(
    "chooser",
    [
        latest_min_load_chooser,
        earliest_min_load_chooser,
        always_latest_chooser,
        make_slack_chooser(2),
    ],
)
def test_empty_window_rejected(chooser):
    with pytest.raises(SchedulingError):
        chooser(loads_fn({}), 5, 4)


@given(
    loads=st.lists(st.integers(0, 10), min_size=1, max_size=20),
    start=st.integers(0, 5),
)
def test_min_load_choosers_find_a_true_minimum(loads, start):
    table = {start + i: load for i, load in enumerate(loads)}
    end = start + len(loads) - 1
    true_min = min(loads)
    for chooser in (latest_min_load_chooser, earliest_min_load_chooser):
        pick = chooser(loads_fn(table), start, end)
        assert start <= pick <= end
        assert table[pick] == true_min
