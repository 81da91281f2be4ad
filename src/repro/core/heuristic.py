"""Slot-selection heuristics.

The heart of the DHB protocol (Figure 6 of the paper) is how a new segment
instance picks its slot inside the feasible window ``[i+1, i+T[j]]``:

    *"Our protocol will search slots i+1 to i+j to find the slot having the
    minimum number m_min of scheduled transmissions and schedule a new
    transmission of segment S_j during that slot.  If two or more slots are
    found to have the minimum number of scheduled transmissions, the protocol
    always picks the slot k_max with the longest delay."*

:func:`latest_min_load_chooser` transcribes that rule.  The alternatives are
the ablation arms of DESIGN.md §6: *always latest* is the naive scheme whose
bandwidth peak the paper's "slot 120!" argument demolishes; *earliest fit*
and *random fit* isolate each half of the heuristic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import SchedulingError

#: A slot chooser maps (load_of, first_slot, last_slot) -> chosen slot, where
#: ``load_of(slot)`` returns the slot's current instance count and the window
#: ``[first_slot, last_slot]`` is inclusive and non-empty.
SlotChooser = Callable[[Callable[[int], int], int, int], int]


def _check_window(first_slot: int, last_slot: int) -> None:
    if last_slot < first_slot:
        raise SchedulingError(f"empty slot window [{first_slot}, {last_slot}]")


def latest_min_load_chooser(
    load_of: Callable[[int], int], first_slot: int, last_slot: int
) -> int:
    """The paper's heuristic: least-loaded slot, ties broken to the latest.

    Scanning backwards lets the first minimum found win, which *is* the
    latest among equals.

    >>> loads = {1: 2, 2: 0, 3: 1, 4: 0}
    >>> latest_min_load_chooser(lambda s: loads[s], 1, 4)
    4
    """
    _check_window(first_slot, last_slot)
    best_slot = last_slot
    best_load = load_of(last_slot)
    for slot in range(last_slot - 1, first_slot - 1, -1):
        load = load_of(slot)
        if load < best_load:
            best_slot, best_load = slot, load
    return best_slot


def earliest_min_load_chooser(
    load_of: Callable[[int], int], first_slot: int, last_slot: int
) -> int:
    """Ablation: least-loaded slot, ties broken to the *earliest* slot.

    Scheduling early shrinks the effective sharing horizon of the instance
    (fewer future requests can reuse it), so this arm isolates the value of
    the paper's "longest delay" tie-break.
    """
    _check_window(first_slot, last_slot)
    best_slot = first_slot
    best_load = load_of(first_slot)
    for slot in range(first_slot + 1, last_slot + 1):
        load = load_of(slot)
        if load < best_load:
            best_slot, best_load = slot, load
    return best_slot


def always_latest_chooser(
    load_of: Callable[[int], int], first_slot: int, last_slot: int
) -> int:
    """Ablation: always pick ``k_max = i + T[j]``, ignoring loads.

    This is the load-blind scheme the paper rejects: each segment rides its
    maximum period, so under sustained load segment periods synchronise and
    slots at common multiples pile up ("slot 120! will contain one
    transmission of each and every segment").
    """
    _check_window(first_slot, last_slot)
    return last_slot


def make_random_chooser(rng: np.random.Generator) -> SlotChooser:
    """Ablation: pick a uniformly random slot of the window.

    Randomisation spreads load on average but neither levels actual load nor
    maximises sharing delay; it sits between the heuristic and always-latest.
    """

    def random_chooser(
        load_of: Callable[[int], int], first_slot: int, last_slot: int
    ) -> int:
        _check_window(first_slot, last_slot)
        return int(rng.integers(first_slot, last_slot + 1))

    return random_chooser


def make_slack_chooser(slack: int) -> SlotChooser:
    """Extension: interpolate between the paper's rule and always-latest.

    The paper's future work asks about the tension between bandwidth peaks
    and average bandwidth.  The two extremes are already in this module:
    the paper's least-loaded/latest rule keeps peaks within a couple of
    streams of the mean, while the always-latest rule maximises sharing
    delay (slightly lower average under load) at the price of unbounded
    synchronised peaks.  This chooser exposes the dial: pick the **latest**
    window slot whose load is within ``slack`` of the window minimum.

    * ``slack = 0`` is exactly :func:`latest_min_load_chooser`;
    * ``slack -> infinity`` degenerates to :func:`always_latest_chooser`.

    The ablation bench sweeps the dial and reports both statistics.
    """
    if slack < 0:
        raise SchedulingError(f"slack must be >= 0, got {slack}")

    def slack_chooser(
        load_of: Callable[[int], int], first_slot: int, last_slot: int
    ) -> int:
        _check_window(first_slot, last_slot)
        loads = [load_of(slot) for slot in range(first_slot, last_slot + 1)]
        threshold = min(loads) + slack
        for offset in range(len(loads) - 1, -1, -1):
            if loads[offset] <= threshold:
                return first_slot + offset
        raise SchedulingError("unreachable: the minimum always qualifies")

    return slack_chooser
