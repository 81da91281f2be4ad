"""The paper's Figure 6, transcribed literally: the reference oracle.

Every DHB variant in :mod:`repro.core` runs one shared admission kernel;
the equivalence tests check that kernel against this loop rather than
against itself.  The oracle keeps an explicit list of every scheduled
instance and nothing else — no index, no load array, no batching::

    for j := 1 to n do
        search slots i+1 to i+T[j] for an already scheduled instance of S_j
        if not found then
            let m_min := min { m_k | i+1 <= k <= i+T[j] }
            let k_max := max { k | i+1 <= k <= i+T[j] and m_k = m_min }
            schedule one instance of S_j in slot k_max
"""

from collections import Counter


def figure6(requests):
    """Every instance Figure 6 schedules for ``requests``, in order.

    ``requests`` is a sequence of ``(i, windows)``: a request arriving
    during slot ``i`` that needs each segment ``j`` of ``windows`` within
    ``windows[j]`` slots — ``T[j]`` for a fresh request, fewer or more for
    the variants.  Returns ``(slot, segment)`` pairs.
    """
    instances = []
    for i, windows in requests:
        for j in sorted(windows):
            window = range(i + 1, i + windows[j] + 1)
            if any(k in window for k, segment in instances if segment == j):
                continue
            m = Counter(k for k, _ in instances)
            m_min = min(m[k] for k in window)
            k_max = max(k for k in window if m[k] == m_min)
            instances.append((k_max, j))
    return instances


def assert_schedule_matches(schedule, instances):
    """``schedule`` holds exactly ``instances``, slot by slot, in order."""
    expected = {}
    for slot, segment in instances:
        expected.setdefault(slot, []).append(segment)
    horizon = max(expected, default=0) + 2
    for slot in range(horizon):
        assert schedule.segments_in(slot) == expected.get(slot, []), slot
    assert schedule.total_instances == len(instances)
