"""The paper's Figure 6, transcribed literally: the reference oracle.

Every DHB variant in :mod:`repro.core` runs one shared admission kernel;
the equivalence tests check that kernel against this loop rather than
against itself.  The oracle keeps an explicit list of every scheduled
instance, a per-slot count and each segment's instance slots — no load
array, no index modes, no batching — and handles one segment at a time::

    for j := 1 to n do
        search slots i+1 to i+T[j] for an already scheduled instance of S_j
        if not found then
            let m_min := min { m_k | i+1 <= k <= i+T[j] }
            let k_max := max { k | i+1 <= k <= i+T[j] and m_k = m_min }
            schedule one instance of S_j in slot k_max
"""

from collections import Counter, defaultdict


class Figure6:
    """The instances Figure 6 schedules, one segment at a time."""

    def __init__(self):
        #: ``(slot, segment)`` of every instance, in the order scheduled.
        self.instances = []
        self.loads = Counter()
        self.slots_of = defaultdict(list)

    def add(self, slot, segment):
        self.instances.append((slot, segment))
        self.loads[slot] += 1
        self.slots_of[segment].append(slot)

    def share_or_place(self, i, j, width, share=True):
        """``S_j`` for a request of slot ``i``, due within ``width`` slots:
        share an instance in ``(i, i + width]``, else place one in the
        window's latest least-loaded slot.  ``share=False`` always places."""
        window = range(i + 1, i + width + 1)
        if share and any(k in window for k in self.slots_of[j]):
            return
        m_min = min(self.loads[k] for k in window)
        self.add(max(k for k in window if self.loads[k] == m_min), j)


def figure6(requests):
    """Every instance Figure 6 schedules for ``requests``, in order.

    ``requests`` is a sequence of ``(i, windows)``: a request arriving
    during slot ``i`` that needs each segment ``j`` of ``windows`` within
    ``windows[j]`` slots — ``T[j]`` for a fresh request, fewer or more for
    the variants.  Returns ``(slot, segment)`` pairs.
    """
    oracle = Figure6()
    for i, windows in requests:
        for j in sorted(windows):
            oracle.share_or_place(i, j, windows[j])
    return oracle.instances


def assert_schedule_matches(schedule, instances):
    """``schedule`` holds exactly ``instances``, slot by slot, in order."""
    expected = {}
    for slot, segment in instances:
        expected.setdefault(slot, []).append(segment)
    horizon = max(expected, default=0) + 2
    for slot in range(horizon):
        assert schedule.segments_in(slot) == expected.get(slot, []), slot
    assert schedule.total_instances == len(instances)
