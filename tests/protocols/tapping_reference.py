"""Rescanning reference semantics of :class:`StreamTappingProtocol`.

The protocol keeps each group's coverage as a latest-transmitter map.  This
module spells the model out literally: every request rescans every piece of
every earlier group member, clips it at ``t - t_j`` and subtracts the
merged covers from ``[0, Δ)``.  Tests check the protocol against this loop
rather than against itself.
"""

from typing import List, Optional, Tuple

from repro.analysis.theory import optimal_patching_window
from repro.units import HOUR

from .intervals import Interval, subtract


class ReferenceStreamTapping:
    """Stream tapping with unlimited extra tapping, by rescanning."""

    def __init__(self, duration, expected_rate_per_hour=None, extra_tapping=True,
                 restart_window=None):
        self.duration = float(duration)
        self.extra_tapping = extra_tapping
        self._fixed_window = restart_window
        self._configured_rate = (
            expected_rate_per_hour / HOUR if expected_rate_per_hour else None
        )
        self._estimated_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._group_start: Optional[float] = None
        self._members: List[Tuple[float, List[Interval]]] = []
        self.complete_streams = 0
        self.requests_served = 0

    def restart_window(self):
        if self._fixed_window is not None:
            return self._fixed_window
        rate = self._configured_rate
        if rate is None:
            if self._estimated_gap is None or self._estimated_gap <= 0:
                return self.duration
            rate = 1.0 / self._estimated_gap
        return optimal_patching_window(rate, self.duration)

    def _observe_gap(self, time):
        if self._last_arrival is not None:
            gap = time - self._last_arrival
            if self._estimated_gap is None:
                self._estimated_gap = gap
            else:
                self._estimated_gap = 0.9 * self._estimated_gap + 0.1 * gap
        self._last_arrival = time

    def _start_group(self, time):
        self._group_start = time
        self._members = []
        self.complete_streams += 1
        return [(time, time + self.duration)]

    def handle_request(self, time):
        self._observe_gap(time)
        self.requests_served += 1
        if self._group_start is None or time >= self._group_start + self.duration:
            return self._start_group(time)
        delta = time - self._group_start
        if delta > self.restart_window():
            return self._start_group(time)
        gaps = self._uncovered_prefix(time, delta)
        self._members.append((time, gaps))
        return [(time + a, time + b) for a, b in gaps]

    def _uncovered_prefix(self, time, delta):
        """Video in ``[0, delta)`` not obtainable from existing streams."""
        if not self.extra_tapping or not self._members:
            return [(0.0, delta)] if delta > 0 else []
        covers: List[Interval] = []
        for member_arrival, pieces in self._members:
            earliest_position = time - member_arrival
            for piece_start, piece_end in pieces:
                start = max(piece_start, earliest_position)
                if start < piece_end:
                    covers.append((start, piece_end))
        return subtract((0.0, delta), covers)
