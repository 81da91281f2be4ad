"""Per-request reference semantics of :class:`ContinuousSimulation`.

The driver converts the trace to Python floats once, flushes busy intervals
into column storage in batches and takes the peak with one vectorised
search.  This module spells the same model out one request and one
interval at a time — a tuple list, a left-to-right ``sum`` and an
event-sorting endpoint sweep — so the driver is checked against an
independent literal loop rather than against itself.
"""

from repro.sim.continuous import ReactiveResult


class ListRecorder:
    """Clipped busy intervals kept as a list of ``(start, end)`` tuples."""

    def __init__(self, window_start, window_end):
        self.window_start = float(window_start)
        self.window_end = float(window_end)
        self.intervals = []

    def add_interval(self, start, end):
        assert not end < start, (start, end)
        clipped_start = max(start, self.window_start)
        clipped_end = min(end, self.window_end)
        if clipped_end > clipped_start:
            self.intervals.append((clipped_start, clipped_end))

    def mean_concurrency(self):
        total = sum(end - start for start, end in self.intervals)
        return total / (self.window_end - self.window_start)

    def max_concurrency(self):
        # +1 at starts, -1 at ends; ends sort before starts at equal times.
        points = []
        for start, end in self.intervals:
            points.append((start, 1))
            points.append((end, -1))
        points.sort(key=lambda p: (p[0], p[1]))
        level = peak = 0
        for _, delta in points:
            level += delta
            peak = max(peak, level)
        return peak


def reference_run(protocol, arrivals, horizon, warmup=0.0):
    """Run ``protocol`` request by request over sorted ``arrivals``."""
    recorder = ListRecorder(warmup, horizon)
    wait_sum, wait_max, measured = 0.0, 0.0, 0
    for t in arrivals:
        if t >= horizon:
            break
        for start, end in protocol.handle_request(t):
            recorder.add_interval(start, end)
        if t >= warmup:
            measured += 1
            wait = protocol.startup_delay(t)
            wait_sum += wait
            if wait > wait_max:
                wait_max = wait
    for start, end in protocol.finish(horizon):
        recorder.add_interval(start, end)
    return ReactiveResult(
        window_length=float(horizon) - float(warmup),
        mean_streams=recorder.mean_concurrency(),
        max_streams=recorder.max_concurrency(),
        n_requests=measured,
        mean_wait=wait_sum / measured if measured else 0.0,
        max_wait=wait_max,
    )
