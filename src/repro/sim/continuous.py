"""Continuous-time simulation driver for the reactive protocols.

Stream tapping, patching, and batching create server streams at arbitrary
instants; each stream occupies one channel of the video consumption rate for
its duration.  A reactive protocol therefore reduces, for measurement
purposes, to the set of busy intervals it generates.  The driver feeds
arrivals to the protocol, collects the intervals, and measures mean and peak
concurrency inside a post-warmup window.

The driver's own cost per request is kept small: the trace is checked once
(sorted, 1-D, NaN-free), cut at the horizon and the warmup with
``np.searchsorted``, and handed to the protocol as Python floats; busy
intervals are flushed to :class:`~repro.sim.recorder.TimeWeightedRecorder`
in large batches, which clips them with one vectorised pass and takes the
peak with one sort and search.  The results are bit-for-bit those of a
request-by-request loop over the same trace.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .arrivals import sorted_arrivals
from .recorder import TimeWeightedRecorder

if TYPE_CHECKING:
    from ..obs.registry import MetricsRegistry

#: Requests admitted between two flushes of their busy intervals into the
#: recorder, bounding the driver's per-request memory.
_CHUNK = 1 << 16

#: A server stream: (start_time, end_time) in seconds.
BusyInterval = Tuple[float, float]


class ReactiveModel(abc.ABC):
    """Interface the continuous-time driver requires of a reactive protocol.

    Observability stays in the driver: it counts requests and streams
    (``sim.*``) itself, and a reactive protocol never sees the registry.
    """

    @abc.abstractmethod
    def handle_request(self, time: float) -> List[BusyInterval]:
        """Admit a request arriving at ``time``.

        Returns the list of *new* server streams this request causes, as busy
        intervals.  Data the client taps from pre-existing streams costs the
        server nothing and must not be returned.
        """

    def startup_delay(self, time: float) -> float:
        """Seconds the client arriving at ``time`` waits before playout.

        Reactive protocols in the paper (stream tapping, patching) give
        zero-delay access, which is the default.
        """
        return 0.0

    def finish(self, horizon: float) -> List[BusyInterval]:
        """Busy intervals to flush at the end of the run.

        Protocols with standing broadcasts (e.g. selective catching's
        staggered channels) emit cycles lazily; the driver calls this once
        after the last arrival so cycles that no request triggered still
        count.  The default has nothing to flush.
        """
        return []


@dataclass
class ReactiveResult:
    """Outcome of one continuous-time simulation run.

    Bandwidths are in units of the video consumption rate ``b``, i.e. the
    number of concurrently busy server channels, matching Figure 7's y-axis.
    """

    window_length: float
    mean_streams: float
    max_streams: int
    n_requests: int
    mean_wait: float
    max_wait: float


class ContinuousSimulation:
    """Drives a :class:`ReactiveModel` over a request trace.

    Parameters
    ----------
    protocol:
        The reactive protocol under test.
    horizon:
        Total simulated time in seconds (including warmup).
    warmup:
        Initial seconds excluded from the measurement window.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the driver
        counts requests and server streams and times the run.
    """

    def __init__(
        self,
        protocol: ReactiveModel,
        horizon: float,
        warmup: float = 0.0,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        if horizon <= warmup:
            raise ConfigurationError(
                f"horizon ({horizon}) must exceed warmup ({warmup})"
            )
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        self.protocol = protocol
        self.horizon = float(horizon)
        self.warmup = float(warmup)
        self.metrics = metrics

    def run(self, arrival_times: Sequence[float]) -> ReactiveResult:
        """Simulate over sorted ``arrival_times`` and measure concurrency.

        Arrivals at or beyond the horizon are ignored.  Raises
        :class:`~repro.errors.SimulationError`, before anything is
        admitted, when the arrivals are not 1-D, are unsorted or contain
        NaN (:func:`~repro.sim.arrivals.sorted_arrivals`).
        """
        arrivals = sorted_arrivals(arrival_times)
        n_requests = int(np.searchsorted(arrivals, self.horizon, side="left"))
        first_measured = int(np.searchsorted(arrivals[:n_requests], self.warmup, side="left"))
        protocol = self.protocol
        metrics = self.metrics
        recorder = TimeWeightedRecorder(self.warmup, self.horizon)
        # Startup delays stream in bounded memory: a running sum and max,
        # the same left-to-right fold a list-based reduction performs.
        wait_sum = 0.0
        wait_max = 0.0
        n_streams = 0
        if metrics is not None:
            run_span = metrics.timer("sim.run_seconds").time()
            run_span.__enter__()
        handle = protocol.handle_request
        delay = protocol.startup_delay
        streams: List[BusyInterval] = []
        extend = streams.extend
        for lo in range(0, n_requests, _CHUNK):
            hi = min(lo + _CHUNK, n_requests)
            cut = min(max(first_measured, lo), hi)
            # Python floats (bit-identical to the float64 trace) keep the
            # protocols' arithmetic off numpy scalars.
            for t in arrivals[lo:cut].tolist():
                extend(handle(t))
            for t in arrivals[cut:hi].tolist():
                extend(handle(t))
                wait = delay(t)
                wait_sum += wait
                if wait > wait_max:
                    wait_max = wait
            n_streams += len(streams)
            recorder.add_intervals(streams)
            streams.clear()
        extend(protocol.finish(self.horizon))
        n_streams += len(streams)
        recorder.add_intervals(streams)
        if metrics is not None:
            run_span.__exit__(None, None, None)
            metrics.counter("sim.requests").inc(n_requests)
            metrics.counter("sim.streams_started").inc(n_streams)
            metrics.gauge("sim.horizon_seconds").set(self.horizon)
        n_measured = n_requests - first_measured
        return ReactiveResult(
            window_length=recorder.window_length,
            mean_streams=recorder.mean_concurrency(),
            max_streams=recorder.max_concurrency(),
            n_requests=n_measured,
            mean_wait=wait_sum / n_measured if n_measured else 0.0,
            max_wait=wait_max,
        )

