"""Slot-synchronous simulation driver.

Every slotted protocol in this reproduction (DHB, UD, dynamic NPB, and the
fixed broadcasting schedules FB/NPB/SB) advances in slots of duration ``d``:
requests arriving *during* slot ``i`` are granted a transmission schedule
that starts at the beginning of slot ``i + 1`` — which is why ``d`` is also
the maximum customer waiting time.

:class:`SlottedSimulation` feeds arrival times to a protocol slot by slot and
measures per-slot bandwidth.  A slot's load is final once every request from
earlier slots has been processed: no protocol may schedule into the current
or a past slot.

The driver has one loop, and it walks only the *occupied* slots (plus the
horizon).  It pre-buckets the whole arrival trace into slots with one
``np.searchsorted`` against the slot boundaries and hands each occupied
slot's batch to :meth:`SlottedModel.handle_batch` — one protocol call per
occupied slot, not per request.  The rest runs once per block of
``_BLOCK`` occupied slots: once a block's last batch (slot ``b``) is in,
every slot up to ``b`` is final (see :meth:`SlottedModel.handle_batch`),
so the block's loads and weights are read with one slice each, folded,
traced, and released below ``b``.  Sparse traces thus cost per occupied
slot rather than per slot, traced or not.

Waiting times depend only on the trace and ``d``, so they are folded
outside the slot loop, in bounded chunks of requests: a running sum/max
(bit-identical to a per-request left-to-right fold) plus a fixed-size
:class:`~repro.sim.sketches.BinnedQuantileSketch` over ``[0, d]`` for the
tail (p50/p99).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from types import MethodType
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .arrivals import sorted_arrivals
from .recorder import SlotLoadRecorder
from .sketches import BinnedQuantileSketch
from .stats import OnlineStats

if TYPE_CHECKING:  # imported lazily to keep the sim layer import-light
    from ..obs.registry import MetricsRegistry
    from ..obs.trace import TraceSink


class SlottedModel(abc.ABC):
    """Interface the slotted driver requires of a protocol.

    Implementations live in :mod:`repro.core` (DHB) and
    :mod:`repro.protocols` (FB, NPB, SB, UD, dynamic NPB).

    Observability: the driver hands its registry to the protocol through
    :meth:`bind_metrics`; a protocol that counts its admissions
    (``protocol.*``) guards each emission on ``self.metrics is not None``.
    The driver also asks :meth:`slot_instances` for the segment numbers
    behind a slot's load when a trace sink is attached.
    """

    #: Bound metrics registry, or ``None`` (class default: observability off).
    metrics: Optional["MetricsRegistry"] = None

    def bind_metrics(self, registry: Optional["MetricsRegistry"]) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        self.metrics = registry

    def bind_placements(self, log: List[int]) -> None:
        """Append the slot of every instance scheduled from now on to ``log``.

        One slot per instance, so a host that sums several protocols' loads
        (a cluster server's demand ledger) keeps its sums by reading ``log``
        instead of re-reading every protocol's loads.  Every protocol whose
        admissions change a load overrides this; the default refuses.
        """
        raise ConfigurationError(
            f"{type(self).__name__} cannot log the slots it schedules"
        )

    @abc.abstractmethod
    def handle_request(self, slot: int) -> None:
        """Admit a request that arrived during ``slot``.

        The protocol must arrange for every segment to reach this client on
        time, scheduling transmissions into slots ``>= slot + 1`` only.
        """

    def handle_batch(self, slot: int, count: int) -> None:
        """Admit ``count`` requests that all arrived during ``slot``.

        A batch at slot ``a`` reads and writes only the state of slots
        after ``a`` (like :meth:`handle_request`, it schedules into slots
        ``>= a + 1`` only): the driver relies on this to read, fold and
        release a whole block of slots after the block's last batch.

        The default loops over :meth:`handle_request`, so every existing
        protocol keeps working under the columnar driver.  Protocols whose
        same-slot admissions are idempotent (DHB with sharing, the
        on-demand map protocols, the fixed schedules) override this with a
        true batched implementation: one admission pass plus O(1)
        bookkeeping for the remaining ``count - 1`` requests, observably
        identical to the loop.
        """
        for _ in range(count):
            self.handle_request(slot)

    @abc.abstractmethod
    def slot_load(self, slot: int) -> int:
        """Number of segment instances transmitted during ``slot``.

        Each instance occupies one data stream of the video consumption rate
        for the whole slot, so this *is* the instantaneous server bandwidth
        in units of ``b``.
        """

    def slot_loads(self, start: int, stop: int) -> List[int]:
        """``slot_load`` of every slot in ``[start, stop)``, in order.

        The driver reads each run of final loads with one call; protocols
        backed by a load array override this with one slice.
        """
        return [self.slot_load(slot) for slot in range(start, stop)]

    def slot_weights(self, start: int, stop: int) -> List[float]:
        """``slot_weight`` of every slot in ``[start, stop)``, in order."""
        return [self.slot_weight(slot) for slot in range(start, stop)]

    def release_before(self, slot: int) -> None:
        """Allow the protocol to drop bookkeeping for slots ``< slot``.

        Optional; the default keeps everything (fine for short runs).
        Implementations must be monotone: ``release_before(b)`` has the
        same effect as ``release_before(a + 1) ... release_before(b)``, so
        the driver calls it once per block of occupied slots (with
        non-decreasing arguments) rather than once per slot.
        """

    def slot_weight(self, slot: int) -> float:
        """Weighted load of ``slot``; defaults to the instance count.

        Protocols carrying per-segment byte sizes (the compressed-video DHB
        variants) override this so the driver can account *transmitted
        bytes* per slot alongside occupied streams.
        """
        return float(self.slot_load(slot))

    def slot_instances(self, slot: int) -> List[int]:
        """Segment numbers scheduled in ``slot`` (for per-slot traces).

        Optional; protocols that keep a full schedule override this.  The
        default (no per-instance bookkeeping) reports an empty list, which
        trace consumers must treat as "unknown", not "idle".
        """
        return []


@dataclass
class SlottedResult:
    """Outcome of one slotted simulation run.

    Bandwidths are in units of the video consumption rate ``b`` (i.e. data
    streams), exactly as in Figures 7 and 8 of the paper.
    """

    slot_duration: float
    slots_measured: int
    mean_streams: float
    max_streams: float
    n_requests: int
    mean_wait: float
    max_wait: float
    mean_weight: float = 0.0
    max_weight: float = 0.0
    series: List[int] = field(default_factory=list)
    #: Streamed waiting-time quantiles (bin-upper-edge estimates over
    #: ``[0, d]``; 0.0 when no post-warmup request was measured).
    wait_p50: float = 0.0
    wait_p99: float = 0.0
    #: Which admission entry produced this result: the protocol's batched
    #: ``handle_batch`` (True) or the base per-request loop (False).
    columnar: bool = False


#: Bins of the waiting-time sketch: slot-duration / WAIT_SKETCH_BINS of
#: quantile resolution (a few milliseconds at figure-7 slot lengths).
WAIT_SKETCH_BINS = 2048

#: Requests per chunk of the wait fold (bounds its array temporaries).
_WAIT_CHUNK = 65536

#: Occupied slots per block: a block's slots are read, folded, traced and
#: released once, after its last batch.
_BLOCK = 64


class SlottedSimulation:
    """Drives a :class:`SlottedModel` over a request trace.

    Parameters
    ----------
    protocol:
        The slotted protocol under test.
    slot_duration:
        Slot length ``d`` in seconds.
    horizon_slots:
        Total number of slots to simulate (including warmup).
    warmup_slots:
        Initial slots excluded from bandwidth statistics.
    keep_series:
        Keep the per-slot load series on the result (memory grows linearly).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The driver
        feeds the post-warmup load summary into the ``sim.slot_load``
        histogram, counts slots/requests, times the run, and binds the
        registry to the protocol so admissions emit their own metrics.
        ``None`` (the default) keeps the hot loop free of metric calls.
    trace:
        Optional :class:`~repro.obs.trace.TraceSink` receiving one record
        per simulated slot (see :mod:`repro.obs.trace` for the schema).
    trace_context:
        Extra fields (protocol label, rate, ...) copied into every trace
        record.
    columnar:
        Admit each slot's batch through the protocol's own
        :meth:`SlottedModel.handle_batch` (default).  ``False`` admits it
        through the base class's loop over single admissions instead —
        used by equivalence tests and the speedup benches; results are
        bit-for-bit identical either way.
    """

    def __init__(
        self,
        protocol: SlottedModel,
        slot_duration: float,
        horizon_slots: int,
        warmup_slots: int = 0,
        keep_series: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
        trace: Optional["TraceSink"] = None,
        trace_context: Optional[Dict] = None,
        columnar: bool = True,
    ):
        if slot_duration <= 0:
            raise ConfigurationError(f"slot_duration must be > 0, got {slot_duration}")
        if horizon_slots <= warmup_slots:
            raise ConfigurationError(
                f"horizon_slots ({horizon_slots}) must exceed warmup_slots "
                f"({warmup_slots})"
            )
        self.protocol = protocol
        self.slot_duration = float(slot_duration)
        self.horizon_slots = int(horizon_slots)
        self.warmup_slots = int(warmup_slots)
        self.keep_series = keep_series
        self.metrics = metrics
        self.trace = trace
        self.trace_context = dict(trace_context or {})
        self.columnar = columnar

    def run(self, arrival_times: Sequence[float]) -> SlottedResult:
        """Simulate the protocol over ``arrival_times`` (seconds, sorted).

        Arrivals beyond the horizon, and before the simulated epoch
        (``t < 0``), are ignored.  Returns the measured bandwidth and
        waiting-time statistics.  Accepts any sorted 1-D sequence of
        numbers: it is viewed as float64 with ``np.asarray``, which never
        copies the runtime's (read-only, shared) float64 traces.

        The whole trace is bucketed into slots with a single
        ``np.searchsorted`` against the slot boundaries; the loop admits
        each occupied slot's batch with one call (see ``columnar``) and,
        once per block of occupied slots, reads the loads of the run of
        slots that ends at the block's last one in one call.  Waiting
        times are folded in chunks of requests with a running-sum
        continuation (``cumsum`` seeded with the running total is the same
        left-to-right fold a per-request loop performs, so the mean is
        bit-for-bit identical).  Memory stays
        bounded: no per-request Python objects, a fixed-size wait sketch,
        and the protocol releases slots as the loop advances.

        Raises :class:`~repro.errors.SimulationError`, before anything is
        admitted, when the arrivals are not 1-D, are unsorted or contain
        NaN (:func:`~repro.sim.arrivals.sorted_arrivals`).
        """
        arrivals = sorted_arrivals(arrival_times)

        d = self.slot_duration
        protocol = self.protocol
        metrics = self.metrics
        trace = self.trace
        horizon = self.horizon_slots
        warmup = self.warmup_slots
        recorder = SlotLoadRecorder(
            warmup, keep_series=self.keep_series, registry=metrics
        )
        weight_stats = OnlineStats()
        wait_sketch = BinnedQuantileSketch(d, WAIT_SKETCH_BINS)
        if metrics is not None:
            protocol.bind_metrics(metrics)
            run_span = metrics.timer("sim.run_seconds").time()
            run_span.__enter__()

        # Slot boundaries (s+1)*d, computed as Python computes (slot+1)*d
        # (int -> float64 conversion then one multiply) so waits match a
        # per-request loop bit for bit; cuts[s] counts the arrivals strictly
        # before the end of slot s.
        boundaries = np.arange(1, horizon + 1, dtype=np.int64) * d
        cuts = np.searchsorted(arrivals, boundaries, side="left")
        n_within = int(cuts[-1])
        # Arrivals before the simulated epoch (t < 0) land in slot 0's
        # bucket but are never delivered.
        ignored = int(np.searchsorted(arrivals, 0.0, side="left"))
        delivered = np.diff(cuts, prepend=ignored)
        occupied = np.flatnonzero(delivered)

        # The protocol's batched admission, or the base class's loop of
        # single admissions; either way one call per occupied slot.
        if self.columnar:
            handle_batch = protocol.handle_batch
        else:
            handle_batch = MethodType(SlottedModel.handle_batch, protocol)
        # The horizon closes the last block: no batch, nothing past it.
        slots = occupied.tolist() + [horizon]
        counts = delivered[occupied].tolist() + [0]
        first = 0
        for begin in range(0, len(slots), _BLOCK):
            block = slots[begin : begin + _BLOCK]
            block_counts = counts[begin : begin + _BLOCK]
            for slot, count in zip(block, block_counts):
                if count:
                    handle_batch(slot, count)
            # A batch only schedules into later slots, so once the block's
            # last batch is admitted the loads of [first, stop) are final.
            stop = min(block[-1] + 1, horizon)
            recorder.record_many(first, protocol.slot_loads(first, stop))
            if stop > warmup:
                weight_stats.add_many(protocol.slot_weights(max(first, warmup), stop))
            if trace is not None:
                # Read after the block's batches, before its release.
                arrivals_in = dict(zip(block, block_counts))
                for traced in range(first, stop):
                    trace_record = dict(self.trace_context)
                    trace_record.update(
                        kind="slot",
                        slot=traced,
                        streams=protocol.slot_load(traced),
                        weight=protocol.slot_weight(traced),
                        instances=protocol.slot_instances(traced),
                        arrivals=arrivals_in.get(traced, 0),
                        measured=traced >= warmup,
                    )
                    trace.emit(trace_record)
            # One release per block: releases are monotone, so this equals
            # releasing after every slot of the block.
            protocol.release_before(stop - 1)
            first = stop

        # Waits depend only on the trace and d: fold the measured requests
        # (t >= 0, in a slot >= warmup) chunk by chunk, in request order.
        measured_from = max(ignored, int(cuts[warmup - 1])) if warmup else ignored
        wait_sum = 0.0
        wait_max = 0.0
        for begin in range(measured_from, n_within, _WAIT_CHUNK):
            end = min(begin + _WAIT_CHUNK, n_within)
            times = arrivals[begin:end]
            # Request i ends its wait at the first boundary with cuts > i:
            # two scalar searches find the chunk's slots, and each slot's
            # boundary repeats once per request of the chunk in it.
            first_slot = int(np.searchsorted(cuts, begin, side="right"))
            last_slot = int(np.searchsorted(cuts, end - 1, side="right"))
            per_slot = np.diff(
                np.clip(cuts[first_slot : last_slot + 1], begin, end), prepend=begin
            )
            waits = np.repeat(boundaries[first_slot : last_slot + 1], per_slot) - times
            wait_sketch.add_array(waits)
            wait_max = max(wait_max, float(waits.max()))
            # cumsum seeded with the running total IS the per-request
            # sequential fold, bit for bit.
            waits[0] += wait_sum
            wait_sum = float(waits.cumsum()[-1])
        measured_requests = n_within - measured_from

        recorder.finish()
        if metrics is not None:
            run_span.__exit__(None, None, None)
            metrics.counter("sim.slots").inc(horizon)
            metrics.counter("sim.requests").inc(n_within - ignored)
            metrics.counter("sim.arrivals_ignored").inc(ignored)
            metrics.gauge("sim.warmup_slots").set(warmup)
        return SlottedResult(
            slot_duration=self.slot_duration,
            slots_measured=recorder.slots_measured,
            mean_streams=recorder.mean_load,
            max_streams=recorder.max_load,
            n_requests=measured_requests,
            mean_wait=wait_sum / measured_requests if measured_requests else 0.0,
            max_wait=wait_max,
            mean_weight=weight_stats.mean,
            max_weight=weight_stats.maximum if weight_stats.count else 0.0,
            series=recorder.series,
            wait_p50=wait_sketch.quantile(0.5) if measured_requests else 0.0,
            wait_p99=wait_sketch.quantile(0.99) if measured_requests else 0.0,
            columnar=self.columnar,
        )
