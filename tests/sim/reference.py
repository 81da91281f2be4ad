"""Per-request reference semantics of :class:`SlottedSimulation`.

The driver admits each slot's arrivals as one batch and folds their waits
with array operations.  This module spells the same model out one request
at a time, so the driver is checked against an independent literal loop
rather than against itself.
"""

from repro.sim.sketches import BinnedQuantileSketch
from repro.sim.slotted import WAIT_SKETCH_BINS, SlottedResult
from repro.sim.stats import OnlineStats


def reference_run(protocol, arrivals, d, horizon, warmup=0):
    """Run ``protocol`` request by request; return ``(result, trace records)``."""
    loads, weights = OnlineStats(), OnlineStats()
    series, records = [], []
    sketch = BinnedQuantileSketch(d, WAIT_SKETCH_BINS)
    wait_sum, wait_max, measured, index = 0.0, 0.0, 0, 0
    for slot in range(horizon):
        if slot >= warmup:
            loads.add(float(protocol.slot_load(slot)))
            weights.add(protocol.slot_weight(slot))
            series.append(protocol.slot_load(slot))
        slot_end = (slot + 1) * d
        delivered = 0
        while index < len(arrivals) and arrivals[index] < slot_end:
            t = float(arrivals[index])
            index += 1
            if t < 0.0:  # before the simulated epoch: never delivered
                continue
            protocol.handle_request(slot)
            delivered += 1
            if slot >= warmup:
                wait = slot_end - t  # service starts at the next boundary
                wait_sum += wait
                wait_max = max(wait_max, wait)
                sketch.add(wait)
                measured += 1
        records.append(
            {
                "kind": "slot",
                "slot": slot,
                "streams": protocol.slot_load(slot),
                "weight": protocol.slot_weight(slot),
                "instances": protocol.slot_instances(slot),
                "arrivals": delivered,
                "measured": slot >= warmup,
            }
        )
        protocol.release_before(slot)
    result = SlottedResult(
        slot_duration=float(d),
        slots_measured=loads.count,
        mean_streams=loads.mean,
        max_streams=loads.maximum if loads.count else 0.0,
        n_requests=measured,
        mean_wait=wait_sum / measured if measured else 0.0,
        max_wait=wait_max,
        mean_weight=weights.mean,
        max_weight=weights.maximum if weights.count else 0.0,
        series=series,
        wait_p50=sketch.quantile(0.5) if measured else 0.0,
        wait_p99=sketch.quantile(0.99) if measured else 0.0,
    )
    return result, records
