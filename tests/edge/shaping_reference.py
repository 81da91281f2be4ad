"""Reference policy shaper: the dict-keyed classifier and bucket, literally.

This is :class:`repro.edge.shaping.PolicyShaper` as it stood before the
per-arrival edge path was made allocation-free: ``classify`` takes
``max(range, key=(credit, -index))`` over the credit accumulators, and
``reserve`` looks up a :class:`_Bucket` and bumps the per-class counter
dicts by class name.  ``test_shaping_oracle.py`` checks the production
shaper against it: same class sequence, same deferrals, same counters.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.edge.shaping import TrafficClass, validate_classes


class _Bucket:
    """A token bucket with debt: refills ``rate``/slot up to ``capacity``."""

    def __init__(self, rate: float, capacity: float):
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.level = float(capacity)

    def refill(self) -> None:
        self.level = min(self.level + self.rate, self.capacity)

    def take(self, cost: int) -> int:
        if self.level >= cost:
            self.level -= cost
            return 0
        defer = int(math.ceil((cost - self.level) / self.rate))
        self.level -= cost
        return defer


class ReferenceShaper:
    """Weighted round-robin classes, one debt-carrying bucket per class."""

    def __init__(
        self,
        classes: Sequence[TrafficClass],
        uplink_streams: float = 0.0,
        burst_slots: float = 4.0,
    ):
        self.classes = validate_classes(classes)
        self.uplink_streams = float(uplink_streams)
        self.burst_slots = float(burst_slots)
        total_weight = sum(cls.weight for cls in self.classes)
        self._shares = [cls.weight / total_weight for cls in self.classes]
        self._credits = [0.0] * len(self.classes)
        self._buckets: Dict[str, _Bucket] = {
            cls.name: _Bucket(
                cls.uplink_share * self.uplink_streams,
                cls.uplink_share * self.uplink_streams * self.burst_slots,
            )
            for cls in self.classes
        }
        self.requests: Dict[str, int] = {cls.name: 0 for cls in self.classes}
        self.deferrals: Dict[str, int] = {cls.name: 0 for cls in self.classes}
        self.deferral_slots: Dict[str, int] = {
            cls.name: 0 for cls in self.classes
        }
        self.bypassed: Dict[str, int] = {cls.name: 0 for cls in self.classes}

    def begin_slot(self) -> None:
        for bucket in self._buckets.values():
            bucket.refill()

    def classify(self) -> TrafficClass:
        for index, share in enumerate(self._shares):
            self._credits[index] += share
        best = max(range(len(self._credits)), key=lambda i: (self._credits[i], -i))
        self._credits[best] -= 1.0
        chosen = self.classes[best]
        self.requests[chosen.name] += 1
        return chosen

    def reserve(self, traffic_class: TrafficClass, segments: int) -> Optional[int]:
        bucket = self._buckets[traffic_class.name]
        if bucket.rate <= 0.0:
            self.bypassed[traffic_class.name] += 1
            return None
        defer = bucket.take(segments)
        if defer > 0:
            self.deferrals[traffic_class.name] += 1
            self.deferral_slots[traffic_class.name] += defer
        return defer
