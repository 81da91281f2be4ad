"""Policy-based traffic shaping at the edge uplink.

An edge node's unicast uplink is a shared, finite resource; policy-based
shaping (in the spirit of programmable traffic-management surveys) splits
it into *traffic classes* — ``premium`` and ``best-effort`` by default —
so a burst of background demand cannot starve paying viewers.  Two
mechanisms, both deterministic so seeded runs reproduce bit for bit:

* **classification** — requests are assigned to classes by weighted
  round-robin credit accumulators: every request adds ``w_c / W`` credit
  to each class and the class with the most credit (ties to declaration
  order) takes the request, paying one credit.  Long-run class shares
  converge to the weights without consuming any randomness — new RNG
  draws would perturb the seeded cluster streams and break the
  zero-budget bit-for-bit guarantee.
* **token buckets** — class ``c`` earns ``share_c × uplink`` tokens per
  slot (one token = one segment unicast in one slot).  A prefix of ``k``
  segments costs ``k`` tokens; when the bucket cannot cover the cost the
  request is *deferred* by exactly the slots the refill needs — the
  client-visible wait the shaper trades for isolation.  A class with zero
  uplink share is shaped out entirely: its requests bypass the edge and
  fetch the whole video from the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class TrafficClass:
    """One shaping class: a share of requests and a share of the uplink.

    ``weight`` drives classification (class takes ``weight / Σ weights``
    of the requests); ``uplink_share`` is the fraction of the edge uplink
    its token bucket earns per slot.  The two are deliberately separate —
    a premium class with a small request share and a large uplink share is
    exactly the point of shaping.
    """

    name: str
    weight: int
    uplink_share: float

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("traffic class needs a name")
        if self.weight < 1:
            raise ConfigurationError(
                f"class {self.name}: weight must be >= 1, got {self.weight}"
            )
        if not 0.0 <= self.uplink_share <= 1.0:
            raise ConfigurationError(
                f"class {self.name}: uplink_share must be in [0, 1], "
                f"got {self.uplink_share}"
            )


#: The stock premium / best-effort split used by presets and the CLI.
DEFAULT_CLASSES: Tuple[TrafficClass, ...] = (
    TrafficClass("premium", weight=7, uplink_share=0.7),
    TrafficClass("best-effort", weight=3, uplink_share=0.3),
)


def parse_classes(spec: str) -> Tuple[TrafficClass, ...]:
    """Parse a CLI class spec: ``name:weight:share,name:weight:share,...``.

    >>> [c.name for c in parse_classes("gold:3:0.8,bronze:1:0.2")]
    ['gold', 'bronze']
    """
    classes: List[TrafficClass] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigurationError(
                f"bad class spec {part!r}; expected name:weight:share"
            )
        name, weight, share = pieces
        try:
            classes.append(
                TrafficClass(name, weight=int(weight), uplink_share=float(share))
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad class spec {part!r}: {exc}") from None
    if not classes:
        raise ConfigurationError(f"class spec {spec!r} declares no classes")
    return validate_classes(tuple(classes))


def validate_classes(
    classes: Sequence[TrafficClass],
) -> Tuple[TrafficClass, ...]:
    """Check a class set: unique names, uplink shares summing to <= 1."""
    if not classes:
        raise ConfigurationError("need >= 1 traffic class")
    names = [cls.name for cls in classes]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate traffic class names in {names}")
    total_share = sum(cls.uplink_share for cls in classes)
    if total_share > 1.0 + 1e-9:
        raise ConfigurationError(
            f"uplink shares sum to {total_share:.3f} > 1"
        )
    return tuple(classes)


class PolicyShaper:
    """Classify requests and meter each class's draw on the edge uplink.

    Parameters
    ----------
    classes:
        The traffic classes (validated; see :func:`validate_classes`).
    uplink_streams:
        The edge node's per-slot unicast capacity in streams; each class's
        bucket earns ``uplink_share × uplink_streams`` tokens per slot.
    burst_slots:
        Bucket capacity in slots of refill — the burst allowance each
        class may spend after an idle stretch.

    Each class's bucket carries debt: a draw always succeeds, returning
    how many slots the caller must wait for the refills to cover the debt.
    Letting the level go negative models the class's uplink queue without
    tracking individual transfers — the deferral *is* the queueing delay.
    The capacity (a few slots' worth of tokens) is the burst allowance: it
    must dwarf one prefix's cost or even an idle uplink would defer every
    request, the token-bucket analogue of sizing the bucket to the maximum
    packet.

    State is kept in lists by class *index* (declaration order).
    :meth:`shape` classifies and meters a whole run of requests at once —
    one request, or none with one slot start, is the same call — and the
    per-class counters read back as name-keyed dicts.
    """

    def __init__(
        self,
        classes: Sequence[TrafficClass] = DEFAULT_CLASSES,
        uplink_streams: float = 0.0,
        burst_slots: float = 4.0,
    ):
        self.classes = validate_classes(classes)
        if uplink_streams < 0:
            raise ConfigurationError(
                f"uplink_streams must be >= 0, got {uplink_streams}"
            )
        if burst_slots < 1:
            raise ConfigurationError(
                f"burst_slots must be >= 1, got {burst_slots}"
            )
        self.uplink_streams = float(uplink_streams)
        self.burst_slots = float(burst_slots)
        self.names = tuple(cls.name for cls in self.classes)
        n = len(self.classes)
        total_weight = sum(cls.weight for cls in self.classes)
        self._shares = [cls.weight / total_weight for cls in self.classes]
        self._credits = [0.0] * n
        # Token buckets: refill rate, capacity and (possibly negative) level.
        self._rates = [cls.uplink_share * self.uplink_streams for cls in self.classes]
        self._capacities = [rate * self.burst_slots for rate in self._rates]
        self._levels = list(self._capacities)
        # Lifetime counters.
        self._requests = [0] * n
        self._deferrals = [0] * n
        self._deferral_slots = [0] * n
        self._bypassed = [0] * n

    def _by_name(self, counts: List[int]) -> Dict[str, int]:
        return dict(zip(self.names, counts))

    @property
    def requests(self) -> Dict[str, int]:
        """Requests classified into each class."""
        return self._by_name(self._requests)

    @property
    def deferrals(self) -> Dict[str, int]:
        """Reservations each class had to defer."""
        return self._by_name(self._deferrals)

    @property
    def deferral_slots(self) -> Dict[str, int]:
        """Slots of deferral summed over each class's reservations."""
        return self._by_name(self._deferral_slots)

    @property
    def bypassed(self) -> Dict[str, int]:
        """Reservations each class shaped out (zero uplink share)."""
        return self._by_name(self._bypassed)

    def shape(
        self, costs: Sequence[int], epochs: Sequence[int], n_epochs: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Classify and meter a run of requests with slot starts between them.

        Request ``i`` costs ``costs[i]`` tokens and comes after ``epochs[i]``
        of the run's ``n_epochs - 1`` slot starts (``epochs`` is
        non-decreasing); every slot start refills every bucket.  Classes
        come from one weighted round-robin loop in request order, then each
        class replays its own refills and draws in that order, so the
        outcome is the request-by-request sequence exactly.  Returns
        ``(classes, defers)`` arrays; a defer of -1 marks a request its
        zero-share class shaped out.
        """
        costs = np.asarray(costs, dtype=np.int64)
        epochs = np.asarray(epochs, dtype=np.int64)
        classes = np.array(self._picks(len(costs)), dtype=np.int64)
        defers = np.empty(len(costs), dtype=np.int64)
        for index in range(len(self.classes)):
            mine = classes == index
            defers[mine] = self._draws(
                index, costs[mine].tolist(), epochs[mine].tolist(), n_epochs - 1
            )
        return classes, defers

    def _picks(self, count: int) -> List[int]:
        """Classify ``count`` requests in turn; return their class indices.

        Weighted round-robin credits: every class earns its share, the
        first class holding the largest credit (ties go to declaration
        order) takes the request and pays one credit.
        """
        credits = self._credits
        shares = self._shares
        picks: List[int] = []
        append = picks.append
        for _ in range(count):
            credits = list(map(add, credits, shares))
            top = max(credits)
            best = credits.index(top)
            credits[best] = top - 1.0
            append(best)
        self._credits = credits
        requests = self._requests
        for index in range(len(requests)):
            requests[index] += picks.count(index)
        return picks

    def _draws(
        self, index: int, costs: List[int], epochs: List[int], n_refills: int
    ) -> List[int]:
        """Meter class ``index``'s draws over ``n_refills`` slot starts.

        Draw ``i`` of ``costs[i]`` tokens comes after ``epochs[i]`` of the
        slot starts.  A slot start refills the bucket to
        ``min(level + rate, capacity)``; a draw of ``k`` tokens defers
        ``ceil((k - level) / rate)`` slots when the level cannot cover it,
        and always subtracts ``k``.  A class with no uplink shapes every
        draw out (-1); its level stays at its zero capacity.
        """
        rate = self._rates[index]
        if rate <= 0.0:
            self._bypassed[index] += len(costs)
            return [-1] * len(costs)
        capacity = self._capacities[index]
        level = self._levels[index]
        defers: List[int] = []
        append = defers.append
        refilled = 0
        # A last pseudo-draw (None) runs the refills after the last draw.
        for cost, epoch in zip(costs + [None], epochs + [n_refills]):
            while refilled < epoch:
                level += rate
                if level > capacity:
                    level = capacity
                refilled += 1
            if cost is None:
                break
            append(0 if level >= cost else math.ceil((cost - level) / rate))
            level -= cost
        self._levels[index] = level
        deferred = [defer for defer in defers if defer > 0]
        self._deferrals[index] += len(deferred)
        self._deferral_slots[index] += sum(deferred)
        return defers
