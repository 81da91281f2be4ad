"""Online statistics used by the measurement layer.

Two tools live here:

* :class:`OnlineStats` — Welford-style running mean/variance/min/max over
  discrete observations (e.g. per-slot stream counts).
* :func:`batch_means_ci` — a batch-means confidence interval for steady-state
  simulation output, used by the experiment runner to report uncertainty.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError


class OnlineStats:
    """Running count/mean/variance/min/max over scalar observations.

    Uses Welford's algorithm, so it is numerically stable for long runs.
    Two summaries accumulated independently (e.g. in sweep worker
    processes) combine losslessly via :meth:`merge`, and the state
    round-trips through plain dicts (:meth:`to_dict` / :meth:`from_dict`)
    so the observability registry can ship summaries across process
    boundaries as JSON.

    >>> s = OnlineStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     s.add(x)
    >>> s.mean, s.minimum, s.maximum
    (2.0, 1.0, 3.0)
    """

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Incorporate one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def add_many(self, values: Iterable[float]) -> None:
        """Incorporate a batch of observations.

        The :meth:`add` update inlined over local variables: the same float
        operations in the same order, so the summary is bit-for-bit the one
        a loop of :meth:`add` leaves (``min``/``max`` keep the first of
        equal values, as the builtins do).
        """
        count, mean, m2 = self.count, self._mean, self._m2
        low, high = self._min, self._max
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < low:
                low = value
            if value > high:
                high = value
        self.count, self._mean, self._m2 = count, mean, m2
        self._min, self._max = low, high

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 with fewer than two observations."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (+inf when empty, mirroring ``min`` of nothing)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (-inf when empty)."""
        return self._max

    def merge(self, other: "OnlineStats") -> None:
        """Fold ``other`` into this summary (parallel Welford combine).

        Equivalent to having observed both streams in one pass (Chan et
        al.'s pairwise update), so per-worker summaries merged by the
        sweep executor match the serial run's numbers.

        >>> a, b, ref = OnlineStats(), OnlineStats(), OnlineStats()
        >>> a.add_many([1.0, 2.0]); b.add_many([3.0, 4.0, 5.0])
        >>> ref.add_many([1.0, 2.0, 3.0, 4.0, 5.0])
        >>> a.merge(b)
        >>> (a.count, a.mean, a.maximum) == (ref.count, ref.mean, ref.maximum)
        True
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe snapshot of the summary state.

        ``min``/``max`` are ``None`` while empty (infinities are not valid
        JSON).
        """
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "min": None if self.count == 0 else self._min,
            "max": None if self.count == 0 else self._max,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Optional[float]]) -> "OnlineStats":
        """Rebuild a summary from :meth:`to_dict` output."""
        stats = cls()
        stats.count = int(state["count"])
        stats._mean = float(state["mean"])
        stats._m2 = float(state["m2"])
        if stats.count:
            stats._min = float(state["min"])
            stats._max = float(state["max"])
        return stats


def batch_means_ci(
    observations: Sequence[float], n_batches: int = 10, z: float = 1.96
) -> Tuple[float, float]:
    """Batch-means estimate ``(mean, half_width)`` for steady-state output.

    Splits ``observations`` (assumed post-warmup) into ``n_batches``
    contiguous batches, treats batch means as approximately independent, and
    returns the grand mean with a normal-theory half width.

    >>> mean, hw = batch_means_ci([1.0] * 100)
    >>> (mean, hw)
    (1.0, 0.0)
    """
    if n_batches < 2:
        raise SimulationError("batch means needs at least 2 batches")
    n = len(observations)
    if n < n_batches:
        raise SimulationError(f"{n} observations cannot fill {n_batches} batches")
    batch_size = n // n_batches
    means: List[float] = []
    for b in range(n_batches):
        batch = observations[b * batch_size : (b + 1) * batch_size]
        means.append(sum(batch) / len(batch))
    grand = sum(means) / n_batches
    var = sum((m - grand) ** 2 for m in means) / (n_batches - 1)
    half_width = z * math.sqrt(var / n_batches)
    return grand, half_width
