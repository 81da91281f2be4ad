"""A fixed-size quantile sketch for streaming simulation output.

Long-horizon runs (10M+ requests) cannot afford to keep every waiting time
in a Python list just to report tail statistics at the end.
:class:`BinnedQuantileSketch` is a fixed-size counting histogram over a
*known* value range.  Counts are exact, so any batching of updates (one
value at a time, or whole numpy arrays per slot) produces the **same**
sketch state and therefore the same quantile estimates.  This is the
sketch on the slotted hot path: waiting times are bounded by the slot
duration ``d``, and the columnar driver must report bit-for-bit the same
numbers as a per-request loop.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import SimulationError

#: Default bin count: resolution of ``upper / 2048`` per estimate (a few
#: milliseconds of waiting time at figure-7 slot durations).
DEFAULT_BINS = 2048


class BinnedQuantileSketch:
    """Exact counting histogram over ``[0, upper]`` with quantile queries.

    Values below 0 clamp to the first bin and values at or above ``upper``
    clamp to the last, so the sketch never loses an observation; quantile
    estimates are conservative (each reports its bin's upper edge, at most
    ``upper / n_bins`` above the true order statistic).

    Because the state is a pure count vector, scalar :meth:`add` calls and
    batched :meth:`add_array` calls commute: any interleaving over the same
    multiset of observations yields identical state.  The slotted
    simulation's batched wait accounting relies on exactly that property.

    >>> sketch = BinnedQuantileSketch(upper=10.0, n_bins=10)
    >>> for value in [1.0, 2.0, 3.0, 9.0]:
    ...     sketch.add(value)
    >>> sketch.count
    4
    >>> sketch.quantile(1.0)
    10.0
    """

    __slots__ = ("upper", "n_bins", "_scale", "_counts", "_count")

    def __init__(self, upper: float, n_bins: int = DEFAULT_BINS):
        if upper <= 0:
            raise SimulationError(f"sketch upper bound must be > 0, got {upper}")
        if n_bins < 1:
            raise SimulationError(f"sketch needs >= 1 bin, got {n_bins}")
        self.upper = float(upper)
        self.n_bins = int(n_bins)
        self._scale = self.n_bins / self.upper
        self._counts = np.zeros(self.n_bins, dtype=np.int64)
        self._count = 0

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._count

    def add(self, value: float) -> None:
        """Record one observation (clamped into the sketch range)."""
        index = int(value * self._scale)
        if index < 0:
            index = 0
        elif index >= self.n_bins:
            index = self.n_bins - 1
        self._counts[index] += 1
        self._count += 1

    def add_array(self, values: np.ndarray) -> None:
        """Record a whole array of observations in one vectorised pass.

        Exactly equivalent to calling :meth:`add` on each element: the bin
        index uses the same truncation (``int()`` and ``astype`` both
        truncate toward zero) and the same clamping.
        """
        if values.size == 0:
            return
        indices = (values * self._scale).astype(np.int64)
        np.clip(indices, 0, self.n_bins - 1, out=indices)
        self._counts += np.bincount(indices, minlength=self.n_bins)
        self._count += int(values.size)

    def quantile(self, q: float) -> float:
        """Upper edge of the bin holding the ``q``-quantile (0.0 when empty).

        Deterministic in the count vector alone, so two sketches fed the
        same observations in any order and batching agree bit-for-bit.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = max(q * self._count, 1.0)
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, target, side="left"))
        return min((index + 1) / self._scale, self.upper)

    def merge(self, other: "BinnedQuantileSketch") -> None:
        """Fold ``other`` into this sketch (bins must line up exactly)."""
        if other.upper != self.upper or other.n_bins != self.n_bins:
            raise SimulationError(
                f"cannot merge sketch over [0, {other.upper}]x{other.n_bins} "
                f"into [0, {self.upper}]x{self.n_bins}"
            )
        self._counts += other._counts
        self._count += other._count

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (sparse: only occupied bins are listed)."""
        occupied = np.nonzero(self._counts)[0]
        return {
            "upper": self.upper,
            "n_bins": self.n_bins,
            "bins": {int(i): int(self._counts[i]) for i in occupied},
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "BinnedQuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls(float(state["upper"]), int(state["n_bins"]))
        for index, count in state["bins"].items():
            sketch._counts[int(index)] = int(count)
        sketch._count = int(sketch._counts.sum())
        return sketch
