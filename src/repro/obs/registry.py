"""The metrics registry: counters, gauges, histograms, timers.

Design goals, in order:

1. **Cheap when off.**  ``None`` is the only way metrics are off:
   instrumented code holds an ``Optional`` registry and guards every
   emission with ``is not None``, so a run without a registry builds no
   registry or instrument and allocates nothing per event.
2. **Mergeable.**  Sweeps fan out across worker processes; each worker
   accumulates into its own registry and ships :meth:`MetricsRegistry.to_dict`
   back, which the parent folds in with :meth:`MetricsRegistry.merge_dict`.
   Counters add, gauges keep the last merged value, histograms and timers
   combine their :class:`~repro.sim.stats.OnlineStats` losslessly.
3. **Schema-stable.**  ``to_dict`` output is plain JSON (see
   ``docs/OBSERVABILITY.md``) and round-trips through ``from_dict``.

Metric names are dotted paths (``sim.slot_load``, ``protocol.requests``).
The registry creates instruments on first use; asking twice for the same
name returns the same object.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.stats import OnlineStats


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) occurrences."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name}: negative inc {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current level of the measured quantity."""
        self.value = float(value)
        self.updates += 1


class Histogram:
    """A distribution summary over observed values.

    Backed by :class:`~repro.sim.stats.OnlineStats`, so it carries
    count/mean/stddev/min/max in O(1) memory and merges losslessly.
    """

    __slots__ = ("name", "stats")

    def __init__(self, name: str, stats: Optional[OnlineStats] = None):
        self.name = name
        self.stats = stats if stats is not None else OnlineStats()

    def observe(self, value: float) -> None:
        """Incorporate one observation."""
        self.stats.add(value)


class _Span:
    """One wall-clock measurement; context manager returned by :meth:`Timer.time`."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "Timer"):
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.observe(time.perf_counter() - self._start)


class Timer(Histogram):
    """A histogram of wall-clock durations in seconds.

    >>> registry = MetricsRegistry()
    >>> with registry.timer("demo.span").time():
    ...     pass
    >>> registry.timer("demo.span").stats.count
    1
    """

    __slots__ = ()

    def time(self) -> _Span:
        """A context manager that observes the elapsed wall time on exit."""
        return _Span(self)


class MetricsRegistry:
    """Named instruments, created on first use and queryable ever after.

    >>> registry = MetricsRegistry()
    >>> registry.counter("sim.slots").inc(3)
    >>> registry.counter("sim.slots").value
    3
    >>> registry.histogram("sim.slot_load").observe(5.0)
    >>> sorted(name for name, _ in registry.instruments())
    ['sim.slot_load', 'sim.slots']
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created empty on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> Timer:
        """The timer called ``name``."""
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer(name)
        return instrument

    def instruments(self) -> Iterator[Tuple[str, object]]:
        """Every (name, instrument) pair, across all four kinds."""
        for family in (self._counters, self._gauges, self._histograms, self._timers):
            yield from family.items()

    # -- merge / serialization ------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. a worker's) into this one.

        Counters add; gauges take the other's value when it was ever set
        (merge order is task order, so "last writer wins" is well defined);
        histograms and timers combine their summaries losslessly.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            if gauge.updates:
                mine = self.gauge(name)
                mine.value = gauge.value
                mine.updates += gauge.updates
        for name, histogram in other._histograms.items():
            self.histogram(name).stats.merge(histogram.stats)
        for name, timer in other._timers.items():
            self.timer(name).stats.merge(timer.stats)

    def merge_dict(self, state: Dict[str, Dict]) -> None:
        """Fold a :meth:`to_dict` snapshot in (the cross-process path)."""
        self.merge(MetricsRegistry.from_dict(state))

    def to_dict(self) -> Dict[str, Dict]:
        """JSON-safe snapshot: ``{counters, gauges, histograms, timers}``."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {
                name: {"value": g.value, "updates": g.updates}
                for name, g in self._gauges.items()
            },
            "histograms": {
                name: h.stats.to_dict() for name, h in self._histograms.items()
            },
            "timers": {name: t.stats.to_dict() for name, t in self._timers.items()},
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name, value in state.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, payload in state.get("gauges", {}).items():
            gauge = registry.gauge(name)
            gauge.value = payload["value"]
            gauge.updates = int(payload["updates"])
        for name, payload in state.get("histograms", {}).items():
            registry._histograms[name] = Histogram(name, OnlineStats.from_dict(payload))
        for name, payload in state.get("timers", {}).items():
            timer = Timer(name)
            timer.stats = OnlineStats.from_dict(payload)
            registry._timers[name] = timer
        return registry
