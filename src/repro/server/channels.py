"""Channel pools and blocking-mode unicast VOD.

The paper's opening problem statement: "the major reason behind the high
cost of VOD is the extremely high bandwidths it requires to service
individual customer requests" — i.e. unicast, one channel per customer for
the whole video.  :class:`UnicastVODServer` models exactly that over a
finite :class:`ChannelPool`: requests that find no free channel are blocked
(classic loss system).  Because holding times equal the video length and
arrivals are Poisson, the blocking probability has the Erlang-B closed form
(:func:`erlang_b`), which the test suite uses to validate the simulator.
"""

from __future__ import annotations

import heapq
from typing import List

from ..errors import ConfigurationError
from ..sim.continuous import BusyInterval, ReactiveModel
from ..units import TWO_HOURS


def erlang_b(offered_load: float, n_channels: int) -> float:
    """Erlang-B blocking probability for ``offered_load`` Erlangs.

    Uses the numerically stable recurrence
    ``B(0) = 1; B(k) = a B(k-1) / (k + a B(k-1))``.

    >>> erlang_b(0.0, 4)
    0.0
    >>> round(erlang_b(2.0, 2), 4)
    0.4
    """
    if offered_load < 0:
        raise ConfigurationError(f"offered load must be >= 0, got {offered_load}")
    if n_channels < 1:
        raise ConfigurationError(f"need >= 1 channel, got {n_channels}")
    blocking = 1.0
    for k in range(1, n_channels + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking


class ChannelPool:
    """A pool of ``capacity`` identical video channels.

    Tracks allocations over time; releases are driven by the caller's clock
    (allocations carry an end time, freed lazily).

    Examples
    --------
    >>> pool = ChannelPool(capacity=2)
    >>> pool.allocate(now=0.0, until=10.0)
    True
    >>> pool.allocate(now=1.0, until=5.0)
    True
    >>> pool.allocate(now=2.0, until=3.0)   # full
    False
    >>> pool.allocate(now=6.0, until=9.0)   # one released at t=5
    True
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ends: List[float] = []  # heap of busy-until times
        self.allocations = 0
        self.rejections = 0

    def _reap(self, now: float) -> None:
        while self._ends and self._ends[0] <= now:
            heapq.heappop(self._ends)

    def busy(self, now: float) -> int:
        """Channels currently held."""
        self._reap(now)
        return len(self._ends)

    def free(self, now: float) -> int:
        """Channels currently available."""
        return self.capacity - self.busy(now)

    def allocate(self, now: float, until: float) -> bool:
        """Try to hold one channel during ``[now, until)``."""
        if until < now:
            raise ConfigurationError(f"release {until} before allocation {now}")
        self._reap(now)
        if len(self._ends) >= self.capacity:
            self.rejections += 1
            return False
        heapq.heappush(self._ends, until)
        self.allocations += 1
        return True


class UnicastVODServer(ReactiveModel):
    """One dedicated channel per admitted customer; no sharing; blocking.

    Parameters
    ----------
    n_channels:
        Pool size.
    duration:
        Video length ``D`` (= channel holding time) in seconds.

    Examples
    --------
    >>> server = UnicastVODServer(n_channels=1, duration=10.0)
    >>> server.handle_request(0.0)
    [(0.0, 10.0)]
    >>> server.handle_request(5.0)   # blocked
    []
    >>> server.blocking_ratio
    0.5
    """

    def __init__(self, n_channels: int, duration: float = TWO_HOURS):
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self.pool = ChannelPool(n_channels)
        self.duration = float(duration)
        self.admitted = 0
        self.blocked = 0

    def handle_request(self, time: float) -> List[BusyInterval]:
        """Admit onto a free channel or block."""
        if self.pool.allocate(time, time + self.duration):
            self.admitted += 1
            return [(time, time + self.duration)]
        self.blocked += 1
        return []

    @property
    def blocking_ratio(self) -> float:
        """Fraction of requests blocked so far."""
        total = self.admitted + self.blocked
        return self.blocked / total if total else 0.0
