"""Stream tapping with unlimited extra tapping (Carter & Long 1997).

The purely reactive baseline of Figure 7.  Clients have a set-top-box buffer
that "allows them to tap into streams of data on the VOD server originally
created for other clients, and then store the data until they are needed";
the figure "assumed ... an unlimited buffer size for stream tapping", and the
protocol grants instant (zero-delay) access.

Model
-----
Requests form *groups* anchored by a **complete stream** that transmits the
whole video ``[0, D)`` in real time from the group's first arrival ``t0``.

A request arriving ``Δ = t - t0`` later taps the complete stream for the
video suffix ``[Δ, D)`` (the part still to come) and must obtain the prefix
``[0, Δ)`` otherwise:

* **full tap** — its own server stream of length ``Δ``;
* **extra tapping** (unlimited) — it may additionally tap *any* earlier
  group member's partial stream.  Member ``j`` (arrival ``t_j``) transmits
  each of its own video pieces just-in-time (position ``x`` at wall time
  ``t_j + x``), so the newcomer can capture the portion of ``j``'s pieces at
  positions ``>= t - t_j``.  The newcomer's own stream then carries only the
  *uncovered gaps* of ``[0, Δ)`` — again just-in-time, which both meets every
  playout deadline and maximises what later clients can tap in turn.

When ``Δ`` exceeds a restart threshold the server starts a fresh complete
stream instead (Carter & Long's stream-restart option); we use the window
that is cost-optimal for Poisson arrivals
(:func:`repro.analysis.theory.optimal_patching_window`), either from a
configured expected rate (computed once) or from an online interarrival
estimate.

Coverage as a latest-transmitter map
------------------------------------
A newcomer at ``t`` can capture position ``y`` from member ``j`` iff ``y``
lies in ``j``'s own pieces and ``y >= t - t_j``.  For a fixed ``t`` the
threshold ``t - t_j`` (rounded) never increases as ``t_j`` grows, so ``y``
is capturable iff it is capturable from the *latest* member that sent it.
The group therefore keeps one piecewise-constant map over video positions
``[0, ∞)`` recording ``L(y)``, that latest member's arrival time (``None``
where no member sent ``y``).  On a constant piece ``[a, b)`` the newcomer
owes ``[a, min(b, t - L, Δ))`` — always a prefix of the piece — and touching
gaps are merged; the newcomer then becomes the latest transmitter of its
gaps (``L = t``).  Arrivals are monotone, so no earlier member ever has to
be revisited: a request costs one pass over the map's pieces below ``Δ``.
This returns exactly the gap lists of a rescan of every member's pieces,
bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.theory import optimal_patching_window
from ..errors import ConfigurationError, SimulationError
from ..sim.continuous import BusyInterval, ReactiveModel
from ..units import HOUR, TWO_HOURS

_INF = float("inf")


class StreamTappingProtocol(ReactiveModel):
    """Stream tapping with optional unlimited extra tapping.

    Parameters
    ----------
    duration:
        Video length ``D`` in seconds.
    expected_rate_per_hour:
        Poisson rate used to fix the complete-stream restart window.  When
        omitted the protocol estimates the rate online (exponential moving
        average over interarrival gaps).
    extra_tapping:
        ``True`` (the paper's configuration) allows tapping other clients'
        partial streams; ``False`` degrades to plain full taps.
    restart_window:
        Explicit restart threshold in seconds, overriding the optimal
        window.

    Requests must arrive in time order: :meth:`handle_request` raises
    :class:`~repro.errors.SimulationError` on a time earlier than the
    previous one.

    Examples
    --------
    >>> st = StreamTappingProtocol(duration=100.0, expected_rate_per_hour=360.0)
    >>> st.handle_request(0.0)    # first request: a complete stream
    [(0.0, 100.0)]
    >>> st.handle_request(4.0)    # 4 s later: a 4-second full tap
    [(4.0, 8.0)]
    >>> st.handle_request(6.0)    # taps the previous client too: 2 x 2 s
    [(6.0, 8.0), (10.0, 12.0)]
    """

    def __init__(
        self,
        duration: float = TWO_HOURS,
        expected_rate_per_hour: Optional[float] = None,
        extra_tapping: bool = True,
        restart_window: Optional[float] = None,
    ):
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self.duration = float(duration)
        self.extra_tapping = extra_tapping
        # The window is fixed unless the rate is estimated online.
        self._window: Optional[float] = restart_window
        if restart_window is None and expected_rate_per_hour:
            self._window = optimal_patching_window(
                expected_rate_per_hour / HOUR, self.duration
            )
        self._estimated_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None
        # Group state: complete-stream start + the latest-transmitter map.
        # Piece i covers video [_bounds[i], _bounds[i + 1]) (the sentinel
        # ends the last piece at +inf); _latest[i] is the arrival time of
        # the latest member that transmitted it, or None.
        self._group_start: Optional[float] = None
        self._bounds: List[float] = [0.0, _INF]
        self._latest: List[Optional[float]] = [None]
        self.complete_streams = 0
        self.requests_served = 0

    def restart_window(self) -> float:
        """Current complete-stream restart threshold in seconds."""
        if self._window is not None:
            return self._window
        if self._estimated_gap is None or self._estimated_gap <= 0:
            return self.duration
        return optimal_patching_window(1.0 / self._estimated_gap, self.duration)

    def _observe_gap(self, time: float) -> None:
        if self._last_arrival is not None:
            gap = time - self._last_arrival
            if self._estimated_gap is None:
                self._estimated_gap = gap
            else:  # EMA keeps the estimate adaptive to demand swings.
                self._estimated_gap = 0.9 * self._estimated_gap + 0.1 * gap
        self._last_arrival = time

    def _start_group(self, time: float) -> List[BusyInterval]:
        self._group_start = time
        self._bounds = [0.0, _INF]
        self._latest = [None]
        self.complete_streams += 1
        return [(time, time + self.duration)]

    def handle_request(self, time: float) -> List[BusyInterval]:
        """Serve one request; returns the new server streams it costs."""
        last = self._last_arrival
        if not time >= (-_INF if last is None else last):  # also rejects NaN
            raise SimulationError(
                f"arrival {time} is NaN or precedes the previous arrival {last}"
            )
        self._observe_gap(time)
        self.requests_served += 1
        if self._group_start is None or time >= self._group_start + self.duration:
            return self._start_group(time)
        delta = time - self._group_start
        if delta > self.restart_window():
            return self._start_group(time)
        if not self.extra_tapping:
            return [(time, time + delta)] if delta > 0 else []
        return self._tap(time, delta)

    def _tap(self, time: float, delta: float) -> List[BusyInterval]:
        """Stream the uncovered gaps of ``[0, delta)``; become their transmitter.

        Each gap piece ``[lo, hi)`` of video is transmitted just-in-time,
        i.e. during wall time ``[time + lo, time + hi)``.
        """
        bounds = self._bounds
        latest = self._latest
        streams: List[BusyInterval] = []
        lo = hi = None  # the open gap, merged while pieces touch
        # The rebuilt map below delta: the gap prefix of each piece now
        # belongs to this request, the rest keeps its transmitter.
        new_bounds: List[float] = []
        new_latest: List[Optional[float]] = []
        i = 0
        a = 0.0
        while a < delta:
            b = bounds[i + 1]
            owner = latest[i]
            end = b if b < delta else delta
            if owner is not None:
                reach = time - owner
                if reach < end:
                    end = reach
            if end > a:
                if hi == a:
                    hi = end
                else:
                    if hi is not None:
                        streams.append((time + lo, time + hi))
                    lo, hi = a, end
                if not new_latest or new_latest[-1] != time:
                    new_bounds.append(a)
                    new_latest.append(time)
                if end < b:
                    new_bounds.append(end)
                    new_latest.append(owner)
            elif not new_latest or new_latest[-1] != owner:
                new_bounds.append(a)
                new_latest.append(owner)
            i += 1
            a = b
        if hi is not None:
            streams.append((time + lo, time + hi))
        bounds[:i] = new_bounds
        latest[:i] = new_latest
        return streams

    def startup_delay(self, time: float) -> float:
        """Stream tapping gives instant access."""
        return 0.0

