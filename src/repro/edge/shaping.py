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


#: Most picks one speculation round guesses and verifies: about one node's
#: share of a 64-slot decision chunk on the 100x ``day`` workload.
SPECULATION_PICKS = 4096
#: Fewest picks a round guesses: below a few hundred the round's fixed
#: cost dominates.
MIN_SPECULATION = 256
#: Latest picks kept to guess from.
HISTORY_PICKS = 4096
#: Longest lag a guess may take, in periods of Σ weights picks.
LAG_PERIODS = 32
#: Latest picks each candidate lag is checked against.
LAG_CHECK_PICKS = 512
#: Fewest draws a class replays in array operations: below this the
#: per-draw loop is cheaper than the replay's fixed cost.
REPLAY_DRAWS = 48


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


def _recurrence(credits: List[float], shares: List[float], m: int) -> Tuple[List[int], List[float]]:
    """The next ``m`` picks of the per-request WRR from ``credits``, and
    the credits after them."""
    picks: List[int] = []
    append = picks.append
    for _ in range(m):
        credits = list(map(add, credits, shares))
        top = max(credits)
        best = credits.index(top)
        credits[best] = top - 1.0
        append(best)
    return picks, credits


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
        self._share_column = np.array(self._shares)[:, None]
        self._class_column = np.arange(n)[:, None]
        self._credits = [0.0] * n
        # Classification runs ahead (see _picks): picks verified but not
        # yet handed out with the credits after each, the credits after
        # the last one verified, the next window's size, the picks kept to
        # guess from, the guess's lag and the seed guesses.
        self._ready = np.empty(0, dtype=np.int64)
        self._ready_credits = np.empty((n, 0))
        self._tip = np.zeros(n)
        self._window = MIN_SPECULATION
        self._recent = np.empty(0, dtype=np.int64)
        self._lag_unit = self._lag = total_weight
        self._seed_credits = [0.0] * n
        self._seed: List[int] = []
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

        Request ``i`` costs ``costs[i] >= 0`` tokens and comes after
        ``epochs[i]`` of the run's ``n_epochs - 1`` slot starts (``epochs``
        is non-decreasing); every slot start refills every bucket.  Classes
        come from the weighted round-robin in request order (:meth:`_picks`),
        then each class replays its own refills and draws in that order
        (:meth:`_draws`), so the outcome is the request-by-request sequence
        exactly.  Returns ``(classes, defers)`` arrays; a defer of -1 marks
        a request its zero-share class shaped out.
        """
        costs = np.asarray(costs, dtype=np.int64)
        epochs = np.asarray(epochs, dtype=np.int64)
        classes = self._picks(len(costs))
        defers = np.empty(len(costs), dtype=np.int64)
        for index in range(len(self.classes)):
            mine = classes == index
            defers[mine] = self._draws(index, costs[mine], epochs[mine], n_epochs - 1)
        return classes, defers

    def _picks(self, count: int) -> np.ndarray:
        """Classify ``count`` requests in turn; return their class indices.

        Weighted round-robin credits: every class earns its share, the
        first class holding the largest credit (ties go to declaration
        order) takes the request and pays one credit.  The picks depend on
        nothing but how many came before, so they are verified ahead, a
        window at a time (:meth:`_speculate`), and handed out from there;
        ``_credits`` is the state after the last pick handed out.  When Σ
        weights exceeds the history kept, every guess would be the
        recurrence's own pick, so the recurrence hands them out itself.
        """
        if not count:
            return np.empty(0, dtype=np.int64)
        if self._lag_unit > HISTORY_PICKS:
            picks, self._credits = _recurrence(self._credits, self._shares, count)
            picks = np.array(picks, dtype=np.int64)
        else:
            parts = []
            while count:
                if not len(self._ready):
                    self._speculate()
                take = min(count, len(self._ready))
                parts.append(self._ready[:take])
                self._credits = self._ready_credits[:, take - 1].tolist()
                self._ready = self._ready[take:]
                self._ready_credits = self._ready_credits[:, take:]
                count -= take
            picks = parts[0] if len(parts) == 1 else np.concatenate(parts)
        requests = self._requests
        for index, n in enumerate(np.bincount(picks, minlength=len(requests))):
            requests[index] += int(n)
        return picks

    def _speculate(self) -> None:
        """Verify the next window of picks; queue them and their credits.

        The window's picks are guessed (:meth:`_guess`), then each class's
        credit is replayed as one sequential ``np.cumsum`` over ``+share``
        and, where the guess picks it, ``-1.0`` (``-0.0`` elsewhere): the
        loop's own additions in the loop's order.  ``argmax`` over the
        classes, first index on ties, is the loop's pick.  Every pick up to
        the first one that disagrees with its guess saw exact credits, that
        pick included, so those are queued and the rest of the window is
        dropped.  The window doubles after a window without a wrong guess,
        up to ``SPECULATION_PICKS``, and shrinks to twice the picks kept
        (at least ``MIN_SPECULATION``) after one, so a wrong guess costs
        work in proportion to the picks it kept, plus a constant.
        """
        m = self._window
        guess = self._guess(m)
        steps = np.empty((len(self._shares), 2 * m + 1))
        steps[:, 0] = self._tip
        steps[:, 1::2] = self._share_column
        # -0.0 where the guess picks another class: x + -0.0 is x exactly.
        np.multiply(guess == self._class_column, -1.0, out=steps[:, 2::2])
        np.add.accumulate(steps, axis=1, out=steps)
        before = steps[:, 1::2]
        # argmax over the classes, first index on ties: a class takes the
        # pick only from a strictly smaller credit.
        actual = np.zeros(m, dtype=np.int64)
        top = before[0]
        for index in range(1, len(before)):
            credit = before[index]
            actual[credit > top] = index
            top = np.maximum(top, credit)
        wrong = actual != guess
        miss = int(wrong.argmax())
        missed = bool(wrong[miss])
        after = steps[:, 2::2]
        if missed:
            m = miss + 1
            # The wrong guess subtracted from the wrong class.
            after[:, miss] = before[:, miss]
            after[actual[miss], miss] -= 1.0
        self._window = min(SPECULATION_PICKS, max(MIN_SPECULATION, 2 * m))
        self._ready = actual[:m]
        self._ready_credits = after[:, :m]
        self._tip = after[:, m - 1]
        self._learn(self._ready, missed)

    def _guess(self, m: int) -> np.ndarray:
        """Guess the next ``m`` picks: each one the pick ``lag`` picks earlier.

        ``lag`` starts at Σ weights, the period of WRR on exact fractions.
        Picks with none verified ``lag`` picks before them are guessed by
        the recurrence run ahead from zero credits; ``_seed`` holds what it
        produced past the picks verified.  (Integer WRR would be a cheaper
        seed, but float shares part from it early: for 7:3 at the fifth
        and sixth picks.)  Past the picks verified the guess repeats
        itself with the same lag.
        """
        recent, lag, seed = self._recent, self._lag, self._seed
        head = min(lag, m)
        start = len(recent) - lag
        if start >= 0:
            guess = recent[start:start + head]
        else:
            seeded = min(head, -start)
            if len(seed) < seeded:
                more, self._seed_credits = _recurrence(
                    self._seed_credits, self._shares, seeded - len(seed))
                seed.extend(more)
            guess = np.array(seed[:seeded] + recent[:head - seeded].tolist(), dtype=np.int64)
        return guess.take(np.arange(m) % head) if m > head else guess

    def _learn(self, verified: np.ndarray, missed: bool) -> None:
        """Record verified picks; after a miss, re-choose the guess's lag.

        The new lag is the multiple of Σ weights (up to ``LAG_PERIODS`` of
        them, within half the history kept) that predicted the longest run
        of the latest picks, the shortest on ties.
        """
        del self._seed[:len(verified)]
        unit = self._lag_unit
        recent = np.concatenate((self._recent, verified))[-HISTORY_PICKS:]
        self._recent = recent
        longest = min(LAG_PERIODS, len(recent) // (2 * unit))
        if not missed or longest < 2:
            return
        lags = unit * np.arange(1, longest + 1)
        span = min(len(recent) - lags[-1], LAG_CHECK_PICKS)
        at = np.arange(len(recent) - span, len(recent))
        wrong = recent[at - lags[:, None]] != recent[at]
        last = np.where(
            wrong.any(axis=1), span - 1 - wrong[:, ::-1].argmax(axis=1), -1
        )
        self._lag = int(lags[last.argmin()])

    def _draws(
        self, index: int, costs: np.ndarray, epochs: np.ndarray, n_refills: int
    ) -> Sequence[int]:
        """Meter class ``index``'s draws over ``n_refills`` slot starts.

        Draw ``i`` of ``costs[i]`` tokens comes after ``epochs[i]`` of the
        slot starts.  A slot start refills the bucket to
        ``min(level + rate, capacity)``; a draw of ``k`` tokens defers
        ``ceil((k - level) / rate)`` slots when the level cannot cover it,
        and always subtracts ``k``.  A class with no uplink shapes every
        draw out (-1); its level stays at its zero capacity.

        The refills and draws are replayed as one sequential ``np.cumsum``
        of ``+rate`` and ``-k`` from the current level: the loop's own
        additions, exact up to the first refill where the capacity clamp
        binds.  From that refill on, :meth:`_meter` (the bucket's one
        definition) runs draw by draw.  A bucket in debt is decided wholly
        in array operations; one that would refill to capacity before its
        first draw, or a run of fewer than ``REPLAY_DRAWS`` draws, goes
        straight to the loop.
        """
        rate = self._rates[index]
        n = len(costs)
        if rate <= 0.0:
            self._bypassed[index] += n
            return [-1] * n
        level = self._levels[index]
        capacity = self._capacities[index]
        # A short run costs less draw by draw than the replay's set-up, and
        # a bucket that refills to capacity before its first draw would
        # fail the replay at once: meter those from the start.
        if n < REPLAY_DRAWS or level + epochs[0] * rate > capacity:
            return self._meter(index, level, 0, costs.tolist(), epochs.tolist(), n_refills)
        # Step 0 is the level; draw i sits after its epochs[i] refills and
        # the i draws before it.
        at = epochs + np.arange(1, n + 1)
        steps = np.full(n_refills + n + 1, rate)
        steps[0] = level
        steps[at] = -costs
        np.add.accumulate(steps, out=steps)
        # The first refill that overshoots the capacity is where the clamp
        # binds; step 0 never does (a level never exceeds its capacity).
        stop = int((steps > capacity).argmax()) or len(steps)
        decided = n if stop == len(steps) else int(np.searchsorted(at, stop))
        before = steps[at[:decided] - 1]
        mine = costs[:decided]
        defers = np.where(before >= mine, 0.0, np.ceil((mine - before) / rate))
        defers = defers.astype(np.int64)
        self._deferrals[index] += int(np.count_nonzero(defers))
        self._deferral_slots[index] += int(defers.sum())
        self._levels[index] = float(steps[stop - 1])
        if stop == len(steps):
            return defers
        rest = self._meter(
            index,
            self._levels[index],
            stop - 1 - decided,
            costs[decided:].tolist(),
            epochs[decided:].tolist(),
            n_refills,
        )
        return np.concatenate((defers, rest))

    def _meter(
        self,
        index: int,
        level: float,
        refilled: int,
        costs: List[int],
        epochs: List[int],
        n_refills: int,
    ) -> List[int]:
        """Class ``index``'s bucket, draw by draw, from ``level`` after
        ``refilled`` of the slot starts; counts the deferrals it returns."""
        rate = self._rates[index]
        capacity = self._capacities[index]
        defers: List[int] = []
        append = defers.append
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
