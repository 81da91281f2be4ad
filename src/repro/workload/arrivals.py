"""Request arrival processes.

All processes generate sorted arrival times in seconds over ``[0, horizon)``.
They draw from a caller-supplied :class:`numpy.random.Generator`, which the
experiment layer obtains from :class:`repro.sim.rng.RandomStreams` — the same
seed therefore reproduces the same workload for every protocol in a sweep
(common random numbers, the variance-reduction discipline the comparisons
rely on).
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from ..units import HOUR


class ArrivalProcess(abc.ABC):
    """Base class for arrival-time generators."""

    @abc.abstractmethod
    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        """Return sorted arrival times (seconds) in ``[0, horizon)``."""

    @staticmethod
    def _check_horizon(horizon: float) -> None:
        if horizon <= 0:
            raise WorkloadError(f"horizon must be > 0, got {horizon}")


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process — the paper's workload model.

    Parameters
    ----------
    rate_per_hour:
        Request arrival rate λ, in arrivals per hour (the unit of the x-axes
        of Figures 7–9).

    Examples
    --------
    >>> import numpy as np
    >>> process = PoissonArrivals(rate_per_hour=60.0)
    >>> times = process.generate(3600.0, np.random.default_rng(0))
    >>> bool(np.all(np.diff(times) >= 0))
    True
    """

    def __init__(self, rate_per_hour: float):
        if rate_per_hour < 0:
            raise WorkloadError(f"rate must be >= 0, got {rate_per_hour}")
        self.rate_per_hour = float(rate_per_hour)

    @property
    def rate_per_second(self) -> float:
        """λ expressed per second."""
        return self.rate_per_hour / HOUR

    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        self._check_horizon(horizon)
        lam = self.rate_per_second
        if lam == 0:
            return np.empty(0)
        expected = lam * horizon
        # Draw in chunks of exponential gaps until the horizon is crossed.
        times: List[np.ndarray] = []
        total = 0.0
        remaining = horizon
        while remaining > 0:
            chunk = max(int(lam * remaining * 1.1) + 16, 16)
            gaps = rng.exponential(1.0 / lam, size=chunk)
            cumulative = total + np.cumsum(gaps)
            inside = cumulative[cumulative < horizon]
            times.append(inside)
            if len(inside) < chunk:
                break
            total = float(cumulative[-1])
            remaining = horizon - total
        if not times:
            return np.empty(0)
        result = np.concatenate(times)
        if expected > 0 and len(result) == 0 and expected > 50:
            raise WorkloadError("Poisson generation produced no arrivals unexpectedly")
        return result


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals — useful for worst-case and anchor tests.

    The paper's bandwidth-peak argument ("slot 120! will contain one
    transmission of every segment") assumes at least one arrival per slot;
    this process realises exactly that workload.
    """

    def __init__(self, interval: float, offset: float = 0.0):
        if interval <= 0:
            raise WorkloadError(f"interval must be > 0, got {interval}")
        if offset < 0:
            raise WorkloadError(f"offset must be >= 0, got {offset}")
        self.interval = float(interval)
        self.offset = float(offset)

    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        self._check_horizon(horizon)
        return np.arange(self.offset, horizon, self.interval, dtype=float)


class TraceArrivals(ArrivalProcess):
    """Replays a fixed list of arrival times (e.g. a recorded trace)."""

    def __init__(self, times: Sequence[float]):
        array = np.asarray(sorted(float(t) for t in times))
        if len(array) and array[0] < 0:
            raise WorkloadError("trace contains negative arrival times")
        self.times = array

    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        self._check_horizon(horizon)
        return self.times[self.times < horizon]


#: Thinning candidates drawn before their rates are evaluated in one call.
#: Chunks of this size keep the draw lists' peak memory at or below the
#: single kept-times list of a one-rate-call-per-candidate loop; the
#: ``PCG64`` path reads this many raw words per buffer.
THINNING_CHUNK = 16_384


def pcg64_buffer_words() -> int:
    """Raw words per buffer of the ``PCG64`` path: :data:`THINNING_CHUNK`,
    at least 2 so that every buffer holds a candidate."""
    return max(THINNING_CHUNK, 2)


def _scalar_candidates(
    horizon: float, scale: float, rng: np.random.Generator
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Thinning candidates ``(times, uniforms)`` from one scalar
    ``exponential(scale)`` and one ``random()`` call per candidate, in
    chunks of :data:`THINNING_CHUNK`."""
    exponential, uniform = rng.exponential, rng.random
    t = 0.0
    crossed = False
    while not crossed:
        times: List[float] = []
        draws: List[float] = []
        for _ in range(THINNING_CHUNK):
            t += exponential(scale)
            if t >= horizon:
                crossed = True
                break
            times.append(t)
            draws.append(uniform())
        if times:
            yield np.array(times), np.array(draws)


class NonHomogeneousPoisson(ArrivalProcess):
    """Poisson process with a time-varying rate λ(t), by thinning.

    Models the introduction's motivating scenario: demand for a given video
    varies widely with the time of day.

    Candidates arrive at the bound's rate and each is kept with probability
    ``λ(t) / max_rate_per_hour``.  Per candidate the generator draws one
    exponential gap and then one uniform, stopping at the first gap past the
    horizon without a uniform for it; up to :data:`THINNING_CHUNK`
    candidates are drawn before :meth:`rates` evaluates them in one call.

    A generator whose bit generator is exactly ``numpy.random.PCG64`` is
    read in raw words instead (:mod:`repro.workload.pcg64`): the same gaps,
    uniforms and generator end state, bit for bit, from array operations.
    A slow ziggurat word is accepted or rejected, and a tail word drawn,
    from the word after it; only a slow word on a buffer's last two words
    or a near tie gets a scalar redraw.  Its tables and tail constant are
    derived and self-checked against the installed numpy on the first such
    call;
    any other bit generator, a subclass of ``PCG64`` included, or a failed
    derivation takes the scalar loop.  The flash and ring families thin on
    ``np.exp`` rates, exact where it matters (:mod:`repro.workload.recheck`).

    Parameters
    ----------
    rate_fn:
        Callable mapping time (seconds) to instantaneous rate (per hour).
    max_rate_per_hour:
        A bound with ``rate_fn(t) <= max_rate_per_hour`` for all ``t``;
        a violation raises :class:`~repro.errors.WorkloadError` naming the
        earliest offending candidate of the chunk it is observed in.
    """

    def __init__(self, rate_fn: Callable[[float], float], max_rate_per_hour: float):
        if max_rate_per_hour <= 0:
            raise WorkloadError(f"max rate must be > 0, got {max_rate_per_hour}")
        self.rate_fn = rate_fn
        self.max_rate_per_hour = float(max_rate_per_hour)

    def rates(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous rates (per hour) at each of ``times``.

        Maps ``rate_fn`` over them, which is exact for any scalar callable;
        the rate families override it with one array formula.
        """
        rate_fn = self.rate_fn
        return np.array([rate_fn(t) for t in np.asarray(times, dtype=float).tolist()])

    def rate_at(self, time_seconds: float) -> float:
        """Instantaneous rate (per hour) at ``time_seconds``."""
        return float(self.rates(np.array([time_seconds], dtype=float))[0])

    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        self._check_horizon(horizon)
        lam_max = self.max_rate_per_hour / HOUR
        scale = 1.0 / lam_max
        bit_generator = getattr(rng, "bit_generator", None)
        tables = None
        if type(bit_generator) is np.random.PCG64:
            # Imported here, so that set-up does not compile it.
            from . import pcg64

            tables = pcg64.ziggurat_tables()
        if tables is None:
            candidates = _scalar_candidates(horizon, scale, rng)
        else:
            candidates = pcg64.thinning_candidates(
                horizon, scale, bit_generator, tables, pcg64_buffer_words()
            )
        kept = [self._thin(times, draws) for times, draws in candidates]
        return np.concatenate(kept) if kept else np.empty(0)

    #: Terms of a family's rate sum when it has ``_np_exp_rates``, its
    #: formula with ``np.exp`` on times that never decrease; 0 if not.
    rate_terms = 0

    def _thin(self, times: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Keep the candidates whose uniform draw falls under λ(t) / bound.

        Families with ``rate_terms`` decide on ``np.exp`` rates, exactly
        within 1e-12 (from numpy's 1-ulp ``exp``) of a threshold or bound,
        and on ``math_exp`` alone if ``np.exp`` fails its self-check.
        """
        if self.rate_terms:
            from . import recheck

            kept = recheck.thin(self, times, draws)
            if kept is not None:
                return kept
        rates = self.rates(times)
        bad = (rates < 0) | (rates > self.max_rate_per_hour * (1 + 1e-9))
        if bad.any():
            first = int(np.argmax(bad))
            raise WorkloadError(
                f"rate_fn({times[first].item()}) = {rates[first].item()} "
                f"outside [0, {self.max_rate_per_hour}]"
            )
        return times[draws < rates / self.max_rate_per_hour]


def math_exp(values: np.ndarray) -> np.ndarray:
    """``math.exp`` of each of ``values``.

    The rate families use it rather than ``np.exp``, whose vectorised
    kernels may differ from the C library's ``exp`` in the last ulp, so
    that a chunk's rates equal the scalar formula bit for bit.  Thinning
    needs it only for the candidates :mod:`repro.workload.recheck` finds
    within its margin of a threshold or a bound.
    """
    return np.fromiter(map(math.exp, values.tolist()), dtype=float, count=len(values))


class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson process (bursty demand).

    A two-state (or n-state) modulating chain switches the instantaneous
    Poisson rate; useful for stress-testing the dynamic protocols with
    correlated request bursts that a plain Poisson process cannot produce.

    Parameters
    ----------
    rates_per_hour:
        Arrival rate in each modulating state.
    mean_sojourn:
        Mean sojourn time (seconds) in each state (exponentially distributed).
    """

    def __init__(self, rates_per_hour: Sequence[float], mean_sojourn: Sequence[float]):
        if len(rates_per_hour) != len(mean_sojourn) or not rates_per_hour:
            raise WorkloadError("rates and sojourn times must be equal, non-empty")
        if any(r < 0 for r in rates_per_hour):
            raise WorkloadError("rates must be >= 0")
        if any(s <= 0 for s in mean_sojourn):
            raise WorkloadError("mean sojourn times must be > 0")
        self.rates_per_hour = [float(r) for r in rates_per_hour]
        self.mean_sojourn = [float(s) for s in mean_sojourn]

    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        self._check_horizon(horizon)
        times: List[float] = []
        state = int(rng.integers(0, len(self.rates_per_hour)))
        t = 0.0
        while t < horizon:
            sojourn = float(rng.exponential(self.mean_sojourn[state]))
            end = min(t + sojourn, horizon)
            lam = self.rates_per_hour[state] / HOUR
            if lam > 0:
                u = t
                while True:
                    u += float(rng.exponential(1.0 / lam))
                    if u >= end:
                        break
                    times.append(u)
            t = end
            state = (state + int(rng.integers(1, len(self.rates_per_hour)))) % len(
                self.rates_per_hour
            ) if len(self.rates_per_hour) > 1 else state
        return np.asarray(times)


class SuperposedArrivals(ArrivalProcess):
    """Superposition of independent arrival processes.

    The components are generated sequentially from the *same* generator (so
    a single seeded stream reproduces the whole composite) and merged into
    one sorted trace.  Superposing independent Poisson-family processes
    yields another valid arrival process whose rate is the sum of the
    component rates — the standard way to build "diurnal baseline plus an
    evening flash crowd" days.
    """

    def __init__(self, processes: Sequence[ArrivalProcess]):
        parts = list(processes)
        if not parts:
            raise WorkloadError("superposition needs at least one process")
        for part in parts:
            if not isinstance(part, ArrivalProcess):
                raise WorkloadError(
                    f"superposition components must be ArrivalProcess, "
                    f"got {type(part).__name__}"
                )
        self.processes = parts

    def generate(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        self._check_horizon(horizon)
        return merge_arrivals(
            *[process.generate(horizon, rng) for process in self.processes]
        )


def merge_arrivals(*streams: np.ndarray) -> np.ndarray:
    """Merge several sorted arrival-time arrays into one sorted array."""
    if not streams:
        return np.empty(0)
    merged = np.concatenate([np.asarray(s, dtype=float) for s in streams])
    merged.sort(kind="mergesort")
    return merged

