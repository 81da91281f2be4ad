"""Declarative, digest-keyed workload specifications.

A :class:`WorkloadSpec` names an arrival process *by value*: a frozen,
hashable, picklable description that every layer of the stack (sweep
configs, runtime task payloads, cluster scenarios, the load generator,
the CLI) can carry where a scalar ``rate_per_hour`` used to be hardwired.
The spec — not a live :class:`~repro.workload.arrivals.ArrivalProcess`
object — is what travels across process and socket boundaries, and its
canonical SHA-256 :meth:`~WorkloadSpec.digest` is what keys the arrival
trace cache and checkpoint journal: the same spec yields the same digest
in every interpreter, so cache hits and checkpoint resumes survive
re-parsing, pickling, and multi-host dispatch.

The human-facing form is a compact spec string (``--workload`` on the
CLI), parsed by :func:`parse_workload`::

    300                               # constant Poisson, 300 req/h
    diurnal:child,peak=300            # 24h day/night profile
    flash:peak=900,decay=1.5,start=20 # premiere surge at hour 20
    mmpp:rates=30|300,sojourn=1800|600
    ring:peak=600,rings=3,delay=0.5,atten=0.5,decay=1
    trace:arrivals.txt                # recorded arrival seconds
    diurnal:child,peak=300+flash:peak=900,decay=1.5,start=20   # superpose

Malformed strings raise :class:`~repro.errors.ConfigurationError` whose
message embeds the full grammar, so a CLI typo produces a usage hint, not
a traceback.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Sequence, Tuple, Union

from ..errors import ConfigurationError, ReproError
from ..units import HOUR
from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
    SuperposedArrivals,
    TraceArrivals,
)
from .diurnal import DiurnalArrivals, adult_evening_profile, child_daytime_profile
from .flash import FlashCrowd
from .spatial import EventRings

#: Reference horizon used to summarise transient workloads (flash crowds,
#: event rings) with a single mean rate — one broadcast day.
REFERENCE_DAY_HOURS = 24.0

#: Version tag mixed into every digest; bump only on a deliberate,
#: documented change to the canonical encoding (it invalidates caches).
_DIGEST_VERSION = "repro-workload:1"

WORKLOAD_GRAMMAR = """\
workload spec grammar (superpose parts with '+'):
  RATE                                   constant Poisson at RATE req/hour
  poisson:RATE                           same, explicit
  deterministic:interval=SEC[,offset=SEC]
                                         evenly spaced arrivals
  diurnal:PROFILE,peak=RATE              24h profile; PROFILE: child | adult
  flash:peak=RATE,decay=H[,base=RATE][,start=H]
                                         premiere surge decaying over H hours
  mmpp:rates=R|R|..,sojourn=S|S|..       Markov-modulated Poisson
                                         (rates req/hour, sojourns seconds)
  ring:peak=RATE,rings=N,delay=H,atten=F,decay=H[,base=RATE][,start=H]
                                         spatio-temporal event rings
                                         (fire-event model; atten in (0,1])
  trace:PATH                             replay arrival seconds, one per line
example: 'diurnal:child,peak=300+flash:peak=900,decay=1.5,start=20'"""

_DIURNAL_PROFILES = {"child": child_daytime_profile, "adult": adult_evening_profile}


def _diurnal(profile: str, peak_rate_per_hour: float) -> DiurnalArrivals:
    """A diurnal process from a named profile.

    Built by name, so :func:`as_workload` cannot invert it: a
    :class:`DiurnalArrivals` keeps its hourly rates, not the profile name.
    """
    if profile not in _DIURNAL_PROFILES:
        raise ConfigurationError(
            f"unknown diurnal profile {profile!r}; expected one of "
            f"{', '.join(_DIURNAL_PROFILES)}"
        )
    return DiurnalArrivals(_DIURNAL_PROFILES[profile](peak_rate_per_hour))


def _positive_rate(value: Any) -> float:
    """A Poisson rate; unlike :class:`PoissonArrivals`, a spec rejects 0,
    which has no mean rate to size a horizon by."""
    rate = float(value)
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    return rate


def _floats(values: Sequence[Any]) -> Tuple[float, ...]:
    return tuple(float(value) for value in values)


class _Param(NamedTuple):
    """One parameter of a workload kind.

    ``name`` is the digest name, the classmethod keyword and the process
    attribute :func:`as_workload` reads; ``key`` is the spec-string key,
    where an upper-case key (``RATE``, ``PROFILE``) is written bare, as the
    kind's leading value.  ``type`` coerces a value (a ``|``-separated
    string is split for :func:`_floats`); ``default`` is ``None`` for a
    required parameter, and a label omits a value equal to its default.
    """

    name: str
    key: str
    type: Callable[[Any], Any]
    default: Any = None


#: Every parameterised kind: ``kind -> (process, params)``, the params in
#: canonical ``WorkloadSpec.params`` order (which the digest depends on).
#: ``process`` builds the arrival process from the params in that order;
#: :func:`as_workload` inverts the rows whose ``process`` is a class.
_KIND_TABLE: Dict[str, Tuple[Callable[..., ArrivalProcess], Tuple[_Param, ...]]] = {
    "poisson": (PoissonArrivals, (_Param("rate_per_hour", "RATE", _positive_rate),)),
    "deterministic": (
        DeterministicArrivals,
        (_Param("interval", "interval", float), _Param("offset", "offset", float, 0.0)),
    ),
    "diurnal": (
        _diurnal,
        (
            _Param("profile", "PROFILE", str.lower),
            _Param("peak_rate_per_hour", "peak", float),
        ),
    ),
    "flash": (
        FlashCrowd,
        (
            _Param("peak_rate_per_hour", "peak", float),
            _Param("decay_hours", "decay", float),
            _Param("base_rate_per_hour", "base", float, 0.0),
            _Param("start_hours", "start", float, 0.0),
        ),
    ),
    "mmpp": (
        MMPPArrivals,
        (
            _Param("rates_per_hour", "rates", _floats),
            _Param("mean_sojourn", "sojourn", _floats),
        ),
    ),
    "ring": (
        EventRings,
        (
            _Param("peak_rate_per_hour", "peak", float),
            _Param("n_rings", "rings", int),
            _Param("ring_delay_hours", "delay", float),
            _Param("attenuation", "atten", float),
            _Param("decay_hours", "decay", float),
            _Param("base_rate_per_hour", "base", float, 0.0),
            _Param("start_hours", "start", float, 0.0),
        ),
    ),
}

_KINDS = (*_KIND_TABLE, "trace", "superpose")


def _bad_spec(text: str, why: str) -> ConfigurationError:
    return ConfigurationError(
        f"invalid workload spec {text!r}: {why}\n\n{WORKLOAD_GRAMMAR}"
    )


def _format(value: Any) -> str:
    if isinstance(value, tuple):
        return "|".join(_format(item) for item in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _canonical(value: Any) -> str:
    """Deterministic, type-tagged encoding used for :meth:`WorkloadSpec.digest`.

    Standalone on purpose: :mod:`repro.runtime.seeds` imports this module, so
    reusing :func:`repro.runtime.checkpoint.spec_digest` here would create an
    import cycle.  The encoding distinguishes types (``1`` vs ``1.0`` vs
    ``"1"``) so distinct specs can never collide structurally.
    """
    if isinstance(value, WorkloadSpec):
        return f"w({json.dumps(value.kind)},{_canonical(value.params)})"
    if isinstance(value, bool):
        return f"b:{int(value)}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{json.dumps(value)}"
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    raise ConfigurationError(
        f"workload spec parameters must be numbers, strings, or tuples; "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """A frozen, digestable description of an arrival process.

    ``params`` is a tuple of ``(name, value)`` pairs in the canonical order
    produced by the classmethod constructors; values are plain numbers,
    strings, tuples, or nested specs, so instances hash, pickle, and digest
    stably across processes.  Use the classmethods (or
    :func:`parse_workload` / :func:`as_workload`) rather than the raw
    constructor.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{', '.join(_KINDS)}"
            )
        if not isinstance(self.params, tuple) or any(
            not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str))
            for pair in self.params
        ):
            raise ConfigurationError(
                "WorkloadSpec.params must be a tuple of (name, value) pairs"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _of(cls, kind: str, **values: Any) -> "WorkloadSpec":
        """The ``kind`` spec from :data:`_KIND_TABLE`: defaults filled, values
        coerced, and validated eagerly by building the process."""
        spec = cls(
            kind,
            tuple(
                (param.name, param.type(values.get(param.name, param.default)))
                for param in _KIND_TABLE[kind][1]
            ),
        )
        spec.process()
        return spec

    @classmethod
    def poisson(cls, rate_per_hour: float) -> "WorkloadSpec":
        return cls._of("poisson", rate_per_hour=rate_per_hour)

    @classmethod
    def deterministic(cls, interval: float, offset: float = 0.0) -> "WorkloadSpec":
        return cls._of("deterministic", interval=interval, offset=offset)

    @classmethod
    def diurnal(cls, profile: str, peak_rate_per_hour: float) -> "WorkloadSpec":
        return cls._of("diurnal", profile=profile, peak_rate_per_hour=peak_rate_per_hour)

    @classmethod
    def flash(
        cls,
        peak_rate_per_hour: float,
        decay_hours: float,
        base_rate_per_hour: float = 0.0,
        start_hours: float = 0.0,
    ) -> "WorkloadSpec":
        return cls._of(
            "flash",
            peak_rate_per_hour=peak_rate_per_hour,
            decay_hours=decay_hours,
            base_rate_per_hour=base_rate_per_hour,
            start_hours=start_hours,
        )

    @classmethod
    def mmpp(
        cls, rates_per_hour: Sequence[float], mean_sojourn: Sequence[float]
    ) -> "WorkloadSpec":
        return cls._of("mmpp", rates_per_hour=rates_per_hour, mean_sojourn=mean_sojourn)

    @classmethod
    def ring(
        cls,
        peak_rate_per_hour: float,
        n_rings: int,
        ring_delay_hours: float,
        attenuation: float,
        decay_hours: float,
        base_rate_per_hour: float = 0.0,
        start_hours: float = 0.0,
    ) -> "WorkloadSpec":
        return cls._of(
            "ring",
            peak_rate_per_hour=peak_rate_per_hour,
            n_rings=n_rings,
            ring_delay_hours=ring_delay_hours,
            attenuation=attenuation,
            decay_hours=decay_hours,
            base_rate_per_hour=base_rate_per_hour,
            start_hours=start_hours,
        )

    @classmethod
    def trace(cls, times: Sequence[float]) -> "WorkloadSpec":
        """A replayed trace, stored *by value* so the spec (and its digest)
        is self-contained — workers never need the original file."""
        process = TraceArrivals(times)
        if not len(process.times):
            raise ConfigurationError("trace workload must contain at least one arrival")
        return cls("trace", (("times", tuple(float(t) for t in process.times)),))

    @classmethod
    def superpose(cls, parts: Sequence["WorkloadSpec"]) -> "WorkloadSpec":
        flattened = []
        for part in parts:
            if not isinstance(part, WorkloadSpec):
                raise ConfigurationError(
                    f"superpose parts must be WorkloadSpec, got {type(part).__name__}"
                )
            if part.kind == "superpose":
                flattened.extend(part._get("parts"))
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise ConfigurationError("superpose needs at least two parts")
        return cls("superpose", (("parts", tuple(flattened)),))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def _get(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise ConfigurationError(f"workload spec {self.kind!r} has no param {name!r}")

    def process(self) -> ArrivalProcess:
        """Materialise the described :class:`ArrivalProcess`."""
        if self.kind == "trace":
            return TraceArrivals(self._get("times"))
        if self.kind == "superpose":
            return SuperposedArrivals([part.process() for part in self._get("parts")])
        return _KIND_TABLE[self.kind][0](*(value for _, value in self.params))

    @property
    def mean_rate_per_hour(self) -> float:
        """Nominal mean rate, used for horizon sizing and series labelling.

        Transient kinds (flash, ring) are averaged over
        :data:`REFERENCE_DAY_HOURS`; traces over their own span.
        """
        if self.kind == "poisson":
            return self._get("rate_per_hour")
        if self.kind == "deterministic":
            return HOUR / self._get("interval")
        if self.kind == "diurnal":
            return self.process().profile.mean_rate_per_hour
        if self.kind in ("flash", "ring"):
            horizon = REFERENCE_DAY_HOURS * HOUR
            return self.process().expected_requests(horizon) / REFERENCE_DAY_HOURS
        if self.kind == "mmpp":
            rates = self._get("rates_per_hour")
            sojourn = self._get("mean_sojourn")
            return sum(r * s for r, s in zip(rates, sojourn)) / sum(sojourn)
        if self.kind == "trace":
            times = self._get("times")
            span_hours = times[-1] / HOUR if times[-1] > 0 else 0.0
            return len(times) / span_hours if span_hours > 0 else float(len(times))
        return sum(part.mean_rate_per_hour for part in self._get("parts"))

    def label(self) -> str:
        """Compact human-readable form (round-trippable except ``trace``)."""
        if self.kind == "trace":
            return f"trace:{len(self._get('times'))}pts"
        if self.kind == "superpose":
            return "+".join(part.label() for part in self._get("parts"))
        fields = []
        for param, (_, value) in zip(_KIND_TABLE[self.kind][1], self.params):
            if value != param.default:
                bare = param.key.isupper()
                fields.append(_format(value) if bare else f"{param.key}={_format(value)}")
        return f"{self.kind}:{','.join(fields)}"

    def digest(self) -> str:
        """Canonical SHA-256 digest of the spec (stable across processes)."""
        payload = f"{_DIGEST_VERSION}:{_canonical(self)}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (tuples become lists; nested specs recurse)."""

        def _plain(value: Any) -> Any:
            if isinstance(value, WorkloadSpec):
                return value.to_dict()
            if isinstance(value, tuple):
                return [_plain(item) for item in value]
            return value

        return {
            "kind": self.kind,
            "params": {name: _plain(value) for name, value in self.params},
        }


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def _parse_value(param: _Param, text: str, source: str) -> Any:
    try:
        return param.type(text.split("|") if param.type is _floats else text)
    except ValueError:
        expected = "an integer" if param.type is int else "a number"
        raise _bad_spec(
            source, f"{param.key.lower()} must be {expected}, got {text!r}"
        ) from None
    except ReproError as exc:
        raise _bad_spec(source, str(exc)) from None


def _parse_single(text: str) -> WorkloadSpec:
    spec_text = text.strip()
    if not spec_text:
        raise _bad_spec(text, "empty spec")
    if ":" in spec_text:
        kind, _, body = spec_text.partition(":")
        kind = kind.strip().lower()
    else:
        try:
            float(spec_text)
        except ValueError:
            raise _bad_spec(spec_text, "expected a number or kind:params") from None
        kind, body = "poisson", spec_text
    body = body.strip()
    if kind == "trace":
        if not body:
            raise _bad_spec(spec_text, "trace needs a file path")
        return _load_trace(body, spec_text)
    if kind not in _KIND_TABLE:
        raise _bad_spec(spec_text, f"unknown workload kind {kind!r}")

    params = _KIND_TABLE[kind][1]
    bare = [param for param in params if param.key.isupper()]
    keyed = {param.key: param for param in params if not param.key.isupper()}
    tokens = [token.strip() for token in body.split(",")]
    values = {
        param.name: _parse_value(param, token, spec_text)
        for param, token in zip(bare, tokens)
    }
    for token in tokens[len(bare):]:
        if not token:
            raise _bad_spec(spec_text, "empty parameter")
        key, equals, value = token.partition("=")
        if not equals:
            raise _bad_spec(spec_text, f"expected key=value, got {token!r}")
        param = keyed.get(key.strip())
        if param is None:
            raise _bad_spec(
                spec_text,
                f"unknown parameter {key.strip()!r} (accepted: {', '.join(keyed)})",
            )
        if param.name in values:
            raise _bad_spec(spec_text, f"duplicate parameter {param.key!r}")
        values[param.name] = _parse_value(param, value.strip(), spec_text)
    for param in params:
        if param.default is None and param.name not in values:
            raise _bad_spec(spec_text, f"missing required parameter {param.key!r}")
    try:
        return WorkloadSpec._of(kind, **values)
    except ReproError as exc:  # the process's own validation
        raise _bad_spec(spec_text, str(exc)) from exc


def _load_trace(path: str, source: str) -> WorkloadSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _bad_spec(source, f"cannot read trace file: {exc}") from exc
    times = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            times.append(float(stripped))
        except ValueError:
            raise _bad_spec(
                source,
                f"trace file {path}:{lineno}: expected one arrival time "
                f"(seconds) per line, got {stripped!r}",
            ) from None
    if not times:
        raise _bad_spec(source, f"trace file {path} contains no arrival times")
    return WorkloadSpec.trace(times)


def parse_workload(text: str) -> WorkloadSpec:
    """Parse a workload spec string (see :data:`WORKLOAD_GRAMMAR`).

    >>> parse_workload("300").kind
    'poisson'
    >>> parse_workload("diurnal:child,peak=300+flash:peak=900,decay=1.5").kind
    'superpose'
    """
    if not isinstance(text, str):
        raise ConfigurationError(
            f"workload spec must be a string, got {type(text).__name__}"
        )
    parts = [part for part in text.split("+")]
    if any(not part.strip() for part in parts):
        raise _bad_spec(text, "empty superposition component")
    specs = [_parse_single(part) for part in parts]
    if len(specs) == 1:
        return specs[0]
    return WorkloadSpec.superpose(specs)


WorkloadLike = Union[float, int, str, WorkloadSpec, ArrivalProcess]


def as_workload(value: WorkloadLike) -> WorkloadSpec:
    """Coerce a rate, spec string, spec, or known process into a spec.

    Arbitrary :class:`ArrivalProcess` subclasses cannot be digested (their
    behaviour is opaque), so only the library's named process types are
    accepted; anything else should be wrapped in a :class:`WorkloadSpec`
    by the caller.
    """
    if isinstance(value, WorkloadSpec):
        return value
    if isinstance(value, bool):
        raise ConfigurationError("workload cannot be a bool")
    if isinstance(value, (int, float)):
        return WorkloadSpec.poisson(float(value))
    if isinstance(value, str):
        return parse_workload(value)
    if isinstance(value, TraceArrivals):
        return WorkloadSpec.trace(value.times)
    for kind, (process, params) in _KIND_TABLE.items():
        if isinstance(process, type) and isinstance(value, process):
            return WorkloadSpec._of(
                kind, **{param.name: getattr(value, param.name) for param in params}
            )
    if isinstance(value, ArrivalProcess):
        raise ConfigurationError(
            f"cannot derive a canonical workload digest for "
            f"{type(value).__name__}; pass a WorkloadSpec (or a spec string) "
            f"instead so caches and checkpoints stay keyed by value"
        )
    raise ConfigurationError(
        f"cannot interpret {type(value).__name__} as a workload; expected a "
        f"rate, a spec string, a WorkloadSpec, or a named ArrivalProcess"
    )

