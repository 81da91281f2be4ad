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
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
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

_DIURNAL_PROFILES = ("child", "adult")
_KINDS = (
    "poisson",
    "deterministic",
    "diurnal",
    "flash",
    "mmpp",
    "ring",
    "trace",
    "superpose",
)


def _bad_spec(text: str, why: str) -> ConfigurationError:
    return ConfigurationError(
        f"invalid workload spec {text!r}: {why}\n\n{WORKLOAD_GRAMMAR}"
    )


def _format_number(value: float) -> str:
    return f"{value:g}"


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
    def poisson(cls, rate_per_hour: float) -> "WorkloadSpec":
        rate = float(rate_per_hour)
        if rate <= 0:
            raise ConfigurationError(f"poisson rate must be > 0, got {rate}")
        return cls("poisson", (("rate_per_hour", rate),))

    @classmethod
    def deterministic(cls, interval: float, offset: float = 0.0) -> "WorkloadSpec":
        DeterministicArrivals(interval, offset)  # validate eagerly
        return cls(
            "deterministic",
            (("interval", float(interval)), ("offset", float(offset))),
        )

    @classmethod
    def diurnal(cls, profile: str, peak_rate_per_hour: float) -> "WorkloadSpec":
        if profile not in _DIURNAL_PROFILES:
            raise ConfigurationError(
                f"unknown diurnal profile {profile!r}; expected one of "
                f"{', '.join(_DIURNAL_PROFILES)}"
            )
        peak = float(peak_rate_per_hour)
        if peak <= 0:
            raise ConfigurationError(f"diurnal peak must be > 0, got {peak}")
        return cls("diurnal", (("profile", profile), ("peak_rate_per_hour", peak)))

    @classmethod
    def flash(
        cls,
        peak_rate_per_hour: float,
        decay_hours: float,
        base_rate_per_hour: float = 0.0,
        start_hours: float = 0.0,
    ) -> "WorkloadSpec":
        FlashCrowd(peak_rate_per_hour, decay_hours, base_rate_per_hour, start_hours)
        return cls(
            "flash",
            (
                ("peak_rate_per_hour", float(peak_rate_per_hour)),
                ("decay_hours", float(decay_hours)),
                ("base_rate_per_hour", float(base_rate_per_hour)),
                ("start_hours", float(start_hours)),
            ),
        )

    @classmethod
    def mmpp(
        cls, rates_per_hour: Sequence[float], mean_sojourn: Sequence[float]
    ) -> "WorkloadSpec":
        MMPPArrivals(rates_per_hour, mean_sojourn)
        return cls(
            "mmpp",
            (
                ("rates_per_hour", tuple(float(r) for r in rates_per_hour)),
                ("mean_sojourn", tuple(float(s) for s in mean_sojourn)),
            ),
        )

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
        EventRings(
            peak_rate_per_hour,
            n_rings,
            ring_delay_hours,
            attenuation,
            decay_hours,
            base_rate_per_hour,
            start_hours,
        )
        return cls(
            "ring",
            (
                ("peak_rate_per_hour", float(peak_rate_per_hour)),
                ("n_rings", int(n_rings)),
                ("ring_delay_hours", float(ring_delay_hours)),
                ("attenuation", float(attenuation)),
                ("decay_hours", float(decay_hours)),
                ("base_rate_per_hour", float(base_rate_per_hour)),
                ("start_hours", float(start_hours)),
            ),
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
        if self.kind == "poisson":
            return PoissonArrivals(self._get("rate_per_hour"))
        if self.kind == "deterministic":
            return DeterministicArrivals(self._get("interval"), self._get("offset"))
        if self.kind == "diurnal":
            return DiurnalArrivals(self._diurnal_profile())
        if self.kind == "flash":
            return FlashCrowd(
                self._get("peak_rate_per_hour"),
                self._get("decay_hours"),
                self._get("base_rate_per_hour"),
                self._get("start_hours"),
            )
        if self.kind == "mmpp":
            return MMPPArrivals(self._get("rates_per_hour"), self._get("mean_sojourn"))
        if self.kind == "ring":
            return EventRings(
                self._get("peak_rate_per_hour"),
                self._get("n_rings"),
                self._get("ring_delay_hours"),
                self._get("attenuation"),
                self._get("decay_hours"),
                self._get("base_rate_per_hour"),
                self._get("start_hours"),
            )
        if self.kind == "trace":
            return TraceArrivals(self._get("times"))
        return SuperposedArrivals([part.process() for part in self._get("parts")])

    def _diurnal_profile(self):
        peak = self._get("peak_rate_per_hour")
        if self._get("profile") == "child":
            return child_daytime_profile(peak)
        return adult_evening_profile(peak)

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
            return self._diurnal_profile().mean_rate_per_hour
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
        if self.kind == "poisson":
            return f"poisson:{_format_number(self._get('rate_per_hour'))}"
        if self.kind == "deterministic":
            text = f"deterministic:interval={_format_number(self._get('interval'))}"
            if self._get("offset"):
                text += f",offset={_format_number(self._get('offset'))}"
            return text
        if self.kind == "diurnal":
            return (
                f"diurnal:{self._get('profile')},"
                f"peak={_format_number(self._get('peak_rate_per_hour'))}"
            )
        if self.kind == "flash":
            text = (
                f"flash:peak={_format_number(self._get('peak_rate_per_hour'))},"
                f"decay={_format_number(self._get('decay_hours'))}"
            )
            if self._get("base_rate_per_hour"):
                text += f",base={_format_number(self._get('base_rate_per_hour'))}"
            if self._get("start_hours"):
                text += f",start={_format_number(self._get('start_hours'))}"
            return text
        if self.kind == "mmpp":
            rates = "|".join(_format_number(r) for r in self._get("rates_per_hour"))
            sojourn = "|".join(_format_number(s) for s in self._get("mean_sojourn"))
            return f"mmpp:rates={rates},sojourn={sojourn}"
        if self.kind == "ring":
            text = (
                f"ring:peak={_format_number(self._get('peak_rate_per_hour'))},"
                f"rings={self._get('n_rings')},"
                f"delay={_format_number(self._get('ring_delay_hours'))},"
                f"atten={_format_number(self._get('attenuation'))},"
                f"decay={_format_number(self._get('decay_hours'))}"
            )
            if self._get("base_rate_per_hour"):
                text += f",base={_format_number(self._get('base_rate_per_hour'))}"
            if self._get("start_hours"):
                text += f",start={_format_number(self._get('start_hours'))}"
            return text
        if self.kind == "trace":
            return f"trace:{len(self._get('times'))}pts"
        return "+".join(part.label() for part in self._get("parts"))

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


def _parse_float(text: str, field: str, source: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _bad_spec(source, f"{field} must be a number, got {text!r}") from None


def _parse_pairs(
    body: str,
    source: str,
    *,
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    for token in body.split(","):
        token = token.strip()
        if not token:
            raise _bad_spec(source, "empty parameter")
        if "=" not in token:
            raise _bad_spec(source, f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        if key not in (*required, *optional):
            raise _bad_spec(
                source,
                f"unknown parameter {key!r} (accepted: "
                f"{', '.join((*required, *optional))})",
            )
        if key in pairs:
            raise _bad_spec(source, f"duplicate parameter {key!r}")
        pairs[key] = value.strip()
    for key in required:
        if key not in pairs:
            raise _bad_spec(source, f"missing required parameter {key!r}")
    return pairs


def _parse_single(text: str) -> WorkloadSpec:
    spec_text = text.strip()
    if not spec_text:
        raise _bad_spec(text, "empty spec")
    if ":" not in spec_text:
        try:
            rate = float(spec_text)
        except ValueError:
            raise _bad_spec(
                spec_text, "expected a number or kind:params"
            ) from None
        if rate <= 0:
            raise _bad_spec(spec_text, f"rate must be > 0, got {rate}")
        return WorkloadSpec.poisson(rate)

    kind, _, body = spec_text.partition(":")
    kind = kind.strip().lower()
    body = body.strip()

    try:
        if kind == "poisson":
            pairs = (
                _parse_pairs(body, spec_text, required=("rate",))
                if "=" in body
                else {"rate": body}
            )
            rate = _parse_float(pairs["rate"], "rate", spec_text)
            if rate <= 0:
                raise _bad_spec(spec_text, f"rate must be > 0, got {rate}")
            return WorkloadSpec.poisson(rate)

        if kind == "deterministic":
            pairs = _parse_pairs(
                body, spec_text, required=("interval",), optional=("offset",)
            )
            return WorkloadSpec.deterministic(
                _parse_float(pairs["interval"], "interval", spec_text),
                _parse_float(pairs.get("offset", "0"), "offset", spec_text),
            )

        if kind == "diurnal":
            profile, _, rest = body.partition(",")
            profile = profile.strip().lower()
            if profile not in _DIURNAL_PROFILES:
                raise _bad_spec(
                    spec_text,
                    f"diurnal profile must be one of {', '.join(_DIURNAL_PROFILES)}; "
                    f"got {profile!r}",
                )
            pairs = _parse_pairs(rest, spec_text, required=("peak",))
            return WorkloadSpec.diurnal(
                profile, _parse_float(pairs["peak"], "peak", spec_text)
            )

        if kind == "flash":
            pairs = _parse_pairs(
                body,
                spec_text,
                required=("peak", "decay"),
                optional=("base", "start"),
            )
            return WorkloadSpec.flash(
                _parse_float(pairs["peak"], "peak", spec_text),
                _parse_float(pairs["decay"], "decay", spec_text),
                _parse_float(pairs.get("base", "0"), "base", spec_text),
                _parse_float(pairs.get("start", "0"), "start", spec_text),
            )

        if kind == "mmpp":
            pairs = _parse_pairs(body, spec_text, required=("rates", "sojourn"))
            rates = [
                _parse_float(item, "rates", spec_text)
                for item in pairs["rates"].split("|")
            ]
            sojourn = [
                _parse_float(item, "sojourn", spec_text)
                for item in pairs["sojourn"].split("|")
            ]
            return WorkloadSpec.mmpp(rates, sojourn)

        if kind == "ring":
            pairs = _parse_pairs(
                body,
                spec_text,
                required=("peak", "rings", "delay", "atten", "decay"),
                optional=("base", "start"),
            )
            try:
                n_rings = int(pairs["rings"])
            except ValueError:
                raise _bad_spec(
                    spec_text, f"rings must be an integer, got {pairs['rings']!r}"
                ) from None
            return WorkloadSpec.ring(
                _parse_float(pairs["peak"], "peak", spec_text),
                n_rings,
                _parse_float(pairs["delay"], "delay", spec_text),
                _parse_float(pairs["atten"], "atten", spec_text),
                _parse_float(pairs["decay"], "decay", spec_text),
                _parse_float(pairs.get("base", "0"), "base", spec_text),
                _parse_float(pairs.get("start", "0"), "start", spec_text),
            )

        if kind == "trace":
            if not body:
                raise _bad_spec(spec_text, "trace needs a file path")
            return _load_trace(body, spec_text)
    except ConfigurationError:
        raise
    except Exception as exc:  # WorkloadError from eager validation, etc.
        raise _bad_spec(spec_text, str(exc)) from exc

    raise _bad_spec(
        spec_text,
        f"unknown workload kind {kind!r}",
    )


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
    if isinstance(value, PoissonArrivals):
        return WorkloadSpec.poisson(value.rate_per_hour)
    if isinstance(value, DeterministicArrivals):
        return WorkloadSpec.deterministic(value.interval, value.offset)
    if isinstance(value, EventRings):  # before FlashCrowd: both are NHPP
        return WorkloadSpec.ring(
            value.peak_rate_per_hour,
            value.n_rings,
            value.ring_delay_hours,
            value.attenuation,
            value.decay_hours,
            value.base_rate_per_hour,
            value.start_hours,
        )
    if isinstance(value, FlashCrowd):
        return WorkloadSpec.flash(
            value.peak_rate_per_hour,
            value.decay_hours,
            value.base_rate_per_hour,
            value.start_hours,
        )
    if isinstance(value, MMPPArrivals):
        return WorkloadSpec.mmpp(value.rates_per_hour, value.mean_sojourn)
    if isinstance(value, TraceArrivals):
        return WorkloadSpec.trace(value.times)
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


def workload_or_none(value: Optional[WorkloadLike]) -> Optional[WorkloadSpec]:
    """Like :func:`as_workload` but passes ``None`` through."""
    return None if value is None else as_workload(value)
