"""Name → protocol factory registry.

The CLI and sweep harness refer to protocols by the names the paper uses;
this registry builds configured instances from an experiment context
(segment count, video duration, expected arrival rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from ..core.adaptive import AdaptiveDHBProtocol, default_slack_ladder
from ..core.dhb import DHBProtocol
from ..errors import ConfigurationError
from ..sim.continuous import ReactiveModel
from ..sim.slotted import SlottedModel
from .batching import BatchingProtocol
from .catching import SelectiveCatchingProtocol
from .dnpb import DynamicPagodaProtocol
from .dsb import DynamicSkyscraperProtocol
from .fb import FastBroadcasting
from .hmsm import HMSMProtocol
from .npb import NewPagodaBroadcasting
from .patching import PatchingProtocol
from .sb import SkyscraperBroadcasting
from .stream_tapping import StreamTappingProtocol
from .ud import UniversalDistributionProtocol

AnyProtocol = Union[SlottedModel, ReactiveModel]


@dataclass(frozen=True)
class ProtocolContext:
    """Everything a factory may need to configure a protocol.

    Attributes
    ----------
    n_segments:
        Segment count for the slotted protocols (99 in Figures 7/8).
    duration:
        Video length ``D`` in seconds.
    rate_per_hour:
        Expected Poisson arrival rate (reactive protocols tune their
        windows/channel counts to it, as their papers prescribe).
    """

    n_segments: int
    duration: float
    rate_per_hour: float

    def __post_init__(self):
        if self.n_segments < 1:
            raise ConfigurationError("n_segments must be >= 1")
        if self.duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if self.rate_per_hour < 0:
            raise ConfigurationError("rate_per_hour must be >= 0")


_FACTORIES: Dict[str, Callable[[ProtocolContext], AnyProtocol]] = {
    "dhb": lambda ctx: DHBProtocol(n_segments=ctx.n_segments),
    "adaptive-dhb": lambda ctx: AdaptiveDHBProtocol(
        n_segments=ctx.n_segments,
        slack_ladder=default_slack_ladder(ctx.n_segments),
    ),
    "ud": lambda ctx: UniversalDistributionProtocol(n_segments=ctx.n_segments),
    "dnpb": lambda ctx: DynamicPagodaProtocol(n_segments=ctx.n_segments),
    "dsb": lambda ctx: DynamicSkyscraperProtocol(n_segments=ctx.n_segments),
    "fb": lambda ctx: FastBroadcasting(n_segments=ctx.n_segments),
    "hmsm": lambda ctx: HMSMProtocol(duration=ctx.duration),
    "npb": lambda ctx: NewPagodaBroadcasting(n_segments=ctx.n_segments),
    "sb": lambda ctx: SkyscraperBroadcasting(n_segments=ctx.n_segments),
    "stream-tapping": lambda ctx: StreamTappingProtocol(
        duration=ctx.duration, expected_rate_per_hour=ctx.rate_per_hour
    ),
    "patching": lambda ctx: PatchingProtocol(
        duration=ctx.duration, expected_rate_per_hour=max(ctx.rate_per_hour, 1e-9)
    ),
    "batching": lambda ctx: BatchingProtocol(duration=ctx.duration),
    "catching": lambda ctx: SelectiveCatchingProtocol(
        duration=ctx.duration, expected_rate_per_hour=max(ctx.rate_per_hour, 1e-9)
    ),
}

#: Protocols driven by the slotted simulator.
SLOTTED_NAMES = frozenset(
    {"dhb", "adaptive-dhb", "ud", "dnpb", "dsb", "fb", "npb", "sb"}
)
#: Protocols driven by the continuous-time simulator.
REACTIVE_NAMES = frozenset(
    {"stream-tapping", "patching", "batching", "catching", "hmsm"}
)


def available_protocols() -> List[str]:
    """Sorted names accepted by :func:`build_protocol`."""
    return sorted(_FACTORIES)


def build_protocol(name: str, context: ProtocolContext) -> AnyProtocol:
    """Instantiate the protocol called ``name`` for ``context``.

    >>> ctx = ProtocolContext(n_segments=9, duration=7200.0, rate_per_hour=10.0)
    >>> build_protocol("npb", ctx).n_segments
    9
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; choose from {available_protocols()}"
        ) from None
    return factory(context)

