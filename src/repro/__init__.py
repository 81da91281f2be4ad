"""repro — a reproduction of *A Dynamic Heuristic Broadcasting Protocol for
Video-on-Demand* (Carter, Pâris, Mohan & Long, ICDCS 2001).

The package implements the paper's Dynamic Heuristic Broadcasting (DHB)
protocol, every protocol it is evaluated against (FB, NPB, SB, UD, dynamic
NPB, stream tapping, patching, batching, selective catching), the compressed-
video machinery of its Section 4 (VBR traces, work-ahead smoothing, the
DHB-a/b/c/d configurations), and the simulation + experiment harness that
regenerates every figure.

Quickstart
----------
>>> from repro import DHBProtocol, PoissonArrivals, SlottedSimulation, RandomStreams
>>> protocol = DHBProtocol(n_segments=99)
>>> arrivals = PoissonArrivals(rate_per_hour=100.0)
>>> d = 7200.0 / 99
>>> sim = SlottedSimulation(protocol, slot_duration=d,
...                         horizon_slots=2000, warmup_slots=200)
>>> times = arrivals.generate(2000 * d, RandomStreams(1).get("arrivals"))
>>> result = sim.run(times)
>>> 0 < result.mean_streams < 6
True
"""

from .core import (
    BandwidthLimitedDHB,
    ClientPlan,
    DHBProtocol,
    DHBVariant,
    PeriodVector,
    dhb_a,
    dhb_b,
    dhb_c,
    dhb_d,
    make_all_variants,
)
from .errors import (
    ConfigurationError,
    DeadlineMissedError,
    ReproError,
    SchedulingError,
    SimulationError,
    SmoothingError,
    VideoModelError,
    WorkloadError,
)
from .protocols import (
    BatchingProtocol,
    DynamicPagodaProtocol,
    DynamicSkyscraperProtocol,
    FastBroadcasting,
    HMSMProtocol,
    NewPagodaBroadcasting,
    PatchingProtocol,
    SelectiveCatchingProtocol,
    SkyscraperBroadcasting,
    StreamTappingProtocol,
    UniversalDistributionProtocol,
)
from .server import ChannelPool, UnicastVODServer
from .sim import (
    ContinuousSimulation,
    RandomStreams,
    SlottedResult,
    SlottedSimulation,
)
from .video import CBRVideo, VBRVideo, matrix_like_video, segment_video
from .workload import DeterministicArrivals, PoissonArrivals

__version__ = "1.0.0"

__all__ = [
    "BandwidthLimitedDHB",
    "BatchingProtocol",
    "CBRVideo",
    "ChannelPool",
    "ClientPlan",
    "ConfigurationError",
    "ContinuousSimulation",
    "DHBProtocol",
    "DHBVariant",
    "DeadlineMissedError",
    "DeterministicArrivals",
    "DynamicPagodaProtocol",
    "DynamicSkyscraperProtocol",
    "FastBroadcasting",
    "HMSMProtocol",
    "NewPagodaBroadcasting",
    "PatchingProtocol",
    "PeriodVector",
    "PoissonArrivals",
    "RandomStreams",
    "ReproError",
    "SchedulingError",
    "SelectiveCatchingProtocol",
    "SimulationError",
    "SkyscraperBroadcasting",
    "SlottedResult",
    "SlottedSimulation",
    "SmoothingError",
    "StreamTappingProtocol",
    "UnicastVODServer",
    "UniversalDistributionProtocol",
    "VBRVideo",
    "VideoModelError",
    "WorkloadError",
    "dhb_a",
    "dhb_b",
    "dhb_c",
    "dhb_d",
    "make_all_variants",
    "matrix_like_video",
    "segment_video",
    "__version__",
]
