"""Workload generation: arrival processes and popularity models.

The paper's evaluation assumes Poisson request arrivals for a single video
(Section 3: "requests for a particular video were distributed according to a
Poisson law").  Its introduction, however, motivates the whole design with
*time-varying* demand — child-oriented fare peaking in daytime, adult fare at
night — so this package also ships a non-homogeneous Poisson process with
diurnal rate profiles, flash-crowd and event-ring surge models, MMPP bursts,
and a Zipf catalog popularity model for multi-video studies.

:class:`WorkloadSpec` (see :mod:`repro.workload.spec`) is the declarative,
digest-keyed form of any of these — the value that sweep configs, runtime
task payloads, scenarios, and the CLI carry where a scalar rate used to be.
"""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    MMPPArrivals,
    NonHomogeneousPoisson,
    PoissonArrivals,
    SuperposedArrivals,
    TraceArrivals,
)
from .diurnal import (
    DiurnalArrivals,
    DiurnalProfile,
    adult_evening_profile,
    child_daytime_profile,
)
from .flash import FlashCrowd
from .popularity import ZipfCatalog
from .spatial import EventRings
from .spec import (
    WORKLOAD_GRAMMAR,
    WorkloadSpec,
    as_workload,
    parse_workload,
)

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "DiurnalArrivals",
    "DiurnalProfile",
    "EventRings",
    "FlashCrowd",
    "MMPPArrivals",
    "NonHomogeneousPoisson",
    "PoissonArrivals",
    "SuperposedArrivals",
    "TraceArrivals",
    "WORKLOAD_GRAMMAR",
    "WorkloadSpec",
    "ZipfCatalog",
    "adult_evening_profile",
    "as_workload",
    "child_daytime_profile",
    "parse_workload",
]
