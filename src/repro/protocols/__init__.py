"""Every distribution protocol the paper evaluates against or builds upon.

Fixed (proactive) broadcasting schedules:

* :mod:`repro.protocols.fb` — Fast Broadcasting (Juhn & Tseng).
* :mod:`repro.protocols.npb` — New Pagoda Broadcasting (Pâris).
* :mod:`repro.protocols.sb` — Skyscraper Broadcasting (Hua & Sheu).

Dynamic slotted protocols:

* :mod:`repro.protocols.ud` — the Universal Distribution protocol
  (dynamic Fast Broadcasting).
* :mod:`repro.protocols.dnpb` — dynamic NPB, the design Section 3 rejects.

Reactive (continuous-time) protocols:

* :mod:`repro.protocols.stream_tapping` — Carter & Long stream tapping with
  unlimited extra tapping.
* :mod:`repro.protocols.patching` — greedy/grace patching (Hua, Cai & Sheu).
* :mod:`repro.protocols.batching` — request batching (Dan et al.).
* :mod:`repro.protocols.catching` — selective catching (Gao et al.).
* :mod:`repro.protocols.hmsm` — hierarchical multicast stream merging
  (Eager & Vernon).
* :mod:`repro.protocols.dsb` — dynamic skyscraper broadcasting
  (Eager & Vernon).

:mod:`repro.protocols.registry` maps protocol names to factories for the CLI
and the sweep harness.
"""

from .base import StaticBroadcastProtocol, StaticMap, Train, verify_static_map
from .batching import BatchingProtocol
from .catching import SelectiveCatchingProtocol
from .dnpb import DynamicPagodaProtocol
from .dsb import DynamicSkyscraperProtocol
from .fb import FastBroadcasting, fb_segments_for_streams, fb_streams_for_segments
from .hmsm import HMSMProtocol
from .npb import NewPagodaBroadcasting, pagoda_capacity, pagoda_streams_for_segments
from .patching import PatchingProtocol, optimal_patching_window
from .sb import SkyscraperBroadcasting, skyscraper_widths
from .stream_tapping import StreamTappingProtocol
from .ud import UniversalDistributionProtocol

__all__ = [
    "BatchingProtocol",
    "DynamicPagodaProtocol",
    "DynamicSkyscraperProtocol",
    "FastBroadcasting",
    "HMSMProtocol",
    "NewPagodaBroadcasting",
    "PatchingProtocol",
    "SelectiveCatchingProtocol",
    "SkyscraperBroadcasting",
    "StaticBroadcastProtocol",
    "StaticMap",
    "StreamTappingProtocol",
    "Train",
    "UniversalDistributionProtocol",
    "fb_segments_for_streams",
    "fb_streams_for_segments",
    "optimal_patching_window",
    "pagoda_capacity",
    "pagoda_streams_for_segments",
    "skyscraper_widths",
    "verify_static_map",
]
