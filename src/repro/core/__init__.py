"""The paper's primary contribution: Dynamic Heuristic Broadcasting (DHB).

Modules
-------
* :mod:`repro.core.schedule` — the slotted transmission schedule (per-slot
  segment instances, bandwidth loads, and a per-segment future-instance
  index in one of two modes: a latest-slot array while windows never
  shrink, sorted per-segment lists when they can).
* :mod:`repro.core.heuristic` — the slot-selection heuristic of the paper's
  Figure 6 (least-loaded slot in the window, ties to the latest slot) and the
  ablation alternatives.
* :mod:`repro.core.periods` — per-segment maximum transmission periods
  ``T[j]`` (uniform ``T[j] = j`` for CBR; custom vectors for VBR).
* :mod:`repro.core.client` — client reception plans and on-time verification.
* :mod:`repro.core.dhb` — the protocol itself: Figure 6 written once, as
  the admission kernel every variant below runs over its own windows.
* :mod:`repro.core.adaptive` — DHB with an epoch-retuned slack dial for
  nonstationary workloads (EWMA rate estimator + slack ladder).
* :mod:`repro.core.interactive` — extension: pause/resume (VCR) requests,
  i.e. mid-video admissions with shifted deadline windows.
* :mod:`repro.core.variants` — the DHB-a/b/c/d configurations of Section 4.
* :mod:`repro.core.bandwidth_limited` — extension: DHB with a cap on the
  number of streams a client may receive simultaneously (the paper's
  future-work item).
"""

from .adaptive import (
    AdaptiveDHBProtocol,
    RetuneEvent,
    SlotRateEstimator,
    default_slack_ladder,
)
from .bandwidth_limited import BandwidthLimitedDHB
from .buffer import BufferProfile, buffer_profile, worst_case_buffer
from .client import ClientPlan
from .dhb import DHBProtocol
from .interactive import InteractiveDHB
from .heuristic import (
    SlotChooser,
    always_latest_chooser,
    earliest_min_load_chooser,
    latest_min_load_chooser,
    make_random_chooser,
    make_slack_chooser,
    random_chooser,
)
from .periods import PeriodVector
from .schedule import SlotSchedule
from .variants import DHBVariant, dhb_a, dhb_b, dhb_c, dhb_d, make_all_variants

__all__ = [
    "AdaptiveDHBProtocol",
    "BandwidthLimitedDHB",
    "BufferProfile",
    "ClientPlan",
    "DHBProtocol",
    "DHBVariant",
    "InteractiveDHB",
    "PeriodVector",
    "RetuneEvent",
    "SlotChooser",
    "SlotRateEstimator",
    "SlotSchedule",
    "always_latest_chooser",
    "buffer_profile",
    "default_slack_ladder",
    "dhb_a",
    "dhb_b",
    "dhb_c",
    "dhb_d",
    "earliest_min_load_chooser",
    "latest_min_load_chooser",
    "make_all_variants",
    "make_random_chooser",
    "make_slack_chooser",
    "random_chooser",
    "worst_case_buffer",
]
