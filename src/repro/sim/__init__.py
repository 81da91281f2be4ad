"""Simulation substrate.

This subpackage provides the machinery every experiment in the reproduction
runs on:

* :mod:`repro.sim.rng` — named, independently seeded random streams so that
  e.g. arrival noise and video noise never share a generator.
* :mod:`repro.sim.slotted` — a slot-synchronous driver used by the slotted
  broadcasting protocols (DHB, UD, FB, NPB, ...).
* :mod:`repro.sim.continuous` — a continuous-time driver for the reactive
  protocols (stream tapping, patching, batching).
* :mod:`repro.sim.stats` / :mod:`repro.sim.recorder` — online statistics
  (means, maxima, time-weighted averages, batch-means confidence intervals)
  and per-slot / busy-interval recorders.
* :mod:`repro.sim.sketches` — a fixed-size binned quantile sketch for the
  slotted hot path, so tail statistics stream in bounded memory at 10M+
  request horizons.
"""

from .continuous import BusyInterval, ContinuousSimulation, ReactiveModel, ReactiveResult
from .recorder import SlotLoadRecorder, TimeWeightedRecorder
from .rng import RandomStreams
from .sketches import BinnedQuantileSketch
from .slotted import SlottedModel, SlottedResult, SlottedSimulation
from .stats import OnlineStats, batch_means_ci

__all__ = [
    "BinnedQuantileSketch",
    "BusyInterval",
    "ContinuousSimulation",
    "OnlineStats",
    "RandomStreams",
    "ReactiveModel",
    "ReactiveResult",
    "SlotLoadRecorder",
    "SlottedModel",
    "SlottedResult",
    "SlottedSimulation",
    "TimeWeightedRecorder",
    "batch_means_ci",
]
