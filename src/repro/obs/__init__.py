"""Observability layer: metrics, run manifests, and per-slot traces.

Every layer of the reproduction — the simulation drivers, the protocols,
the experiment runner — can emit structured measurements into one shared
substrate instead of ad-hoc prints:

* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of counters,
  gauges, histograms, and wall-clock timers.  Registries accumulated in
  worker processes merge losslessly into the parent's, so parallel sweeps
  report exactly the serial numbers.
* :mod:`repro.obs.manifest` — a :class:`RunManifest` recording what ran
  (protocols, parameters, seed), under what software (git SHA,
  python/numpy versions), and at what cost (duration, peak RSS),
  serialized to JSON.
* :mod:`repro.obs.trace` — JSONL sinks for per-slot records (slot index,
  scheduled instances, load, active streams).

Everything is opt-in: hot paths take ``Optional`` registries/sinks and
guard each emission, so disabled observability costs one ``is not None``
check per call site and allocates nothing per event.
"""

from .manifest import (
    ManifestRecorder,
    RunManifest,
    current_git_sha,
    peak_rss_bytes,
    source_repo_root,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from .trace import JsonlTraceSink, MemoryTraceSink, Observation, TraceSink

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "ManifestRecorder",
    "MemoryTraceSink",
    "MetricsRegistry",
    "Observation",
    "RunManifest",
    "Timer",
    "TraceSink",
    "current_git_sha",
    "peak_rss_bytes",
    "source_repo_root",
]
