"""Deterministic seed derivation: every stream a run uses, named once.

Every random quantity in the system is derived from ``(experiment seed,
stream name)`` through :class:`~repro.sim.rng.RandomStreams`.  This module
is the single registry of those names, so the sweep runner, the cluster
scenarios, and any future entry point derive *identical* streams for
identical specs — the property the bit-for-bit serial/parallel equivalence
rests on.

The arrival-trace helper memoises through the bounded runtime cache
(:mod:`repro.runtime.cache`).  Two key families coexist:

* A scalar rate (the :class:`~repro.workload.arrivals.PoissonArrivals`
  special case) keeps the legacy ``(seed, rate, horizon)`` key and the
  ``arrivals@{rate:g}`` stream name *bit-for-bit* — pre-existing sweeps,
  golden files, and checkpoints are untouched by the workload refactor.
* Any other workload is keyed by the canonical
  :meth:`~repro.workload.spec.WorkloadSpec.digest`, with a stream name
  derived from the same digest — so identical specs share one cache entry
  (and one trace) regardless of which layer, process, or host asks.

Entries are marked read-only so sharing one array across protocols can
never leak state between them.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..sim.rng import RandomStreams
from ..workload.arrivals import ArrivalProcess, PoissonArrivals
from ..workload.spec import WorkloadSpec, as_workload
from .cache import ARRIVAL_CACHE

#: Stream name for the figure sweeps' Poisson arrivals at one rate.
ARRIVALS_STREAM = "arrivals@{rate:g}"

#: Stream name for non-Poisson workloads, keyed by canonical spec digest.
WORKLOAD_STREAM = "arrivals@wl:{digest12}"

#: Stream names of the cluster scenario workload.
CLUSTER_ARRIVALS_STREAM = "cluster-arrivals"
CLUSTER_TITLES_STREAM = "cluster-titles"

#: What :func:`arrival_trace` accepts where a float rate used to be.
WorkloadLike = Union[float, int, str, WorkloadSpec, ArrivalProcess]


def derive_stream(seed: int, name: str) -> np.random.Generator:
    """The independent generator for ``name`` under ``seed``."""
    return RandomStreams(seed).get(name)


def arrivals_stream(seed: int, rate_per_hour: float) -> np.random.Generator:
    """The arrival-trace generator the figure sweeps use at one rate."""
    return derive_stream(seed, ARRIVALS_STREAM.format(rate=rate_per_hour))


def workload_stream(seed: int, spec: WorkloadSpec) -> np.random.Generator:
    """The arrival-trace generator for a digest-keyed workload spec."""
    name = WORKLOAD_STREAM.format(digest12=spec.digest()[:12])
    return derive_stream(seed, name)


def arrival_trace(
    seed: int, workload: WorkloadLike, horizon_hours: float
) -> np.ndarray:
    """The seeded, memoised arrival trace every protocol shares.

    ``workload`` may be a scalar rate (req/hour), a spec string, a
    :class:`~repro.workload.spec.WorkloadSpec`, or a named
    :class:`~repro.workload.arrivals.ArrivalProcess`.  Deterministic in
    ``(seed, canonical workload, horizon_hours)`` and cached on exactly
    that key in the bounded shared cache; the returned array is read-only.

    Scalar rates — and specs that reduce to plain Poisson — use the
    legacy ``(seed, rate, horizon)`` key and stream, so the refactor is
    invisible to existing sweeps: ``arrival_trace(s, 40.0, h)`` and
    ``arrival_trace(s, WorkloadSpec.poisson(40.0), h)`` return the same
    cached array, bit for bit.
    """
    if isinstance(workload, bool):
        raise TypeError("workload cannot be a bool")
    if isinstance(workload, (int, float)):
        return _poisson_trace(seed, float(workload), horizon_hours)

    spec = as_workload(workload)
    if spec.kind == "poisson":
        return _poisson_trace(seed, spec.mean_rate_per_hour, horizon_hours)

    digest = spec.digest()
    key = (int(seed), "wl:" + digest, float(horizon_hours))

    def generate() -> np.ndarray:
        rng = workload_stream(seed, spec)
        trace = spec.process().generate(horizon_hours * 3600.0, rng)
        trace.setflags(write=False)
        return trace

    return ARRIVAL_CACHE.get_or_create(key, generate)


def _poisson_trace(seed: int, rate_per_hour: float, horizon_hours: float) -> np.ndarray:
    key = (int(seed), float(rate_per_hour), float(horizon_hours))

    def generate() -> np.ndarray:
        rng = arrivals_stream(seed, rate_per_hour)
        trace = PoissonArrivals(rate_per_hour).generate(
            horizon_hours * 3600.0, rng
        )
        trace.setflags(write=False)
        return trace

    return ARRIVAL_CACHE.get_or_create(key, generate)
