"""Arrival-trace validation shared by the simulation drivers.

Both drivers take any sorted 1-D sequence of arrival times and reject a
malformed one before anything is admitted: a protocol fed a time earlier
than one it has already seen, or a NaN, would give silently wrong results.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import SimulationError


def sorted_arrivals(arrival_times: Sequence[float]) -> np.ndarray:
    """View ``arrival_times`` as a float64 array, checking it is usable.

    ``np.asarray`` never copies the runtime's (read-only, shared) float64
    traces.  Raises :class:`SimulationError` when the input is not 1-D, is
    unsorted or contains NaN.

    >>> sorted_arrivals([0, 1.5, 1.5, 4]).tolist()
    [0.0, 1.5, 1.5, 4.0]
    >>> sorted_arrivals([0.0, 50.0, 10.0])
    Traceback (most recent call last):
    ...
    repro.errors.SimulationError: arrival times must be sorted and not NaN
    """
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    if arrivals.ndim != 1:
        raise SimulationError(
            f"arrival times must be 1-D, got shape {arrivals.shape}"
        )
    # One vectorised pass over the whole trace; NaN fails every
    # comparison, so it is caught here too for two or more arrivals.
    if arrivals.size > 1:
        if not bool(np.all(arrivals[1:] >= arrivals[:-1])):
            raise SimulationError("arrival times must be sorted and not NaN")
    elif arrivals.size == 1 and math.isnan(arrivals[0]):
        raise SimulationError("arrival times must not be NaN")
    return arrivals
