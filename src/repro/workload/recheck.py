"""Thinning decisions from ``np.exp`` rates, settled by an exact recheck.

:meth:`repro.workload.arrivals.NonHomogeneousPoisson._thin` keeps a
candidate iff its uniform ``u < rate / max_rate_per_hour``.  The flash and
ring families compute their rates with :func:`~.arrivals.math_exp`, one
``math.exp`` per element, so that the rates equal the scalar formula bit
for bit.  Here the same formula is evaluated with ``np.exp`` (the family's
``_np_exp_rates``), about twenty times faster, and the exact ``rates`` are
computed only for the few candidates whose decision the difference could
change.

The margin.  numpy documents its float64 ``exp`` to within 1 ulp (its
validation set, ``umath-validation-set-exp.csv``, is checked to that
bound), and the C library's ``exp`` behind ``math.exp`` is within 1 ulp
too.  So the two differ by less than 2 ulp, at most ``4u`` relative with
``u = 2**-53``.  A family's rate sums ``k`` non-negative terms
``a * exp(x)`` left to right, with ``x`` computed alike on both paths.
Each product rounds once, so two terms differ by at most ``6u`` of the
term; each of the ``k - 1`` additions rounds both sums once more, by at
most ``u`` of the rate each; and ``rate / max`` rounds once more on each
side.  To first order, then, the two thresholds differ by at most
``(2k + 6) u`` relative: ``14u`` (1.6e-15) for a three-ring day with its
base.  :data:`RATE_MARGIN` is 1e-12, about 9,000 ``u``; a family whose
bound comes within a tenth of it (``k > 447``) keeps the exact path.
Near underflow the ulp bound is absolute rather than relative, and
:data:`RATE_FLOOR` covers that.

A candidate is decided from the ``np.exp`` rate only if its uniform lies
farther than the margin from its threshold and its rate lies inside the
``bad`` bounds ``[0, max * (1 + 1e-9)]``, farther than the margin from the
upper one.  At the lower bound no margin is needed: a sum of non-negative
terms is at least 0 on both paths, and an ``np.exp`` rate below 0 (the
terms were not all non-negative) is rechecked.  Every other candidate is
decided, and every :class:`~repro.errors.WorkloadError` raised, from the
exact rate, so a bound violation names the same first candidate as the
exact path.  The bound holds only if ``np.exp`` does:
:func:`np_exp_agrees` compares it with ``math.exp`` once per process, and
if they differ by more than the assumed ulps anywhere on its sample,
:func:`thin` declines and every rate takes ``math_exp``.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..errors import WorkloadError
from .arrivals import NonHomogeneousPoisson, math_exp

#: Relative distance from a threshold (or a ``bad`` bound) within which a
#: candidate is decided from its exact rate.
RATE_MARGIN = 1e-12
#: Absolute slack for rates and thresholds near underflow, where
#: ``exp``'s error is an absolute subnormal ulp.
RATE_FLOOR = 2.0 ** -1000
#: Ulps by which ``np.exp`` and ``math.exp`` may each miss ``exp``.
EXP_ULPS = 1
#: Fewest candidates decided on ``np.exp`` rates: below this the dozen
#: array calls of :func:`thin` cost more than ``math_exp`` per element.
MIN_CANDIDATES = 64
#: Arguments :func:`np_exp_agrees` compares on: a fixed spread over the
#: decays the families evaluate, down to underflow.
_SAMPLE = 20_000


def error_bound(terms: int) -> float:
    """Relative distance, to first order, between thresholds built with
    ``np.exp`` and with ``math.exp`` from ``terms`` non-negative terms."""
    return (2 * terms + 6) * 2.0 ** -53


@functools.lru_cache(maxsize=None)
def np_exp_agrees() -> bool:
    """Whether ``np.exp`` is within ``2 * EXP_ULPS`` ulp of ``math.exp``
    everywhere on a fixed sample of arguments in ``[-750, 0]``."""
    rng = np.random.default_rng(0)
    x = np.concatenate([
        -rng.uniform(0.0, 50.0, _SAMPLE // 2),
        -rng.uniform(0.0, 750.0, _SAMPLE // 2),
        -np.logspace(-20, 2.85, 200),
        [0.0, -0.0, -1e-300, -708.0, -745.0],
    ])
    exact = math_exp(x)
    return bool(np.all(np.abs(np.exp(x) - exact) <= 2 * EXP_ULPS * np.spacing(exact)))


def thin(process: NonHomogeneousPoisson, times: np.ndarray,
         draws: np.ndarray) -> Optional[np.ndarray]:
    """The kept ``times``, as the exact path keeps them, or None where
    ``np.exp`` failed its check, ``process``'s bound exceeds the margin or
    the chunk has fewer than :data:`MIN_CANDIDATES`."""
    if (len(times) < MIN_CANDIDATES or 10 * error_bound(process.rate_terms) > RATE_MARGIN
            or not np_exp_agrees()):
        return None
    bound = process.max_rate_per_hour
    upper = bound * (1 + 1e-9)
    rates = process._np_exp_rates(times)
    thresholds = rates / bound
    unsure = np.abs(draws - thresholds) <= RATE_MARGIN * thresholds + RATE_FLOOR
    near = upper * (1 - RATE_MARGIN)
    if rates.min() < 0 or rates.max() >= near:
        unsure |= (rates < 0) | (rates >= near)
    keep = draws < thresholds
    recheck = np.flatnonzero(unsure)
    if len(recheck):
        exact = process.rates(times[recheck])
        bad = (exact < 0) | (exact > upper)
        if bad.any():
            first = int(np.argmax(bad))
            raise WorkloadError(
                f"rate_fn({times[recheck[first]].item()}) = {exact[first].item()} "
                f"outside [0, {bound}]"
            )
        keep[recheck] = draws[recheck] < exact / bound
    return times[keep]
