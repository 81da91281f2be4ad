"""Prefix-cache allocation: partition a segment budget across the catalog.

An edge node holds a fixed budget of ``B`` video segments and must decide,
per title, how long a *prefix* to cache.  Caching the first ``k`` segments
of a title buys two things at once: arrivals for that title start from the
edge with near-zero wait, and the origin only broadcasts the suffix, whose
saturation bandwidth is ``H(n) - H(k)`` — a saving of ``H(k)`` out of the
title's ``H(n)``
(see :func:`repro.analysis.theory.edge_backbone_savings_bound`).

Three policies, all deterministic functions of their inputs:

* ``popularity`` — greedy waterfill by marginal utility ``p_i / (k_i + 1)``:
  each unit of budget goes to the title where one more cached segment buys
  the most expected saving (the marginal harmonic gain of the ``k+1``-st
  segment is ``p_i / (k_i + 1)``).  Because the greedy sequence is fixed by
  the shares alone, the allocation at budget ``B + 1`` extends the
  allocation at ``B`` by exactly one segment — per-title prefixes, and
  hence the hit ratio, are monotone non-decreasing in the budget (the
  property test in ``tests/edge/test_cache.py`` leans on this).
* ``uniform`` — deal one segment per title round-robin in rank order until
  the budget runs out; ignores popularity entirely (the ablation baseline).
* ``proportional`` — ``k_i = floor(B * p_i)`` clamped to the video length;
  simple and monotone, but leaves the fractional remainder unspent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError

#: Allocation policy names accepted by :func:`allocate_prefixes`.
PREFIX_POLICY_NAMES = ("popularity", "uniform", "proportional")


@dataclass(frozen=True)
class CacheAllocation:
    """One edge cache's per-title prefix lengths under a fixed budget.

    ``prefixes[title]`` is the number of leading segments cached for the
    title (0 = not cached).  The invariant every policy upholds — and the
    property suite enforces — is ``sum(prefixes) <= budget``.
    """

    policy: str
    budget: int
    n_segments: int
    prefixes: Tuple[int, ...]

    @property
    def total_segments(self) -> int:
        """Segments actually allocated (``<= budget`` always)."""
        return sum(self.prefixes)

    def expected_hit_ratio(self, probabilities: Sequence[float]) -> float:
        """Analytic hit ratio: the popularity mass of cached titles.

        A request is a cache *hit* exactly when its title has a non-empty
        prefix, so under shares ``p`` the expected hit ratio is
        ``sum(p_i for cached i)`` — the yardstick the regression gate holds
        the measured ratio against.
        """
        if len(probabilities) != len(self.prefixes):
            raise ConfigurationError(
                f"{len(probabilities)} shares for {len(self.prefixes)} titles"
            )
        return float(
            sum(p for p, k in zip(probabilities, self.prefixes) if k > 0)
        )


def allocate_prefixes(
    policy: str,
    probabilities: Sequence[float],
    budget: int,
    n_segments: int,
) -> CacheAllocation:
    """Partition ``budget`` cache segments across the catalog.

    ``probabilities`` are the catalog's request shares, most popular
    first; ``n_segments`` caps every prefix at the video length.

    >>> allocate_prefixes("popularity", [0.6, 0.3, 0.1], 4, 10).prefixes
    (3, 1, 0)
    >>> allocate_prefixes("uniform", [0.6, 0.3, 0.1], 4, 10).prefixes
    (2, 1, 1)
    >>> allocate_prefixes("proportional", [0.6, 0.3, 0.1], 10, 10).prefixes
    (6, 3, 1)
    """
    if policy not in PREFIX_POLICY_NAMES:
        raise ConfigurationError(
            f"unknown prefix policy {policy!r}; "
            f"choose from {list(PREFIX_POLICY_NAMES)}"
        )
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    if n_segments < 1:
        raise ConfigurationError(f"n_segments must be >= 1, got {n_segments}")
    if not probabilities:
        raise ConfigurationError("need >= 1 title share")
    shares = [float(p) for p in probabilities]
    if any(p < 0 for p in shares):
        raise ConfigurationError("title shares must be >= 0")
    total = sum(shares)
    if total <= 0:
        raise ConfigurationError("title shares must sum to > 0")
    # Normalize: callers may pass un-normalized weights, and the
    # proportional policy's floor(B * p) arithmetic needs true shares.
    shares = [p / total for p in shares]
    n_titles = len(shares)
    capacity = n_titles * n_segments
    budget = min(int(budget), capacity)
    if policy == "popularity":
        prefixes = _waterfill(shares, budget, n_segments)
    elif policy == "uniform":
        prefixes = _round_robin(n_titles, budget, n_segments)
    else:
        prefixes = [min(n_segments, int(budget * p)) for p in shares]
    return CacheAllocation(
        policy=policy,
        budget=budget,
        n_segments=n_segments,
        prefixes=tuple(prefixes),
    )


def _waterfill(shares: List[float], budget: int, n_segments: int) -> List[int]:
    """Greedy by marginal utility ``p_i / (k_i + 1)``, ties to the hotter rank.

    O(budget * titles) — edge budgets are hundreds of segments over tens of
    titles, so the simple scan beats a heap's constant factor and keeps the
    extension property (allocation at ``B+1`` = allocation at ``B`` plus one
    greedy step) obvious.
    """
    counts = [0] * len(shares)
    for _ in range(budget):
        best = -1
        best_gain = -1.0
        for title, p in enumerate(shares):
            if counts[title] >= n_segments:
                continue
            gain = p / (counts[title] + 1)
            if gain > best_gain:
                best, best_gain = title, gain
        if best < 0:
            break
        counts[best] += 1
    return counts


def _round_robin(n_titles: int, budget: int, n_segments: int) -> List[int]:
    """Deal segments one per title in rank order until the budget runs out."""
    base, extra = divmod(budget, n_titles)
    counts = [
        min(n_segments, base + (1 if title < extra else 0))
        for title in range(n_titles)
    ]
    return counts
