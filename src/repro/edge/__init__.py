"""Origin→edge hierarchy: prefix caching and policy-based traffic shaping.

The paper's DHB protocol answers how an *origin* broadcasts one video to
many viewers; a deployment fronts that origin with *edge* nodes close to
the clients, each holding the first ``k`` segments of the hotter titles.
A client whose title has a cached prefix starts playback from its edge
with near-zero wait and joins the origin broadcast for the *suffix* only
(segments ``k+1 .. n``), which shrinks the origin's saturation bandwidth
for that title from ``H(n)`` to ``H(n) - H(k)`` — the backbone saving
this package measures against the scalable-VoD bounds.

Layout
------
:mod:`~repro.edge.cache`
    Prefix-allocation policies partitioning a fixed cache budget across
    the catalog (popularity-weighted waterfill, uniform, proportional).
:mod:`~repro.edge.shaping`
    Traffic classes and the :class:`~repro.edge.shaping.PolicyShaper`:
    deterministic classification plus per-class token buckets feeding the
    edge uplink.
:mod:`~repro.edge.node`
    :class:`~repro.edge.node.EdgeNode` (one cache + shaper) and
    :class:`~repro.edge.node.EdgeTier` (the fleet the cluster loop talks
    to; each node keeps one prefix allocation for the whole run).
:mod:`~repro.edge.scenario`
    :class:`~repro.edge.scenario.HierarchyScenario` — one frozen
    origin+edge experiment — and :func:`~repro.edge.scenario.run_hierarchy`.
:mod:`~repro.edge.study`
    The figure-style budget study: backbone bandwidth saved vs pure DHB
    across cache budgets, with the analytic bound overlaid.
"""

from .cache import (
    PREFIX_POLICY_NAMES,
    CacheAllocation,
    allocate_prefixes,
)
from .node import EdgeDecision, EdgeNode, EdgeTier
from .scenario import (
    HierarchyResult,
    HierarchyScenario,
    preset_hierarchy,
    run_hierarchy,
)
from .shaping import (
    DEFAULT_CLASSES,
    PolicyShaper,
    TrafficClass,
    parse_classes,
)
from .study import BudgetPoint, BudgetStudy, run_budget_study

__all__ = [
    "PREFIX_POLICY_NAMES",
    "CacheAllocation",
    "allocate_prefixes",
    "DEFAULT_CLASSES",
    "TrafficClass",
    "PolicyShaper",
    "parse_classes",
    "EdgeDecision",
    "EdgeNode",
    "EdgeTier",
    "HierarchyScenario",
    "HierarchyResult",
    "run_hierarchy",
    "preset_hierarchy",
    "BudgetPoint",
    "BudgetStudy",
    "run_budget_study",
]
