"""The figure-style edge study: backbone saved vs cache budget.

The deliverable picture for the hierarchy is one curve: how much backbone
(origin) bandwidth the edge tier saves over pure DHB broadcast as the
per-edge cache budget grows, with the analytic saturation bound
(:func:`repro.analysis.theory.edge_backbone_savings_bound`) overlaid.
Every point is an independent ``"edge-scenario"`` run spec, so the sweep
fans out across whatever runtime backend is configured and resumes from
checkpoints like any other batch; the budget-0 point doubles as the pure
DHB baseline every saving is measured against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ..analysis.tables import format_simple_table
from ..errors import ConfigurationError
from ..obs.trace import Observation
from .scenario import HierarchyResult, HierarchyScenario

#: Default per-edge budget sweep, as fractions of the catalog's segments.
DEFAULT_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class BudgetPoint:
    """One cache budget's measured and analytic outcome."""

    cache_segments: int
    hit_ratio: float
    origin_mean_streams: float
    edge_segments_served: int
    backbone_saved: float
    theory_bound: float
    hits: int
    joins_deferred: int
    joins_dropped: int
    median_deferral_slots: int
    p99_deferral_slots: int
    max_deferral_slots: int

    def saved_text(self) -> str:
        """The backbone saving as printed, flagged when it is only a bound.

        Hits whose origin join was dropped at the horizon count as saved
        (:meth:`HierarchyResult.backbone_saved_vs`), so with any dropped
        join the saving reads as an upper bound with the count beside it.
        """
        if not self.joins_dropped:
            return f"{self.backbone_saved:.1%}"
        return (
            f"≤ {self.backbone_saved:.1%}, {self.joins_dropped:,} of "
            f"{self.hits:,} hits never reached the origin"
        )


@dataclass
class BudgetStudy:
    """The swept curve: measured backbone savings with the bound overlaid."""

    scenario: str
    points: List[BudgetPoint]

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the study."""
        return {
            "scenario": self.scenario,
            "points": [asdict(point) for point in self.points],
        }

    def render(self) -> str:
        """The study as a table, budget ascending (the figure's data)."""
        rows = [
            [
                point.cache_segments,
                f"{point.hit_ratio:.3f}",
                f"{point.origin_mean_streams:.2f}",
                point.edge_segments_served,
                f"{'≤' if point.joins_dropped else ''}{point.backbone_saved:.3f}",
                f"{point.theory_bound:.3f}",
                point.joins_deferred,
                point.joins_dropped,
                point.median_deferral_slots,
                point.p99_deferral_slots,
                point.max_deferral_slots,
            ]
            for point in self.points
        ]
        table = format_simple_table(
            [
                "cache/edge",
                "hit ratio",
                "origin streams",
                "edge segments",
                "saved",
                "bound",
                "deferred",
                "dropped",
                "p50 defer",
                "p99 defer",
                "max defer",
            ],
            rows,
        )
        notes = [
            f"budget {point.cache_segments}: saved {point.saved_text()}"
            for point in self.points
            if point.joins_dropped
        ]
        return "\n".join(
            [
                f"edge budget study ({self.scenario}): backbone bandwidth "
                "saved vs pure DHB broadcast",
                table,
                *notes,
            ]
        )


def run_budget_study(
    base: HierarchyScenario,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    observation: Optional[Observation] = None,
    engine=None,
) -> BudgetStudy:
    """Sweep per-edge cache budgets and measure backbone savings.

    ``fractions`` scale each edge's budget against the catalog's total
    segment count; a 0.0 point is always included (it is the pure-DHB
    baseline the savings are measured against).  Points run as
    ``"edge-scenario"`` specs through the runtime Engine, in input order,
    bit-for-bit identical on every backend.
    """
    from ..runtime import Engine, RunSpec

    if not fractions:
        raise ConfigurationError("need >= 1 budget fraction")
    cleaned = sorted({max(0.0, float(f)) for f in fractions} | {0.0})
    if any(f > 1.0 for f in cleaned):
        raise ConfigurationError("budget fractions must be in [0, 1]")
    catalog_segments = base.topology.n_titles * base.n_segments
    scenarios = [
        base.with_cache_budget(int(fraction * catalog_segments))
        for fraction in cleaned
    ]
    specs = [
        RunSpec(
            "edge-scenario",
            (scenario,),
            label=f"{scenario.name}@{scenario.topology.edges[0].cache_segments}",
        )
        for scenario in scenarios
    ]
    if engine is None:
        engine = Engine()
    results: List[HierarchyResult] = engine.run_values(
        specs, observation=observation
    )
    baseline = results[0].cluster
    points = [
        BudgetPoint(
            cache_segments=scenario.topology.edges[0].cache_segments,
            hit_ratio=result.hit_ratio,
            origin_mean_streams=result.origin_mean_streams,
            edge_segments_served=result.edge_segments_served,
            backbone_saved=result.backbone_saved_vs(baseline),
            theory_bound=result.theory_bound,
            hits=result.hits,
            joins_deferred=result.joins_deferred,
            joins_dropped=result.joins_dropped,
            median_deferral_slots=result.median_deferral_slots,
            p99_deferral_slots=result.p99_deferral_slots,
            max_deferral_slots=result.max_deferral_slots,
        )
        for scenario, result in zip(scenarios, results)
    ]
    return BudgetStudy(scenario=base.name, points=points)
