"""Task kinds: what a :class:`~repro.runtime.spec.RunSpec` can ask for.

A *kind* maps a spec to the domain function that executes it.  Handlers
take ``(payload, observation)`` and return a picklable value; the domain
logic itself stays in the owning layer (``experiments``, ``cluster``) and
is imported lazily so the runtime package never drags the whole experiment
stack in at import time (and so pool workers resolve handlers by importing
this module alone).

Built-in kinds
--------------
``sweep-point``
    One figure-sweep grid cell: ``(name, label, point, SweepConfig)`` →
    :class:`~repro.analysis.metrics.BandwidthPoint`, where ``point`` is a
    stationary rate (req/hour) or a digest-keyed
    :class:`~repro.workload.spec.WorkloadSpec` (nonstationary sweeps);
    float payloads are bit-identical to pre-workload runs.  Slotted cells
    run on the columnar slotted driver, traced or not, so every entry
    point that fans work through the Engine — figure sweeps, ablations,
    catalog studies, the CLI — gets batched admission for free.
``fig9-series``
    One Figure-9 series: ``(series_name, SweepConfig, video | None)`` →
    :class:`~repro.analysis.metrics.ProtocolSeries`.
``ablation-series``
    One ablation arm swept over every rate: ``(study, arm, SweepConfig)``
    → :class:`~repro.analysis.metrics.ProtocolSeries`.
``catalog-title``
    One catalog title: ``(rank, rate, SweepConfig)`` → per-protocol mean
    bandwidths.
``cluster-scenario``
    One multi-server scenario: ``(ClusterScenario,)`` →
    :class:`~repro.cluster.scenario.ClusterResult`.
``edge-scenario``
    One origin+edge hierarchy run: ``(HierarchyScenario,)`` →
    :class:`~repro.edge.scenario.HierarchyResult`.  Budget sweeps
    (cache budget × Zipf skew × arrival rate) fan these out across any
    backend with checkpointed resume, like every other kind.
``adaptive-arm``
    One arm of the adaptive-DHB day study: ``(arm, AdaptiveStudyConfig)``
    → :class:`~repro.experiments.adaptive.ArmResult`, where ``arm`` is
    ``"static"`` or ``"adaptive"``.  Both arms replay the same
    digest-keyed nonstationary arrival trace.
``figure-render``
    The deterministic Figures 1–5 renderings: ``()`` or ``(figure,)`` →
    ``str``.

Custom kinds registered via :func:`register_kind` exist only in the
registering process; pooled execution of a custom kind requires the
registration to happen at import time of a module the workers import.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..obs.trace import MemoryTraceSink, Observation
from .spec import RunResult, RunSpec

Handler = Callable[[tuple, Optional[Observation]], Any]


def _run_sweep_point(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..experiments.runner import measure_sweep_point

    name, label, point, config = payload
    return measure_sweep_point(name, label, point, config, observation=observation)


def _run_fig9_series(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..experiments.fig9 import measure_fig9_series

    series_name, config, video = payload
    return measure_fig9_series(series_name, config, video, observation=observation)


def _run_ablation_series(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..experiments.ablations import run_ablation_series

    study, arm, config = payload
    return run_ablation_series(study, arm, config, observation=observation)


def _run_catalog_title(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..experiments.catalog import measure_catalog_title

    rank, rate, config = payload
    return measure_catalog_title(rank, rate, config, observation=observation)


def _run_cluster_scenario(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..cluster.scenario import run_scenario

    (scenario,) = payload
    return run_scenario(scenario, observation=observation)


def _run_edge_scenario(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..edge.scenario import run_hierarchy

    (scenario,) = payload
    return run_hierarchy(scenario, observation=observation)


def _run_adaptive_arm(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..experiments.adaptive import run_adaptive_arm

    arm, study = payload
    return run_adaptive_arm(arm, study, observation=observation)


def _run_figure_render(payload: tuple, observation: Optional[Observation]) -> Any:
    from ..experiments.fig1to5 import render_all_figures, render_figure

    if payload:
        return render_figure(payload[0])
    return render_all_figures()


#: The kinds every process knows about (workers resolve these by import).
BUILTIN_KINDS: Dict[str, Handler] = {
    "sweep-point": _run_sweep_point,
    "fig9-series": _run_fig9_series,
    "ablation-series": _run_ablation_series,
    "catalog-title": _run_catalog_title,
    "cluster-scenario": _run_cluster_scenario,
    "edge-scenario": _run_edge_scenario,
    "adaptive-arm": _run_adaptive_arm,
    "figure-render": _run_figure_render,
}

_KINDS: Dict[str, Handler] = dict(BUILTIN_KINDS)


def register_kind(kind: str, handler: Handler) -> None:
    """Register a custom task kind (current process only; see module doc)."""
    if kind in _KINDS:
        raise ConfigurationError(f"task kind {kind!r} is already registered")
    _KINDS[kind] = handler


def resolve_kind(kind: str) -> Handler:
    """The handler for ``kind``; raises on unknown kinds."""
    handler = _KINDS.get(kind)
    if handler is None:
        raise ConfigurationError(
            f"unknown task kind {kind!r}; known: {sorted(_KINDS)}"
        )
    return handler


#: In-process count of execute_spec invocations — the checkpoint layer's
#: "completed specs are not re-executed" probe.  Per process: pool and
#: socket workers each count their own executions.
_EXECUTIONS = 0


def execution_count() -> int:
    """How many specs this process has executed (see :data:`_EXECUTIONS`)."""
    return _EXECUTIONS


def reset_execution_count() -> None:
    """Zero the in-process execution probe (tests and benches)."""
    global _EXECUTIONS
    _EXECUTIONS = 0


def execute_spec(spec: RunSpec, want_metrics: bool, want_trace: bool) -> RunResult:
    """Execute one spec under a fresh, cell-local registry/sink.

    This is the function workers run — pool processes and socket workers
    alike: module-level (picklable by reference), and everything it
    returns is a plain value.  Without observability it adds nothing to
    the handler call — the disabled path costs no allocations.
    """
    global _EXECUTIONS
    _EXECUTIONS += 1
    handler = resolve_kind(spec.kind)
    if not want_metrics:
        return RunResult(handler(spec.payload, None), {}, [])
    registry = MetricsRegistry()
    sink = MemoryTraceSink() if want_trace else None
    value = handler(spec.payload, Observation(metrics=registry, trace=sink))
    return RunResult(
        value=value,
        metrics=registry.to_dict(),
        trace=sink.records if sink is not None else [],
    )
