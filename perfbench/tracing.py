"""Layer-boundary tracing, installed from outside the program.

:class:`Tracer` wraps public entry points of the ``repro`` layers (class
methods and module functions) and records, at each boundary, the time
spent inside it and counts of the work it did.  Nothing under ``src/`` is
modified: wrappers are installed on the imported objects before a traced
pass and removed after it.

Two kinds of boundary:

* **coarse** boundaries (an Engine batch, one sweep cell, one simulation
  run) keep a full span record ``[name, start, end, parent, cell]`` in
  memory; the records are written out when the benchmark ends;
* **hot** boundaries (one protocol admission per occupied slot, one edge
  decision per arrival, one frame encode) are called up to millions of
  times, so they are folded into per-layer totals instead of one record
  per call.  Their time still counts as child time of the enclosing span.

A layer's self time is the time inside its boundaries minus the time its
children's boundaries cover.  Per-slot calls the simulation drivers make
(``slot_load``, ``slot_weight``, ``release_before``) are too hot to wrap:
their time stays in the driver's self time (``sim.slotted_self_s``).
"""

from __future__ import annotations

import contextlib
import pickle
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

Hook = Callable[..., None]

#: Layer groups whose nesting inside each other counts the work once.
_CORE = ("core.admit", "core.adaptive_admit", "core.suffix_admit")


class Tracer:
    """Spans and counts recorded at wrapped layer boundaries."""

    def __init__(self):
        # Open frames: [group, child_seconds, span index children attach
        # to, parent frame, cell outside this frame, keeps a span record].
        self.stack: List[list] = []
        self.spans: List[list] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cell: Optional[str] = None
        self._patches: List[tuple] = []

    def _open(self, group: str, coarse: bool, cell: Optional[str]) -> list:
        parent = self.stack[-1] if self.stack else None
        outer_cell = self.cell
        if cell is not None:
            self.cell = cell
        anchor = parent[2] if parent is not None else -1
        if coarse:
            self.spans.append([group, 0.0, 0.0, anchor, self.cell])
            anchor = len(self.spans) - 1
        frame = [group, 0.0, anchor, parent, outer_cell, coarse]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        group, child_seconds, anchor, parent, outer_cell, coarse = frame
        self.stack.pop()
        duration = end - start
        self.self_seconds[group] += duration - child_seconds
        self.calls[group] += 1
        if parent is not None:
            parent[1] += duration
        if coarse:
            self.spans[anchor][1:3] = [start, end]
        self.cell = outer_cell

    # -- installing wrappers ----------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        group: str,
        coarse: bool = False,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Hook] = None,
        cell: Optional[Callable[..., str]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper until :meth:`remove`.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, token, parent_group)``,
        which records counts.  ``cell(args, kwargs)`` names the cell the
        spans below this boundary belong to.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = tracer._open(group, coarse, cell(args, kwargs) if cell else None)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, start, clock())
            if after is not None:
                parent = frame[3]
                after(args, kwargs, result, token, parent[0] if parent else None)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if own else None))

    def remove(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, group: str, cell: Optional[str] = None) -> Iterator[None]:
        """A coarse span around benchmark code (``with tracer.span(...)``)."""
        frame = self._open(group, True, cell)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def charge(self, seconds: float) -> None:
        """Book ``seconds`` of benchmark work (a speed probe) that interrupted
        the innermost open span, so no layer's self time includes it."""
        if self.stack:
            self.stack[-1][1] += seconds
        self.self_seconds["bench.probe"] += seconds

    # -- reading it back ----------------------------------------------------

    def seconds(self, *groups: str) -> float:
        return sum(self.self_seconds.get(group, 0.0) for group in groups)

    def dump(self) -> Dict[str, Any]:
        """JSON-safe record: every coarse span plus the per-layer totals."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "cell": c}
                for n, s, e, p, c in self.spans
            ],
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _implementations(cls, attr: str) -> List[type]:
    """``cls`` and its subclasses that define a concrete ``attr`` themselves."""
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [
        c for c in found
        if attr in c.__dict__
        and not getattr(c.__dict__[attr], "__isabstractmethod__", False)
    ]


def install_batch_boundaries(tracer: Tracer) -> None:
    """Wrap the layer entry points the batch workloads pass through."""
    import repro.workload  # noqa: F401  (registers every ArrivalProcess)
    from repro.cluster.admission import CappedServer
    from repro.cluster.routing import Router
    from repro.core.adaptive import AdaptiveDHBProtocol
    from repro.core.dhb import DHBProtocol
    from repro.edge.node import EdgeTier
    from repro.experiments import adaptive as adaptive_mod
    from repro.experiments import fig9 as fig9_mod
    from repro.experiments import runner as runner_mod
    from repro.obs.registry import MetricsRegistry
    from repro.protocols.base import StaticBroadcastProtocol
    from repro.protocols.on_demand import OnDemandMapProtocol
    from repro.protocols.stream_tapping import StreamTappingProtocol
    from repro.runtime.engine import Engine
    from repro.sim.continuous import ContinuousSimulation
    from repro.sim.slotted import SlottedSimulation
    from repro.workload.arrivals import ArrivalProcess

    counts = tracer.counts

    # workload: every concrete generate(); nested generators count once.
    def arrivals(args, kwargs, result, token, parent):
        if parent != "workload.generate":
            counts["workload.arrivals"] += len(result)

    for cls in _implementations(ArrivalProcess, "generate"):
        tracer.wrap(cls, "generate", "workload.generate", after=arrivals)

    # runtime: Engine.run minus the task handlers and the obs merge.
    def engine_counts(args, kwargs, result, token, parent):
        specs = list(_arg(args, kwargs, 1, "specs"))
        counts["runtime.specs"] += len(specs)
        counts["runtime.payload_bytes"] += len(pickle.dumps(specs)) + len(
            pickle.dumps(result)
        )

    tracer.wrap(Engine, "run", "runtime.engine", coarse=True, after=engine_counts)
    tracer.wrap(
        runner_mod, "measure_sweep_point", "experiments.cell", coarse=True,
        cell=lambda a, k: f"{_arg(a, k, 1, 'label')}@{_arg(a, k, 2, 'point')}",
    )
    tracer.wrap(
        fig9_mod, "measure_fig9_series", "experiments.cell", coarse=True,
        cell=lambda a, k: f"fig9:{_arg(a, k, 0, 'series_name')}",
    )
    tracer.wrap(
        adaptive_mod, "run_adaptive_arm", "experiments.cell", coarse=True,
        cell=lambda a, k: f"arm:{_arg(a, k, 0, 'arm')}",
    )

    def merges(args, kwargs, result, token, parent):
        counts["obs.merges"] += 1

    tracer.wrap(MetricsRegistry, "merge_dict", "obs.merge", after=merges)

    # sim: the drivers' own loops (protocol calls are hot children).
    def slots(args, kwargs, result, token, parent):
        counts["sim.slots"] += args[0].horizon_slots

    tracer.wrap(SlottedSimulation, "run", "sim.slotted", coarse=True, after=slots)
    tracer.wrap(ContinuousSimulation, "run", "sim.continuous", coarse=True)

    # core: DHB admissions, with the schedule's instance count around them.
    def instances_before(args, kwargs):
        protocol = args[0]
        retunes = len(protocol.retunes) if hasattr(protocol, "retunes") else 0
        return protocol.schedule.total_instances, retunes

    def admitted(requests_of):
        def after(args, kwargs, result, token, parent):
            if parent == "sim.slotted":
                counts["sim.occupied_slots"] += 1
            if parent in _CORE:
                return
            protocol = args[0]
            counts["core.admissions"] += 1
            counts["core.requests"] += requests_of(args, kwargs)
            counts["core.instances"] += protocol.schedule.total_instances - token[0]
            if hasattr(protocol, "retunes"):
                counts["core.retunes"] += len(protocol.retunes) - token[1]

        return after

    one = admitted(lambda a, k: 1)
    batch = admitted(lambda a, k: _arg(a, k, 2, "count"))
    for cls, group in (
        (DHBProtocol, "core.admit"),
        (AdaptiveDHBProtocol, "core.adaptive_admit"),
    ):
        tracer.wrap(cls, "handle_batch", group, before=instances_before, after=batch)
        tracer.wrap(cls, "handle_request", group, before=instances_before, after=one)
    tracer.wrap(
        DHBProtocol, "handle_suffix_request", "core.suffix_admit",
        before=instances_before, after=one,
    )

    # protocols: fixed/on-demand map admissions and the reactive callbacks.
    def occupied(args, kwargs, result, token, parent):
        if parent == "sim.slotted":
            counts["sim.occupied_slots"] += 1

    for cls in (OnDemandMapProtocol, StaticBroadcastProtocol):
        tracer.wrap(cls, "handle_batch", "protocols.map_admit", after=occupied)
        tracer.wrap(cls, "handle_request", "protocols.map_admit")
    for attr in ("handle_request", "startup_delay", "finish"):
        tracer.wrap(StreamTappingProtocol, attr, "protocols.reactive")

    # cluster: routing, capped admission, per-slot finalisation.
    for cls in _implementations(Router, "choose"):
        tracer.wrap(cls, "choose", "cluster.route")
    tracer.wrap(CappedServer, "admit", "cluster.admit")
    tracer.wrap(CappedServer, "admit_suffix", "cluster.admit")
    tracer.wrap(CappedServer, "finalize_slot", "cluster.finalize")

    # edge: one decision per arrival.
    def decision(args, kwargs, result, token, parent):
        counts["edge.decisions"] += 1
        if result.hit:
            counts["edge.hits"] += 1
            if not result.served_fully and result.join_slot > _arg(args, kwargs, 3, "slot"):
                counts["edge.deferred_joins"] += 1

    tracer.wrap(EdgeTier, "admit", "edge.admit", after=decision)


def batch_layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """The per-layer metrics of the batch workloads, per traced pass."""
    c = tracer.counts
    per = 1.0 / max(passes, 1)
    lookups = c["runtime.cache_hits"] + c["runtime.cache_misses"]
    return {
        "workload.generate_s": tracer.seconds("workload.generate") * per,
        "workload.arrivals": c["workload.arrivals"] * per,
        "runtime.dispatch_self_s": tracer.seconds("runtime.engine") * per,
        "runtime.specs": c["runtime.specs"] * per,
        "runtime.cache_hit_ratio": c["runtime.cache_hits"] / lookups if lookups else 0.0,
        "runtime.cache_lookups": lookups * per,
        "runtime.payload_bytes": c["runtime.payload_bytes"] * per,
        "obs.merge_s": tracer.seconds("obs.merge") * per,
        "obs.merges": c["obs.merges"] * per,
        "sim.slotted_self_s": tracer.seconds("sim.slotted") * per,
        "sim.slots": c["sim.slots"] * per,
        "sim.occupied_slots": c["sim.occupied_slots"] * per,
        "sim.continuous_self_s": tracer.seconds("sim.continuous") * per,
        "core.admit_s": tracer.seconds("core.admit") * per,
        "core.admissions": c["core.admissions"] * per,
        "core.requests": c["core.requests"] * per,
        "core.instances": c["core.instances"] * per,
        "core.instances_per_request": (
            c["core.instances"] / c["core.requests"] if c["core.requests"] else 0.0
        ),
        "core.adaptive_admit_s": tracer.seconds("core.adaptive_admit") * per,
        "core.retunes": c["core.retunes"] * per,
        "core.suffix_admit_s": tracer.seconds("core.suffix_admit") * per,
        "protocols.reactive_s": tracer.seconds("protocols.reactive") * per,
        "protocols.map_admit_s": tracer.seconds("protocols.map_admit") * per,
        "cluster.route_s": tracer.seconds("cluster.route") * per,
        "cluster.admit_s": tracer.seconds("cluster.admit") * per,
        "cluster.finalize_s": tracer.seconds("cluster.finalize") * per,
        "cluster.admitted": c["cluster.admitted"] * per,
        "cluster.rejected": c["cluster.rejected"] * per,
        "edge.admit_s": tracer.seconds("edge.admit") * per,
        "edge.decisions": c["edge.decisions"] * per,
        "edge.hit_ratio": (
            c["edge.hits"] / c["edge.decisions"] if c["edge.decisions"] else 0.0
        ),
        "edge.deferred_joins": c["edge.deferred_joins"] * per,
    }
