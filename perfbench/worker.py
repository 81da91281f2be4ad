"""Child process of the batch workloads.

Builds the workload (the set-up the orchestrator times up to the ``ready``
line), then runs timed passes for the given number of seconds and reports
per-pass wall time, CPU time and requests delivered, the output-check
records and the peak RSS.  With ``--trace 1`` half the time runs untraced
and half traced, and the per-layer metrics come from the traced passes.

Run by ``perfbench/run.py``; by hand::

    python3 perfbench/worker.py --workload dhb_kernel --seed 2001 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List

from common import (
    OUT_DIR,
    PER_LAYER,
    SpeedProbe,
    bootstrap_source,
    cpu_seconds,
    emit,
    peak_rss_mb,
    scaled_rate,
)


class PassClock:
    """Times the steps of one pass, each scaled by the host speed during it.

    ``probe`` is a started :class:`common.SpeedProbe`; its samples taken
    during a step set the step's scale factor, and its own time is taken
    out of the step's wall and CPU time.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.wall = self.cpu = self.scaled_wall = self.scaled_cpu = 0.0

    def __call__(self, step):
        mark = self.probe.mark()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        value = step()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        factor, probe_wall, probe_cpu = self.probe.since(mark)
        self.wall += wall - probe_wall
        self.cpu += cpu - probe_cpu
        self.scaled_wall += (wall - probe_wall) * factor
        self.scaled_cpu += (cpu - probe_cpu) * factor
        return value


def _passes(workload, budget: float, ops: List[Dict], corrupt: bool, tracer=None):
    """Run passes while another one fits in ``budget`` seconds (at least one)."""
    passes: List[Dict] = []
    on_probe = tracer.charge if tracer is not None else None
    with SpeedProbe(on_probe) as probe:
        while not passes or sum(p["wall"] for p in passes) + passes[-1]["wall"] <= budget:
            clock = PassClock(probe)
            if tracer is None:
                out = workload.run(clock)
            else:
                with tracer.span("bench.pass", cell=workload.name):
                    out = workload.run(clock)
            ops.extend(workload.check(out, corrupt))
            passes.append({
                "wall": clock.wall, "cpu": clock.cpu, "requests": out["requests"],
                "scaled_wall": clock.scaled_wall, "scaled_cpu": clock.scaled_cpu,
                "counts": out.get("counts", {}),
            })
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bootstrap_source()
    from workloads import BATCH

    setup_tracer = None
    if args.trace:
        from tracing import Tracer, install_batch_boundaries

        setup_tracer = Tracer()
        install_batch_boundaries(setup_tracer)
    workload = BATCH[args.workload](args.seed, args.smoke)
    if setup_tracer is not None:
        setup_tracer.remove()
    emit("ready")
    if args.setup_only:
        return 0

    ops: List[Dict] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = _passes(workload, budget, ops, args.corrupt)
    if hasattr(workload, "check_scalar_prefix"):
        ops.extend(workload.check_scalar_prefix(args.corrupt))
    result = {"passes": passes, "ops": ops}

    if args.trace:
        from repro.runtime.cache import cache_info
        from tracing import Tracer, batch_layer_metrics, install_batch_boundaries

        tracer = Tracer()
        install_batch_boundaries(tracer)
        before = cache_info()
        traced = _passes(workload, budget, ops, args.corrupt, tracer)
        after = cache_info()
        tracer.remove()
        tracer.counts["runtime.cache_hits"] += after.hits - before.hits
        tracer.counts["runtime.cache_misses"] += after.misses - before.misses
        for traced_pass in traced:
            tracer.counts.update(traced_pass["counts"])
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(batch_layer_metrics(tracer, len(traced)))
        # Generation the workload treats as given happens in set-up.
        layers["workload.generate_s"] += setup_tracer.seconds("workload.generate")
        layers["workload.arrivals"] += setup_tracer.counts["workload.arrivals"]
        layers["tracing.overhead_frac"] = scaled_rate(passes) / scaled_rate(traced) - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({"setup": setup_tracer.dump(), "passes": tracer.dump()})
        )
        result.update(traced=traced, layers=layers, spans=str(spans_path))

    result["peak_rss_mb"] = peak_rss_mb()
    emit("result", **result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
