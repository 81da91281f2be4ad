"""The batch workloads: inputs from the seed, one timed pass, output checks.

Each workload is built so one layer does most of its work:

* ``sweep`` — Figures 7 and 9 at the bench scale through ``run_fig7`` /
  ``run_fig9`` on a serial Engine with an Observation: the reactive
  driver, the map protocols, runtime dispatch and the obs merge;
* ``dhb_kernel`` — two DHB points on the columnar slotted path: a
  saturated leg (~100 requests per slot, admission-kernel bound) and a
  sparse leg (~0.3 per slot, driver-loop bound);
* ``day`` — one 24 h diurnal + event-ring day at 100x the study's rates,
  through the static and adaptive arms and through the stock origin->edge
  hierarchy: NHPP generation, cluster routing/admission and edge caching.

A workload object is built once per process (its construction is the
set-up the benchmark times) and then runs any number of identical passes.
``run(timed)`` performs one pass, calling each step of it through
``timed`` so the worker can time the steps one by one; ``check()`` verifies
a pass's outputs and returns one operation record per cell, leg or arm.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Dict, List

from common import BENCH_DIR, DEFAULT_SEED, ROOT


def _ops(names: List[str], problems: List[str]) -> List[Dict]:
    """One operation record per name; all fail together if any check did."""
    for problem in problems:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    return [{"op": name, "ok": not problems, "problems": problems} for name in names]


def _pins() -> Dict:
    return json.loads((BENCH_DIR / "pins.json").read_text())


class Sweep:
    """Figures 7 and 9, as a reproducer regenerates them."""

    name = "sweep"

    def __init__(self, seed: int, smoke: bool):
        from repro.experiments.config import SweepConfig
        from repro.runtime import Engine

        base = SweepConfig(seed=seed)
        self.config = base.quick() if smoke else base.replace(
            base_hours=30.0, min_requests=300
        )
        self.engine = Engine(n_jobs=1, backend="serial")
        self.smoke = smoke
        self.compare_tables = seed == DEFAULT_SEED and not smoke

    def run(self, timed) -> Dict:
        from repro.experiments.fig7 import run_fig7
        from repro.experiments.fig9 import run_fig9
        from repro.experiments.runner import clear_trace_cache
        from repro.obs.registry import MetricsRegistry
        from repro.obs.trace import Observation

        clear_trace_cache()
        observation = Observation(metrics=MetricsRegistry())
        fig7 = timed(lambda: run_fig7(self.config, observation=observation, engine=self.engine))
        fig9 = timed(lambda: run_fig9(self.config, observation=observation, engine=self.engine))
        return {
            "fig7": fig7,
            "fig9": fig9,
            "requests": observation.metrics.counter("sim.requests").value,
        }

    def check(self, out: Dict, corrupt: bool) -> List[Dict]:
        from repro.analysis.theory import dhb_saturation_bandwidth
        from repro.experiments.fig7 import report_fig7
        from repro.experiments.fig9 import report_fig9

        fig7 = {s.protocol: list(s.means) for s in out["fig7"]}
        fig9 = {s.protocol: list(s.means) for s in out["fig9"]}
        text7 = report_fig7(out["fig7"]) + "\n"
        text9 = report_fig9(out["fig9"]) + "\n"
        if corrupt:
            fig7["New Pagoda Broadcasting"][0] += 1.0
            text7 = text7.replace("6.000", "6.001", 1)
        rates = list(out["fig7"][0].rates)
        p7: List[str] = []
        p9: List[str] = []
        tapping = fig7["Stream Tapping/Patching"]
        ud = fig7["UD Protocol"]
        dhb = fig7["DHB Protocol"]
        npb = fig7["New Pagoda Broadcasting"]
        if any(m != 6.0 for m in npb):
            p7.append(f"fig7: NPB is not flat at 6 streams: {npb}")
        if self.compare_tables:
            for name, text, problems in (("fig7", text7, p7), ("fig9", text9, p9)):
                golden = (ROOT / "benchmarks" / "results" / f"{name}.txt").read_text()
                if text != golden:
                    diff = [
                        f"{a!r} != {b!r}"
                        for a, b in zip(text.splitlines(), golden.splitlines())
                        if a != b
                    ]
                    problems.append(f"{name}: table differs from the golden: {diff[:3]}")
        if not self.smoke:
            # The paper-shape assertions of benchmarks/bench_fig7.py.
            for i, rate in enumerate(rates):
                if rate >= 2.0 and not dhb[i] < min(tapping[i], ud[i], npb[i]):
                    p7.append(f"fig7: a rival beat DHB at {rate}/h")
            if not tapping[0] < 1.6 * dhb[0]:
                p7.append("fig7: tapping not close to DHB at the lowest rate")
            if not tapping[-1] > 4 * dhb[-1]:
                p7.append("fig7: tapping did not diverge from DHB")
            if not dhb_saturation_bandwidth(99) <= dhb[-1] < 6.0:
                p7.append(f"fig7: DHB plateau {dhb[-1]} outside [H(99), 6)")
            if not (ud[0] < 3.0 and abs(ud[-1] - 7.0) < 0.05):
                p7.append(f"fig7: UD ends {ud[0]} .. {ud[-1]}")
            for curve in (dhb, ud):
                if not all(a <= b + 0.05 for a, b in zip(curve, curve[1:])):
                    p7.append("fig7: a dynamic curve is not monotone in the rate")
            # The paper-shape assertions of benchmarks/bench_fig9.py.
            order = ["UD", "DHB-a", "DHB-b", "DHB-c", "DHB-d"]
            for i, rate in enumerate(rates):
                values = [fig9[name][i] for name in order]
                if values != sorted(values, reverse=True):
                    p9.append(f"fig9: ordering broken at {rate}/h")
            highs = {name: fig9[name][-1] for name in order}
            steps = [
                highs["DHB-a"] - highs["DHB-b"],
                highs["DHB-b"] - highs["DHB-c"],
                highs["DHB-c"] - highs["DHB-d"],
            ]
            if steps[0] != max(steps):
                p9.append(f"fig9: a->b is not the largest saving: {steps}")
            if not steps[2] > 0.02 * highs["DHB-c"]:
                p9.append("fig9: DHB-d saves too little over DHB-c")
        cells7 = [f"fig7:{s.protocol}@{r:g}" for s in out["fig7"] for r in s.rates]
        cells9 = [f"fig9:{s.protocol}@{r:g}" for s in out["fig9"] for r in s.rates]
        return _ops(cells7, p7) + _ops(cells9, p9)


class DHBKernel:
    """Two DHB points on the columnar path over given arrival traces."""

    name = "dhb_kernel"
    N_SEGMENTS = 99
    #: (leg, rate per hour, hours): ~2.5M requests at ~100 per slot, and
    #: ~0.3 requests per slot over ~37k slots.  A pass is short (one to two
    #: seconds) so a run holds many passes and their median rides out the
    #: host's slow phases.
    LEGS = (("saturated", 5000.0, 500.0), ("sparse", 15.0, 750.0))
    SMOKE_LEGS = (("saturated", 5000.0, 20.0), ("sparse", 15.0, 300.0))
    PREFIX_SLOTS = 300

    def __init__(self, seed: int, smoke: bool):
        import numpy as np

        from repro.runtime.seeds import arrival_trace
        from repro.units import TWO_HOURS

        self.d = TWO_HOURS / self.N_SEGMENTS
        self.smoke = smoke
        self.pinned = seed == DEFAULT_SEED and not smoke
        self.legs = []
        for leg, rate, hours in self.SMOKE_LEGS if smoke else self.LEGS:
            trace = arrival_trace(seed, rate, hours)
            slots = int(hours * 3600.0 / self.d)
            delivered = int(np.searchsorted(trace, slots * self.d, side="left"))
            self.legs.append((leg, trace, slots, slots // 20, delivered))

    def _simulate(self, trace, slots: int, warmup: int, columnar: bool = True):
        from repro.core.dhb import DHBProtocol
        from repro.sim.slotted import SlottedSimulation

        protocol = DHBProtocol(n_segments=self.N_SEGMENTS)
        result = SlottedSimulation(
            protocol, self.d, slots, warmup, columnar=columnar
        ).run(trace)
        return protocol, result

    def run(self, timed) -> Dict:
        legs = {}
        for leg, trace, slots, warmup, _ in self.legs:
            legs[leg] = timed(lambda: self._simulate(trace, slots, warmup))
        return {"legs": legs, "requests": sum(leg[4] for leg in self.legs)}

    @staticmethod
    def summary(protocol, result) -> Dict:
        return {
            "requests": result.n_requests,
            "mean_streams": result.mean_streams,
            "max_streams": result.max_streams,
            "total_instances": protocol.schedule.total_instances,
            "wait_p99": result.wait_p99,
        }

    def check(self, out: Dict, corrupt: bool) -> List[Dict]:
        from repro.analysis.theory import dhb_saturation_bandwidth

        summaries = {leg: self.summary(*pair) for leg, pair in out["legs"].items()}
        if corrupt:
            summaries["saturated"]["total_instances"] += 1
            summaries["sparse"]["mean_streams"] = summaries["saturated"]["mean_streams"] + 1
        problems = {leg: [] for leg in summaries}
        pins = _pins()["dhb_kernel"] if self.pinned else None
        for leg, got in summaries.items():
            if pins is not None and got != pins[leg]:
                problems[leg].append(f"{leg}: {got} != pinned {pins[leg]}")
            if got["wait_p99"] > self.d or got["requests"] < 1:
                problems[leg].append(f"{leg}: wait p99 {got['wait_p99']} > d or no requests")
        saturated, sparse = summaries["saturated"], summaries["sparse"]
        if not self.smoke and not (
            dhb_saturation_bandwidth(self.N_SEGMENTS) <= saturated["mean_streams"] < 6.0
        ):
            problems["saturated"].append(
                f"saturated: mean {saturated['mean_streams']} outside [H(99), 6)"
            )
        if not sparse["mean_streams"] < saturated["mean_streams"]:
            problems["sparse"].append("sparse: no fewer streams than the saturated leg")
        ops = []
        for leg in summaries:
            ops += _ops([leg], problems[leg])
        return ops

    def check_scalar_prefix(self, corrupt: bool) -> List[Dict]:
        """The scalar driver matches the columnar one on the saturated prefix."""
        import numpy as np

        _, trace, _, _, _ = self.legs[0]
        prefix = trace[: int(np.searchsorted(trace, self.PREFIX_SLOTS * self.d))]
        warmup = self.PREFIX_SLOTS // 20
        runs = [
            self._simulate(prefix, self.PREFIX_SLOTS, warmup, columnar=columnar)
            for columnar in (True, False)
        ]
        (p_col, r_col), (p_sca, r_sca) = runs
        col = dict(dataclasses.asdict(r_col), columnar=None,
                   instances=p_col.schedule.total_instances)
        sca = dict(dataclasses.asdict(r_sca), columnar=None,
                   instances=p_sca.schedule.total_instances)
        if corrupt:
            col["instances"] += 1
        problems = [] if col == sca else [f"scalar prefix {sca} != columnar {col}"]
        return _ops(["scalar_prefix"], problems)


#: Rate multiplier over the adaptive study's default day (~240k requests).
DAY_RATE_SCALE = 100.0


def day_workload_spec():
    """``default_day_workload()``'s shape at :data:`DAY_RATE_SCALE` x its rates."""
    from repro.workload.spec import WorkloadSpec

    return WorkloadSpec.superpose(
        [
            WorkloadSpec.diurnal("child", 120.0 * DAY_RATE_SCALE),
            WorkloadSpec.ring(
                peak_rate_per_hour=400.0 * DAY_RATE_SCALE,
                n_rings=3,
                ring_delay_hours=0.5,
                attenuation=0.5,
                decay_hours=1.5,
                start_hours=19.0,
            ),
        ]
    )


class Day:
    """One nonstationary day: adaptive-study arms plus the edge hierarchy."""

    name = "day"

    def __init__(self, seed: int, smoke: bool):
        from repro.edge.cache import allocate_prefixes
        from repro.edge.scenario import preset_hierarchy
        from repro.experiments.adaptive import AdaptiveStudyConfig
        from repro.runtime import Engine
        from repro.workload.popularity import ZipfCatalog

        if smoke:
            self.study = AdaptiveStudyConfig(seed=seed).quick()
            self.hierarchy = preset_hierarchy(seed=seed, quick=True)
        else:
            spec = day_workload_spec()
            self.study = AdaptiveStudyConfig(seed=seed, workload=spec)
            stock = preset_hierarchy(seed=seed)
            self.hierarchy = dataclasses.replace(
                stock,
                horizon_slots=int(24 * 3600 / stock.slot_duration),
                workload=spec,
            )
        self.engine = Engine(n_jobs=1, backend="serial")
        scenario = self.hierarchy
        shares = ZipfCatalog(scenario.topology.n_titles, scenario.zipf_theta).probabilities
        allocation = allocate_prefixes(
            scenario.prefix_policy,
            shares,
            scenario.topology.edges[0].cache_segments,
            scenario.n_segments,
        )
        self.expected_hit_ratio = allocation.expected_hit_ratio(shares)

    def run(self, timed) -> Dict:
        from repro.edge.scenario import run_hierarchy
        from repro.experiments.adaptive import run_adaptive_study
        from repro.experiments.runner import clear_trace_cache

        clear_trace_cache()
        study = timed(lambda: run_adaptive_study(self.study, engine=self.engine))
        hierarchy = timed(lambda: run_hierarchy(self.hierarchy))
        decided = hierarchy.hits + hierarchy.misses + hierarchy.bypassed
        return {
            "study": study,
            "hierarchy": hierarchy,
            "requests": study.static.n_requests + study.adaptive.n_requests + decided,
            "counts": {
                "cluster.admitted": hierarchy.cluster.admitted,
                "cluster.rejected": hierarchy.cluster.rejected,
            },
        }

    def check(self, out: Dict, corrupt: bool) -> List[Dict]:
        study, hierarchy = out["study"], out["hierarchy"]
        static_peak = study.static.peak_streams
        adaptive_peak = study.adaptive.peak_streams + (static_peak if corrupt else 0.0)
        arms: List[str] = []
        if not adaptive_peak < static_peak:
            arms.append(f"day: adaptive peak {adaptive_peak} not below static {static_peak}")
        worst = study.adaptive.worst_startup_wait_seconds
        if worst > study.config.deadline_guarantee_seconds:
            arms.append(f"day: worst deferral {worst}s exceeds W")
        edge: List[str] = []
        gap = abs(hierarchy.hit_ratio - self.expected_hit_ratio)
        if gap > 0.05:
            edge.append(
                f"day: hit ratio {hierarchy.hit_ratio} vs expected {self.expected_hit_ratio}"
            )
        return _ops(["arm:static", "arm:adaptive"], arms) + _ops(["hierarchy"], edge)


BATCH = {cls.name: cls for cls in (Sweep, DHBKernel, Day)}
