"""Perf-regression harness: machine-readable timings for the hot paths.

Runs the constructive micro-benches (DHB/UD admission under saturation and
under sparse load), the quick Figure-7 sweep — serial and parallel — and
the cluster, edge, runtime, checkpoint, adaptive and serving quick runs,
and writes ``BENCH_sweep.json`` at the repository root.  Each entry records
the best-of-``repeats`` wall time plus a detail payload, so successive PRs
have a perf trajectory to regress against::

    make bench-json            # or: python benchmarks/perf_report.py
    python benchmarks/perf_report.py --output /tmp/bench.json --repeats 5

``BENCHES`` pairs every bench with the gate rows that
``check_regression.py`` holds a fresh report to; the rows are the one
record of which bench carries which invariant and bound.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import platform
import resource
import sys
import time
from typing import Callable, Dict, NamedTuple, Tuple, Union

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:  # installed package, or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # direct invocation from a source checkout
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from repro.cluster.scenario import (
    preset_scenarios,
    run_scenario,
    run_scenarios,
    scenario_specs,
)
from repro.core.dhb import DHBProtocol
from repro.edge.cache import allocate_prefixes
from repro.edge.scenario import preset_hierarchy, run_hierarchy
from repro.experiments.config import SweepConfig
from repro.experiments.fig7 import FIG7_PROTOCOLS
from repro.experiments.runner import (
    arrivals_for_rate,
    clear_trace_cache,
    measure_protocol,
    sweep_grid,
    sweep_protocols,
)
from repro.protocols.ud import UniversalDistributionProtocol
from repro.runtime import Engine
from repro.sim.slotted import SlottedSimulation
from repro.workload.popularity import ZipfCatalog

#: Quick Figure-7 grid: full protocol set, three rates, short horizons.
QUICK_CONFIG = SweepConfig().quick()


def peak_rss_mb() -> float:
    """Process peak resident-set size in MiB (``ru_maxrss``).

    Linux reports kilobytes, macOS bytes; bench details and their gate
    rows work in MiB.
    """
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0
    return maxrss / divisor


def bench_dhb_saturated() -> Dict[str, float]:
    """2000 saturated admissions into a 99-segment DHB schedule."""
    protocol = DHBProtocol(n_segments=99)
    for slot in range(2000):
        protocol.handle_request(slot)
    return {"requests": 2000, "instances": protocol.schedule.total_instances}


def bench_dhb_cold() -> Dict[str, float]:
    """Sparse admissions (little sharing): the constructive worst case."""
    protocol = DHBProtocol(n_segments=99)
    for slot in range(0, 2000, 40):
        protocol.handle_request(slot)
    return {"requests": 50, "instances": protocol.schedule.total_instances}


def bench_ud_saturated() -> Dict[str, float]:
    """2000 saturated admissions into the 99-segment UD (on-demand FB) map."""
    protocol = UniversalDistributionProtocol(n_segments=99)
    for slot in range(2000):
        protocol.handle_request(slot)
    return {"requests": 2000}


def bench_fig7_quick_serial() -> Dict[str, float]:
    """The quick Figure-7 sweep (4 protocols x 3 rates), serial, cold cache."""
    clear_trace_cache()
    names = [name for name, _ in FIG7_PROTOCOLS]
    series = sweep_protocols(names, QUICK_CONFIG, n_jobs=1)
    return {"points": sum(len(s.points) for s in series)}


def bench_fig7_quick_parallel() -> Dict[str, float]:
    """Same sweep with n_jobs=2; asserts bit-for-bit equality with serial."""
    names = [name for name, _ in FIG7_PROTOCOLS]
    serial = sweep_protocols(names, QUICK_CONFIG, n_jobs=1)
    parallel = sweep_protocols(names, QUICK_CONFIG, n_jobs=2)
    for a, b in zip(serial, parallel):
        if a.points != b.points:
            raise AssertionError(
                f"parallel sweep diverged from serial for {a.protocol!r}"
            )
    return {"points": sum(len(s.points) for s in parallel), "verified": 1}


def bench_dhb_10m() -> Dict[str, float]:
    """One fig7-style DHB point over 10M requests on the columnar path.

    The ROADMAP's production-scale target: a saturated 99-segment DHB
    point whose trace no longer fits a per-request Python loop.  The
    detail records throughput, the measured speedup over the scalar
    baseline on a 200k-request prefix of the same trace, and the process
    peak RSS (the streaming statistics keep the run's footprint at the
    trace itself).
    The scalar baseline is ``columnar=False``: the same driver loop, with
    each slot's batch admitted request by request through
    ``handle_request``, so the ratio isolates batched admission.
    """
    d = 1.0
    horizon = 100_000
    warmup = 1_000
    rng = np.random.default_rng(20260807)
    arrivals = np.sort(rng.uniform(0.0, horizon * d, 10_000_000))
    start = time.perf_counter()
    result = SlottedSimulation(
        DHBProtocol(n_segments=99), d, horizon, warmup
    ).run(arrivals)
    columnar_seconds = time.perf_counter() - start
    if not result.columnar:
        raise AssertionError("10M bench did not take the columnar path")
    # Per-request admission on a prefix at the same saturation density
    # (~100 requests/slot), so the ratio compares per-request costs.
    prefix_slots = 2_000
    prefix = arrivals[: int(np.searchsorted(arrivals, float(prefix_slots)))]
    start = time.perf_counter()
    scalar_result = SlottedSimulation(
        DHBProtocol(n_segments=99), d, prefix_slots, warmup, columnar=False
    ).run(prefix)
    scalar_seconds = time.perf_counter() - start
    columnar_rps = result.n_requests / columnar_seconds
    scalar_rps = scalar_result.n_requests / scalar_seconds
    return {
        "requests": result.n_requests,
        "requests_per_second": round(columnar_rps),
        "speedup_vs_scalar": round(columnar_rps / scalar_rps, 2),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def bench_fig7_columnar() -> Dict[str, float]:
    """The quick Figure-7 sweep, batched vs per-request admission, cross-checked.

    Runs the sweep the normal way (slotted points admit each slot's batch
    through ``handle_batch``) and re-measures every slotted cell with
    ``columnar=False``, which admits the same batches request by request
    inside the same driver loop; fails loudly on any difference, so the
    entry doubles as a bit-for-bit equivalence check (``verified``)
    alongside its timing.
    """
    from repro.protocols.registry import ProtocolContext, build_protocol
    from repro.sim.slotted import SlottedModel

    names = [name for name, _ in FIG7_PROTOCOLS]
    series = sweep_protocols(names, QUICK_CONFIG, n_jobs=1)
    for name, measured in zip(names, series):
        for rate, point in zip(QUICK_CONFIG.rates_per_hour, measured.points):
            context = ProtocolContext(
                n_segments=QUICK_CONFIG.n_segments,
                duration=QUICK_CONFIG.duration,
                rate_per_hour=rate,
            )
            protocol = build_protocol(name, context)
            if not isinstance(protocol, SlottedModel):
                continue
            scalar_point = measure_protocol(
                protocol,
                QUICK_CONFIG,
                rate,
                arrival_times=arrivals_for_rate(QUICK_CONFIG, rate),
                columnar=False,
            )
            if scalar_point != point:
                raise AssertionError(
                    f"columnar sweep diverged from scalar for {name!r} @ {rate}"
                )
    return {
        "points": sum(len(s.points) for s in series),
        "verified": 1,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def bench_cluster_quick() -> Dict[str, float]:
    """The quick baseline cluster scenario (4 capped servers, 6 titles)."""
    scenario = preset_scenarios(quick=True)[0]
    result = run_scenario(scenario)
    return {
        "slots": scenario.horizon_slots,
        "admitted": result.admitted,
        "servers": scenario.topology.n_servers,
    }


def bench_cluster_parallel() -> Dict[str, float]:
    """All three quick scenarios with n_jobs=2; asserts equality with serial."""
    scenarios = preset_scenarios(quick=True)
    serial = run_scenarios(scenarios, n_jobs=1)
    parallel = run_scenarios(scenarios, n_jobs=2)
    for a, b in zip(serial, parallel):
        if a.to_dict() != b.to_dict():
            raise AssertionError(
                f"parallel cluster run diverged from serial for {a.scenario!r}"
            )
    return {
        "scenarios": len(scenarios),
        "admitted": sum(r.admitted for r in parallel),
        "verified": 1,
    }


def bench_edge_quick() -> Dict[str, float]:
    """The quick origin→edge hierarchy (two caching edges over the cluster).

    One ``run_hierarchy`` pass at the stock 25% cache budget.  The detail
    carries the measured cache hit ratio next to the analytic expectation
    (the popularity mass of cached titles), so a gate row can hold the
    simulator to the Zipf arithmetic; another bounds its wall time against
    ``cluster_quick`` — the edge tier must stay a thin layer over the
    pure-cluster run, not a second simulator.
    """
    scenario = preset_hierarchy(quick=True)
    result = run_hierarchy(scenario)
    shares = ZipfCatalog(
        scenario.topology.n_titles, scenario.zipf_theta
    ).probabilities
    allocation = allocate_prefixes(
        scenario.prefix_policy,
        shares,
        scenario.topology.edges[0].cache_segments,
        scenario.n_segments,
    )
    return {
        "slots": scenario.horizon_slots,
        "edges": scenario.topology.n_edges,
        "admitted": result.cluster.admitted,
        "hit_ratio": round(result.hit_ratio, 4),
        "expected_hit_ratio": round(allocation.expected_hit_ratio(shares), 4),
        "origin_mean_streams": round(result.origin_mean_streams, 4),
    }


def bench_runtime_quick() -> Dict[str, float]:
    """A mixed spec batch (sweep cells + cluster scenarios) on one Engine.

    Exercises the unified runtime the way the CLI does: heterogeneous task
    kinds in a single submission, serial vs two workers, with the usual
    bit-for-bit equality assertion.
    """
    names = [name for name, _ in FIG7_PROTOCOLS]
    specs = sweep_grid(names, QUICK_CONFIG) + scenario_specs(
        preset_scenarios(quick=True)
    )
    serial = Engine(n_jobs=1).run_values(specs)
    parallel = Engine(n_jobs=2).run_values(specs)
    for spec, a, b in zip(specs, serial, parallel):
        a_dict = a.to_dict() if hasattr(a, "to_dict") else a
        b_dict = b.to_dict() if hasattr(b, "to_dict") else b
        if a_dict != b_dict:
            raise AssertionError(
                f"parallel runtime diverged from serial for {spec.label!r}"
            )
    return {"specs": len(specs), "verified": 1}


def bench_checkpoint_resume_quick() -> Dict[str, float]:
    """Checkpointed quick sweep: journaling overhead plus a resume check.

    Times the quick Figure-7 grid twice on a serial Engine — bare, then
    journaling every cell into a fresh :class:`CheckpointStore` — and
    records the checkpoint overhead as a percentage.  A third run resumes
    over the journal and must replay every cell without executing any
    (the ``execution_count`` probe), which is what makes the entry
    ``verified``.
    """
    import tempfile

    from repro.runtime import (
        CheckpointStore,
        SerialBackend,
        execution_count,
        reset_execution_count,
    )

    names = [name for name, _ in FIG7_PROTOCOLS]
    specs = sweep_grid(names, QUICK_CONFIG)

    def timed(run):
        start = time.perf_counter()
        value = run()
        return time.perf_counter() - start, value

    def bare_run():
        return Engine(backend=SerialBackend()).run_values(specs)

    def checkpointed():
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(pathlib.Path(tmp) / "bench.ckpt")
            with Engine(backend=SerialBackend(), checkpoint=store) as engine:
                return engine.run_values(specs)

    # Trace caches stay warm across the inner repeats on purpose: both
    # sides then time pure simulation + (for one side) journaling, so the
    # overhead ratio is not swamped by arrival-trace regeneration noise.
    # The bare/checkpointed repeats interleave so background-load drift
    # hits both sides alike instead of biasing the overhead ratio.
    bare_seconds = checkpointed_seconds = float("inf")
    bare = journaled = None
    for _ in range(5):
        seconds, bare = timed(bare_run)
        bare_seconds = min(bare_seconds, seconds)
        seconds, journaled = timed(checkpointed)
        checkpointed_seconds = min(checkpointed_seconds, seconds)
    if journaled != bare:
        raise AssertionError("checkpointed sweep diverged from bare sweep")
    overhead_pct = 100.0 * (checkpointed_seconds - bare_seconds) / bare_seconds

    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(pathlib.Path(tmp) / "bench.ckpt")
        with Engine(backend=SerialBackend(), checkpoint=store) as engine:
            engine.run_values(specs)
        reset_execution_count()
        resume_store = CheckpointStore(pathlib.Path(tmp) / "bench.ckpt")
        with Engine(backend=SerialBackend(), checkpoint=resume_store) as engine:
            resumed = engine.run_values(specs)
    if resumed != bare:
        raise AssertionError("resumed sweep diverged from bare sweep")
    if execution_count() != 0:
        raise AssertionError(
            f"resume re-executed {execution_count()} journaled specs"
        )

    return {
        "specs": len(specs),
        "overhead_pct": round(overhead_pct, 2),
        "verified": 1,
    }


def bench_adaptive_day_quick() -> Dict[str, float]:
    """The quick adaptive-vs-static DHB day study (diurnal + event ring).

    Replays the seeded nonstationary day through both arms serially and
    records the peaks.  ``verified`` requires the study's acceptance
    claim: the adaptive arm's day peak strictly below static DHB's while
    its worst startup deferral stays within the shared deadline guarantee
    ``W = (1 + max_slack) * d``.  A gate row holds its wall time against
    the stationary quick sweep (``fig7_quick_serial``) — nonstationary
    admission must stay on the same hot path, not grow a second simulator.
    """
    from repro.experiments.adaptive import AdaptiveStudyConfig, run_adaptive_study

    clear_trace_cache()
    result = run_adaptive_study(config=AdaptiveStudyConfig().quick())
    return {
        "requests": result.static.n_requests,
        "static_peak": result.static.peak_streams,
        "adaptive_peak": result.adaptive.peak_streams,
        "retunes": result.adaptive.retunes,
        "verified": int(result.verified),
    }


def bench_serve_loopback_quick() -> Dict[str, float]:
    """A live loopback burst through the asyncio serving path.

    Boots a :class:`BroadcastDaemon` on fast 50ms slots, drives 100
    uniform client sessions over two seconds of wall clock, and records
    session throughput and the p99 wait to first segment.  ``verified``
    requires zero dropped sessions *and* the measured wait distribution
    agreeing with the slotted simulator's prediction for the same arrival
    offsets — the same invariant the ``serve-e2e`` CI job gates at scale.
    """
    import asyncio

    from repro.serve import (
        BroadcastDaemon,
        LoadgenConfig,
        ServeConfig,
        compare_with_simulation,
        run_loadgen_async,
    )

    config = ServeConfig(n_segments=6, slot_duration=0.05, segment_bytes=1024)

    async def go():
        daemon = BroadcastDaemon(config)
        await daemon.start()
        host, port = daemon.address
        try:
            return await run_loadgen_async(
                LoadgenConfig(
                    host=host,
                    port=port,
                    clients=100,
                    duration_seconds=2.0,
                    arrivals="uniform",
                    want="first",
                    seed=2001,
                )
            )
        finally:
            await daemon.stop()

    result = asyncio.run(go())
    comparison = compare_with_simulation(result)
    verified = int(result.dropped == 0 and comparison.within_tolerance())
    return {
        "clients": result.completed,
        "clients_per_sec": round(result.clients_per_second, 1),
        "p99_wait_ms": round(result.wait_p99 * 1000.0, 2),
        "verified": verified,
    }


#: Seconds added to both sides of every time ratio, so that benches of a
#: few milliseconds cannot trip a gate on scheduler jitter.
NOISE_FLOOR_SECONDS = 0.005

#: Calibrated fresh/baseline slowdown beyond which any bench fails.
MAX_SLOWDOWN = 2.0

_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


def padded_ratio(seconds: float, reference: float) -> float:
    """``seconds / reference`` with both sides padded by the noise floor."""
    return (seconds + NOISE_FLOOR_SECONDS) / (reference + NOISE_FLOOR_SECONDS)


class Bound(NamedTuple):
    """Gate row: the detail value ``key`` compared with a fixed bound."""

    key: str
    op: str
    bound: float
    label: str

    def check(self, name: str, benches: Dict) -> Tuple[bool, str]:
        value = benches.get(name, {}).get("detail", {}).get(self.key)
        if value is None:
            return False, f"{self.label}: no {self.key} in detail"
        ok = _OPS[self.op](float(value), self.bound)
        return ok, f"{self.label}: {self.key} = {value} (needs {self.op} {self.bound:g})"


class Relative(NamedTuple):
    """Gate row: detail value ``key`` against detail value ``other`` + offset."""

    key: str
    op: str
    other: str
    offset: float
    label: str

    def check(self, name: str, benches: Dict) -> Tuple[bool, str]:
        detail = benches.get(name, {}).get("detail", {})
        value, reference = detail.get(self.key), detail.get(self.other)
        if value is None or reference is None:
            return False, f"{self.label}: no {self.key}/{self.other} in detail"
        limit = float(reference) + self.offset
        ok = _OPS[self.op](float(value), limit)
        return ok, (
            f"{self.label}: {self.key} = {value} "
            f"(needs {self.op} {self.other} {self.offset:+g} = {limit:g})"
        )


class TimeRatio(NamedTuple):
    """Gate row: wall time over bench ``other``'s in the *same* report.

    Both timings come from one machine, so there is no calibration
    scaling; both sides are padded by the noise floor.
    """

    other: str
    ceiling: float
    label: str

    def check(self, name: str, benches: Dict) -> Tuple[bool, str]:
        seconds = benches.get(name, {}).get("seconds")
        reference = benches.get(self.other, {}).get("seconds")
        if seconds is None or reference is None:
            return False, f"{self.label}: missing {name}/{self.other} timings"
        ratio = padded_ratio(float(seconds), float(reference))
        return ratio <= self.ceiling, (
            f"{self.label}: {ratio:.2f}x {self.other} "
            f"against the {self.ceiling:g}x ceiling"
        )


Gate = Union[Bound, Relative, TimeRatio]


class Bench(NamedTuple):
    """A bench and the gate rows a fresh report of it must pass."""

    run: Callable[[], Dict[str, float]]
    gates: Tuple[Gate, ...] = ()


#: Bit-for-bit self-check (serial == parallel, batched == per-request,
#: resumed == bare) or acceptance claim, recorded by the bench itself.
VERIFIED = Bound("verified", "==", 1, "equality invariant")

#: "10M requests in bounded memory" is an acceptance criterion.
MEMORY_CEILING = Bound("peak_rss_mb", "<", 1024.0, "peak RSS (MiB)")

BENCHES: Dict[str, Bench] = {
    "micro_dhb_saturated": Bench(bench_dhb_saturated),
    "micro_dhb_cold": Bench(bench_dhb_cold),
    "micro_ud_saturated": Bench(bench_ud_saturated),
    "micro_dhb_10m": Bench(
        bench_dhb_10m,
        (
            MEMORY_CEILING,
            Bound("speedup_vs_scalar", ">=", 5.0, "columnar speedup over scalar"),
        ),
    ),
    "fig7_quick_serial": Bench(bench_fig7_quick_serial),
    "fig7_quick_parallel": Bench(bench_fig7_quick_parallel, (VERIFIED,)),
    "fig7_columnar": Bench(bench_fig7_columnar, (VERIFIED, MEMORY_CEILING)),
    "cluster_quick": Bench(bench_cluster_quick),
    "cluster_quick_parallel": Bench(bench_cluster_parallel, (VERIFIED,)),
    "edge_quick": Bench(
        bench_edge_quick,
        (
            Relative(
                "hit_ratio", ">=", "expected_hit_ratio", -0.05,
                "hit ratio vs the analytic Zipf expectation",
            ),
            TimeRatio("cluster_quick", 1.5, "edge tier over the cluster loop"),
        ),
    ),
    "runtime_quick": Bench(bench_runtime_quick, (VERIFIED,)),
    "checkpoint_resume_quick": Bench(
        bench_checkpoint_resume_quick,
        (VERIFIED, Bound("overhead_pct", "<", 5.0, "journaling overhead (%)")),
    ),
    "adaptive_day_quick": Bench(
        bench_adaptive_day_quick,
        (
            VERIFIED,
            Relative(
                "adaptive_peak", "<=", "static_peak", 0.0,
                "static/adaptive peaks: adaptive within the static DHB worst case",
            ),
            TimeRatio("fig7_quick_serial", 1.5, "nonstationary day over the sweep"),
        ),
    ),
    # The p99 bound is 1.5x the bench's 50 ms slot: DHB's one-slot wait
    # bound plus scheduling slack.
    "serve_loopback_quick": Bench(
        bench_serve_loopback_quick,
        (
            VERIFIED,
            Bound("clients_per_sec", ">=", 25.0, "throughput (clients/sec)"),
            Bound("p99_wait_ms", "<=", 75.0, "p99 wait to first segment (ms)"),
        ),
    ),
}


def calibrate() -> float:
    """Best-of-3 wall time of a fixed CPU-bound spin loop, in seconds.

    The loop does the same arithmetic everywhere, so its timing is a pure
    measure of single-core speed on the machine that produced a report.
    ``check_regression.py`` divides two reports' calibrations to normalize
    bench timings taken on different hardware before comparing them.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i & 0xFFFF
        best = min(best, time.perf_counter() - start)
    return best


def time_bench(
    bench: Callable[[], Dict[str, float]], repeats: int
) -> Tuple[float, Dict[str, float]]:
    """Best-of-``repeats`` wall time (and the final run's detail payload)."""
    best = float("inf")
    detail: Dict[str, float] = {}
    for _ in range(repeats):
        start = time.perf_counter()
        detail = bench()
        best = min(best, time.perf_counter() - start)
    return best, detail


def run_report(repeats: int) -> Dict[str, object]:
    benches: Dict[str, object] = {}
    for name, bench in BENCHES.items():
        seconds, detail = time_bench(bench.run, repeats)
        benches[name] = {"seconds": round(seconds, 6), "detail": detail}
        print(f"{name:28s} {seconds * 1000:10.2f} ms  {detail}")
    calibration = calibrate()
    print(f"{'calibration':28s} {calibration * 1000:10.2f} ms  (spin-loop)")
    return {
        "schema": 1,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "calibration_seconds": round(calibration, 6),
        "benches": benches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=_REPO_ROOT / "BENCH_sweep.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repetitions per bench"
    )
    args = parser.parse_args(argv)
    report = run_report(max(1, args.repeats))
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
