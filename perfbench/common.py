"""Shared pieces of the benchmark: metric tables, the source bootstrap and
small statistics helpers used by the orchestrator and its child processes.

Every process the benchmark starts imports this module first.  It puts the
checkout's ``src/`` directory on ``sys.path`` and refuses to run without it,
so the benchmark always measures the source tree it ships with.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import resource
import signal
import sys
import time
from typing import Dict, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

#: The workload seed the pinned results and the rendered figures refer to.
DEFAULT_SEED = 2001
#: Seed held out for later performance claims: tune nothing on it.
HELD_OUT_SEED = 4242

WORKLOADS = ("sweep", "dhb_kernel", "day", "serve")

#: End-to-end metrics (tracing off), emitted on every workload.
#: A "unit" of work is one request delivered to a protocol or tier on the
#: batch workloads, and one SEGMENT frame delivered on ``serve``.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "cpu_us_per_unit": "us",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced run), emitted on every workload; a layer the
#: workload does not exercise reads 0.
PER_LAYER = {
    "workload.generate_s": "s",
    "workload.arrivals": "count",
    "runtime.dispatch_self_s": "s",
    "runtime.specs": "count",
    "runtime.cache_hit_ratio": "fraction",
    "runtime.cache_lookups": "count",
    "runtime.payload_bytes": "bytes",
    "obs.merge_s": "s",
    "obs.merges": "count",
    "sim.slotted_self_s": "s",
    "sim.slots": "count",
    "sim.occupied_slots": "count",
    "sim.continuous_self_s": "s",
    "core.admit_s": "s",
    "core.admissions": "count",
    "core.requests": "count",
    "core.instances": "count",
    "core.instances_per_request": "ratio",
    "core.adaptive_admit_s": "s",
    "core.retunes": "count",
    "core.suffix_admit_s": "s",
    "protocols.reactive_s": "s",
    "protocols.map_admit_s": "s",
    "cluster.route_s": "s",
    "cluster.admit_s": "s",
    "cluster.finalize_s": "s",
    "cluster.admitted": "count",
    "cluster.rejected": "count",
    "edge.admit_s": "s",
    "edge.decisions": "count",
    "edge.hit_ratio": "fraction",
    "edge.deferred_joins": "count",
    "serve.encode_s": "s",
    "serve.daemon_cpu_us_per_frame": "us",
    "serve.daemon_sys_frac": "fraction",
    "serve.tick_lag_ms_mean": "ms",
    "serve.tick_lag_ms_max": "ms",
    "serve.frames_sent": "count",
    "serve.evicted": "count",
    "serve.frames": "count",
    "serve.lateness_ms_p50": "ms",
    "serve.lateness_ms_p99": "ms",
    "serve.late_frac": "fraction",
    "serve.sessions": "count",
    "serve.handshake_ms_p50": "ms",
    "serve.client_read_s": "s",
    "serve.client_cpu_frac": "fraction",
    "tracing.overhead_frac": "fraction",
}


def bootstrap_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no source tree at {src}; run from a full checkout\n"
        )
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def emit(event: str, **fields) -> None:
    """One JSON line on stdout: how child processes talk to the orchestrator."""
    fields["event"] = event
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of no values")
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[index])


def supported_percentile(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond the q-quantile."""
    return n * (1.0 - q) >= 10.0


def cpu_times() -> Tuple[float, float]:
    """(user, system) CPU seconds of this process, at microsecond resolution."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def cpu_seconds() -> float:
    """User + system CPU of this process so far."""
    return sum(cpu_times())


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measuring_cpus() -> Tuple[int, int]:
    """(core for the measured process and its speed probes, core for the
    load generator).

    The host's cores change speed independently of each other, so a probe
    tells how fast a process ran only when both ran on the same core.
    """
    cores = sorted(os.sched_getaffinity(0))
    return cores[0], cores[-1]


#: Time the probe loop takes on the reference host the timed metrics are
#: scaled to.
PROBE_REFERENCE_S = 0.0015
#: Seconds between two probes while a timed step runs.
PROBE_INTERVAL_S = 0.1


def probe_loop() -> None:
    """A fixed ~2 ms slice of interpreter work: float math, dict and list ops."""
    table = {}
    out = []
    for i in range(4000):
        x = math.exp(-0.5 * (i % 97) / 13.0) * math.sin(i * 0.01)
        table[i % 100] = x
        out.append(x * 2.0)
    out.sort()


def probe_seconds(repeats: int = 21) -> float:
    """Mean wall time of :func:`probe_loop`: the host's speed right now.

    A mean, not a median: the host flips between a fast and a slow state,
    and the time-weighted speed is what a timed step experiences.
    """
    start = time.perf_counter()
    for _ in range(repeats):
        probe_loop()
    return (time.perf_counter() - start) / repeats


class SpeedProbe:
    """Samples the host's speed while the benchmark's own code runs.

    The host this benchmark runs on changes speed by tens of percent within
    a second, under load it does not control.  While started, a timer
    signal interrupts the main thread every :data:`PROBE_INTERVAL_S` and
    runs :func:`probe_loop` once.  The probes' mean time over a timed step
    says how fast the host ran that step, so a timed metric is taken as
    ``measured * PROBE_REFERENCE_S / mean probe``: it reads as if the host
    always ran at the reference speed.  The probes' own wall and CPU time
    are subtracted from the step; ``on_probe(seconds)`` lets a tracer
    charge them to a span of their own.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.durations = []
        self.wall = 0.0
        self.cpu = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu0 = time.process_time()
        probe_loop()
        self.durations.append(time.perf_counter() - start)
        self.cpu += time.process_time() - cpu0
        spent = time.perf_counter() - start
        self.wall += spent
        if self.on_probe is not None:
            self.on_probe(spent)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> Tuple[int, float, float]:
        return len(self.durations), self.wall, self.cpu

    def since(self, mark: Tuple[int, float, float]) -> Tuple[float, float, float]:
        """(scale factor, probe wall, probe CPU) for the samples after ``mark``.

        A step too short to be probed is scaled by a probe taken now.
        """
        count, wall, cpu = mark
        samples = self.durations[count:]
        speed = sum(samples) / len(samples) if samples else probe_seconds(5)
        return PROBE_REFERENCE_S / speed, self.wall - wall, self.cpu - cpu


def scaled_rate(passes: Sequence[Dict]) -> float:
    """Median requests per second over passes, scaled to the reference host."""
    return median([p["requests"] / p["scaled_wall"] for p in passes])


def scaled_cost_us(passes: Sequence[Dict]) -> float:
    """Median CPU microseconds per request over passes, scaled likewise."""
    return median([p["scaled_cpu"] / p["requests"] * 1e6 for p in passes])


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict]:
    """``{name: {"value", "unit"}}`` for exactly the names in ``units``."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
