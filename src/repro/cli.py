"""Command-line interface: regenerate any paper figure as a printed table.

Usage::

    repro-cli figures          # Figures 1-5 (exact schedule maps)
    repro-cli fig7 [--quick]   # average bandwidth sweep
    repro-cli fig8 [--quick]   # maximum bandwidth sweep
    repro-cli fig9 [--quick]   # compressed-video sweep (MB/s)
    repro-cli ablations [--quick]
    repro-cli variants         # the Section 4 DHB-a..d derivation table
    repro-cli cluster [--quick] [--scenario baseline|skewed|crash|all]
    repro-cli edge [--quick] [--cache-budget F] [--prefix-policy P] [--classes SPEC]
    repro-cli adaptive-study [--quick] [--workload SPEC]  # adaptive vs static DHB day
    repro-cli worker --connect HOST:PORT   # join a socket coordinator
    repro-cli serve [--bind HOST:PORT] [--replicas N]   # live VOD daemon
    repro-cli loadgen --connect HOST:PORT [--clients N] [--duration S]

``--quick`` shrinks horizons and the rate grid for smoke runs; the defaults
match the paper's 1–1000 requests/hour sweep.  ``--seed`` changes the
workload seed.  ``--workload SPEC`` swaps the seeded Poisson demand for a
nonstationary arrival process anywhere demand is consumed (see
``docs/WORKLOADS.md`` for the grammar): repeat it to sweep fig7/fig8 over
several workloads, or give it once to reshape cluster/edge/loadgen demand
or the ``adaptive-study`` day.  ``adaptive-study`` replays one seeded
diurnal+flash day through static DHB and the retuning
``AdaptiveDHBProtocol`` and reports the hour-by-hour peak comparison.
``cluster`` runs the multi-server scenarios of
``docs/CLUSTER.md`` (``--scenario`` picks one; the default runs all three).
``edge`` runs the origin→edge hierarchy budget study of ``docs/EDGE.md``:
backbone bandwidth saved vs pure DHB broadcast across per-edge cache
budgets, with the analytic bound overlaid (``--cache-budget`` highlights
one fraction, ``--prefix-policy`` picks the allocation policy,
``--classes name:weight:share,...`` overrides the traffic classes).

Execution is pluggable (results are bit-for-bit identical on every
backend — see ``docs/ARCHITECTURE.md``)::

    repro-cli fig7 --workers 4                      # local process pool
    repro-cli fig7 --backend socket --workers 2     # 2 loopback socket workers
    repro-cli fig7 --backend socket --bind 0.0.0.0:9000 --workers 2
    repro-cli worker --connect coordinator-host:9000

``--workers N`` (alias ``--jobs``) sizes the engine (``-1`` = all cores;
default: the ``REPRO_SWEEP_JOBS`` environment variable, else serial).
``--backend`` picks serial / process / socket explicitly.  With
``--backend socket`` the command spawns its own loopback workers unless
``--bind`` is given, in which case it waits for ``--workers`` external
``repro-cli worker`` processes to register.

Long sweeps survive interruption with a checkpoint journal::

    repro-cli fig7 --checkpoint fig7.ckpt       # journal as results land
    repro-cli fig7 --checkpoint fig7.ckpt       # re-run: completed cells skipped
    repro-cli fig7 --checkpoint fig7.ckpt --resume  # same, but requires the file

Completed cells are keyed by a content digest of their spec, so a resumed
run reproduces the uninterrupted run's output exactly without re-executing
finished work (``--resume`` merely *insists* the journal already exists).

The measured commands (fig7, fig8, fig9, cluster) also accept
observability outputs (see ``docs/OBSERVABILITY.md`` for the schemas)::

    repro-cli fig7 --quick --metrics-out run.json --trace-out trace.jsonl
    repro-cli cluster --quick --scenario crash --metrics-out run.json

``--metrics-out`` writes a JSON document with the run manifest (protocols,
parameters, seed, git SHA, versions, duration, peak RSS) and every metric
the layers emitted; ``--trace-out`` streams one JSON line per simulated
slot (slot index, scheduled instances, load, active streams).

The live serving pair (see ``docs/SERVING.md``)::

    repro-cli serve --bind 127.0.0.1:8471 --replicas 2 --serve-seconds 30
    repro-cli loadgen --connect 127.0.0.1:8471 --clients 500 --duration 10 \\
        --max-dropped 0 --p99-bound 0.375 --compare-sim

``serve`` prints ``serving on HOST:PORT`` once the daemon is listening
(with ``--replicas N`` that is a controller redirecting clients across N
replica daemons) and runs until ``--serve-seconds`` elapses or SIGINT.
``loadgen`` drives a client schedule against it, prints a JSON summary,
and exits non-zero when a ``--max-dropped``/``--p99-bound`` gate or the
``--compare-sim`` simulator-agreement check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from dataclasses import asdict, replace
from typing import Dict, Iterator, List, Optional, Sequence

from .analysis.tables import format_series_table, format_simple_table
from .cluster.scenario import preset_scenarios, run_scenarios
from .core.variants import make_all_variants
from .experiments.ablations import (
    heuristic_ablation,
    peak_demonstration,
    sharing_ablation,
    slack_dial_ablation,
)
from .experiments.catalog import run_catalog
from .experiments.config import SweepConfig
from .experiments.fig7 import FIG7_PROTOCOLS, report_fig7, run_fig7
from .experiments.fig8 import FIG8_PROTOCOLS, report_fig8, run_fig8
from .experiments.fig9 import FIG9_MAX_WAIT, FIG9_SERIES, report_fig9, run_fig9
from .cluster.routing import ROUTER_NAMES
from .errors import ReproError
from .obs.trace import JsonlTraceSink, Observation
from .runtime import CheckpointStore, Engine, RunSpec, observed_run
from .units import KILOBYTE
from .video.matrix import matrix_like_video
from .workload.spec import parse_workload

#: Commands that run measured sweeps and accept --metrics-out/--trace-out.
OBSERVABLE_COMMANDS = frozenset(
    {"fig7", "fig8", "fig9", "cluster", "edge", "loadgen", "adaptive-study"}
)

#: Commands that accept --workload SPEC (fig7/fig8 accept it repeatedly).
WORKLOAD_COMMANDS = frozenset(
    {"fig7", "fig8", "cluster", "edge", "loadgen", "adaptive-study"}
)

#: Cluster scenario names accepted by --scenario ("all" runs every preset).
CLUSTER_SCENARIOS = ("baseline", "skewed", "crash")


def _config(args: argparse.Namespace) -> SweepConfig:
    config = SweepConfig(seed=args.seed)
    if args.quick:
        config = config.quick()
    if args.workload:
        config = replace(
            config,
            workloads=tuple(parse_workload(spec) for spec in args.workload),
        )
    return config


def _engine(args: argparse.Namespace) -> Engine:
    """The command's execution engine, built from the backend/worker flags.

    ``--backend socket`` without ``--bind`` spawns its own loopback
    workers; with ``--bind`` it listens there and waits for ``--workers``
    external ``repro-cli worker`` registrations.  ``--checkpoint`` attaches
    a :class:`~repro.runtime.CheckpointStore` journaling every completed
    cell.  Commands close the engine (workers, journal) when done.
    """
    backend = args.backend
    if backend == "socket":
        from .runtime.backends import SocketWorkerBackend, parse_address

        workers = max(1, args.jobs if args.jobs is not None else 1)
        timeout = (
            {"register_timeout": args.register_timeout}
            if args.register_timeout is not None
            else {}
        )
        if args.bind:
            host, port = parse_address(args.bind)
            backend = SocketWorkerBackend(
                host=host, port=port, min_workers=workers, **timeout
            )
        else:
            backend = SocketWorkerBackend(spawn_workers=workers, **timeout)
    checkpoint = CheckpointStore(args.checkpoint) if args.checkpoint else None
    return Engine(n_jobs=args.jobs, backend=backend, checkpoint=checkpoint)


class _ObservedRun:
    """The disabled observability session (neither output flag given)."""

    def __init__(self, observation: Optional[Observation]):
        self.observation = observation


@contextlib.contextmanager
def _observed(
    args: argparse.Namespace,
    experiment: str,
    protocols: Sequence[str],
    params: Dict,
    seed: int,
) -> Iterator[_ObservedRun]:
    """Wire up --metrics-out/--trace-out for one measured command.

    Thin CLI shell over :func:`repro.runtime.observed_run` — the runtime
    owns the registry/manifest/trace wiring; this adds only the file
    outputs.  ``params`` is the JSON-safe parameter record for the
    manifest.  Yields a run whose ``observation`` is ``None`` when neither
    flag was given (runs then execute with observability off).  On exit,
    the manifest is completed, the trace sink closed, and the metrics
    document written.
    """
    if not (args.metrics_out or args.trace_out):
        yield _ObservedRun(None)
        return
    sink = JsonlTraceSink(args.trace_out) if args.trace_out else None
    try:
        with observed_run(
            experiment, protocols=protocols, params=params, seed=seed, trace=sink
        ) as run:
            yield run
    finally:
        if sink is not None:
            sink.close()
    if args.metrics_out:
        document = run.metrics_document()
        document["trace"] = (
            {"path": str(args.trace_out), "records": sink.records_written}
            if sink is not None
            else None
        )
        pathlib.Path(args.metrics_out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )


def _cmd_figures(args: argparse.Namespace) -> str:
    specs = [RunSpec("figure-render", (), label="figures 1-5")]
    with _engine(args) as engine:
        return engine.run_values(specs)[0]


def _cmd_fig7(args: argparse.Namespace) -> str:
    config = _config(args)
    labels = [label for _, label in FIG7_PROTOCOLS]
    with _observed(args, "fig7", labels, asdict(config), config.seed) as run:
        with _engine(args) as engine:
            return report_fig7(
                run_fig7(config, observation=run.observation, engine=engine)
            )


def _cmd_fig8(args: argparse.Namespace) -> str:
    config = _config(args)
    labels = [label for _, label in FIG8_PROTOCOLS]
    with _observed(args, "fig8", labels, asdict(config), config.seed) as run:
        with _engine(args) as engine:
            return report_fig8(
                run_fig8(config, observation=run.observation, engine=engine)
            )


def _cmd_fig9(args: argparse.Namespace) -> str:
    config = _config(args)
    labels = list(FIG9_SERIES)
    with _observed(args, "fig9", labels, asdict(config), config.seed) as run:
        with _engine(args) as engine:
            return report_fig9(
                run_fig9(config, observation=run.observation, engine=engine)
            )


def _cmd_variants(args: argparse.Namespace) -> str:
    video = matrix_like_video()
    variants = make_all_variants(video, FIG9_MAX_WAIT)
    rows = []
    for name in ("DHB-a", "DHB-b", "DHB-c", "DHB-d"):
        variant = variants[name]
        rows.append(
            [
                name,
                variant.n_segments,
                f"{variant.stream_rate / KILOBYTE:.0f}",
                f"{variant.periods.saturation_bandwidth * variant.stream_rate / KILOBYTE:.0f}",
            ]
        )
    header = (
        "Section 4 derivation on the Matrix-calibrated trace "
        f"(duration {video.duration:.0f}s, avg "
        f"{video.average_bandwidth / KILOBYTE:.0f} KB/s, peak "
        f"{video.peak_bandwidth() / KILOBYTE:.0f} KB/s)\n"
        "(paper: DHB-a 137 segs @951, DHB-b @789, DHB-c 129 segs @671)\n"
    )
    return header + format_simple_table(
        ["variant", "segments", "stream KB/s", "saturation KB/s"], rows
    )


def _cmd_ablations(args: argparse.Namespace) -> str:
    config = _config(args)
    with _engine(args) as engine:
        return _render_ablations(config, engine)


def _render_ablations(config: SweepConfig, engine: Engine) -> str:
    parts: List[str] = []
    heuristic_series = heuristic_ablation(config, engine=engine)
    parts.append("Heuristic ablation (mean streams):")
    parts.append(format_series_table(heuristic_series, value="mean"))
    parts.append("")
    parts.append("Heuristic ablation (max streams):")
    parts.append(format_series_table(heuristic_series, value="max", precision=0))
    parts.append("")
    parts.append("Sharing ablation (mean streams):")
    parts.append(format_series_table(sharing_ablation(config, engine=engine), value="mean"))
    parts.append("")
    slack_series = slack_dial_ablation(config, engine=engine)
    parts.append("Slack-dial ablation (mean streams):")
    parts.append(format_series_table(slack_series, value="mean"))
    parts.append("Slack-dial ablation (max streams):")
    parts.append(format_series_table(slack_series, value="max", precision=0))
    parts.append("")
    peak = peak_demonstration()
    parts.append("Peak demonstration (one request per slot, 40 segments):")
    rows = [
        [label, f"{stats['mean_streams']:.2f}", f"{stats['max_streams']:.0f}"]
        for label, stats in peak.items()
    ]
    parts.append(format_simple_table(["chooser", "mean", "max"], rows))
    return "\n".join(parts)


def _cmd_cluster(args: argparse.Namespace) -> str:
    scenarios = preset_scenarios(seed=args.seed, quick=args.quick)
    if args.scenario != "all":
        scenarios = [s for s in scenarios if s.name == args.scenario]
    if args.workload:
        workload = parse_workload(args.workload[0])
        scenarios = [replace(s, workload=workload) for s in scenarios]
    labels = [scenario.name for scenario in scenarios]
    params = {
        "quick": args.quick,
        "scenario": args.scenario,
        "scenarios": labels,
        "protocol": scenarios[0].protocol,
    }
    if args.workload:
        params["workload"] = scenarios[0].workload.label()
    with _observed(args, "cluster", labels, params, args.seed) as run:
        with _engine(args) as engine:
            results = run_scenarios(
                scenarios, observation=run.observation, engine=engine
            )
    parts = []
    for scenario, result in zip(scenarios, results):
        parts.append(
            f"[{scenario.name}] {scenario.topology.n_servers} servers x "
            f"{scenario.topology.spec_of(0).capacity} channels, "
            f"{scenario.topology.n_titles} titles, router {scenario.router}"
        )
        parts.append(result.render())
        parts.append("")
    return "\n".join(parts).rstrip()


def _cmd_catalog(args: argparse.Namespace) -> str:
    config = SweepConfig(seed=args.seed).quick(
        base_hours=10.0 if not args.quick else 3.0,
        min_requests=60 if not args.quick else 15,
    )
    with _engine(args) as engine:
        result = run_catalog(
            n_videos=10, total_rate_per_hour=300.0, config=config, engine=engine
        )
    header = (
        "Catalog provisioning: 10 titles, Zipf(1.0) popularity, "
        "300 requests/hour total\n"
    )
    return header + result.render()


def _cmd_edge(args: argparse.Namespace) -> str:
    """Run the origin→edge budget study and summarize the focus budget."""
    from .edge import DEFAULT_CLASSES, parse_classes, preset_hierarchy
    from .edge.study import DEFAULT_FRACTIONS, run_budget_study

    fraction = args.cache_budget if args.cache_budget is not None else 0.25
    policy = args.prefix_policy or "popularity"
    classes = parse_classes(args.classes) if args.classes else DEFAULT_CLASSES
    base = preset_hierarchy(
        seed=args.seed,
        quick=args.quick,
        cache_fraction=fraction,
        prefix_policy=policy,
        classes=classes,
    )
    if args.workload:
        base = replace(base, workload=parse_workload(args.workload[0]))
    fractions = tuple(sorted(set(DEFAULT_FRACTIONS) | {fraction}))
    params = {
        "quick": args.quick,
        "cache_budget": fraction,
        "prefix_policy": policy,
        "classes": [cls.name for cls in classes],
    }
    if args.workload:
        params["workload"] = base.workload.label()
    with _observed(args, "edge", [base.name], params, args.seed) as run:
        with _engine(args) as engine:
            study = run_budget_study(
                base,
                fractions=fractions,
                observation=run.observation,
                engine=engine,
            )
    focus_segments = base.topology.edges[0].cache_segments
    focus = next(
        point for point in study.points if point.cache_segments == focus_segments
    )
    origin = base.topology.origin
    header = (
        f"[{base.name}] origin {origin.n_servers} servers x "
        f"{origin.spec_of(0).capacity} channels, {origin.n_titles} titles; "
        f"{base.topology.n_edges} edges, policy {policy}, "
        f"Zipf({base.zipf_theta})"
    )
    summary = (
        f"at {fraction:.0%} budget ({focus.cache_segments} segments/edge): "
        f"hit ratio {focus.hit_ratio:.3f}, backbone bandwidth saved "
        f"{focus.saved_text()} (analytic bound {focus.theory_bound:.1%}); "
        f"{focus.joins_deferred} origin joins deferred, {focus.joins_dropped} "
        f"dropped at the horizon; deferral median "
        f"{focus.median_deferral_slots}, p99 {focus.p99_deferral_slots}, "
        f"longest {focus.max_deferral_slots} slot(s)"
    )
    return "\n".join([header, study.render(), summary])


def _cmd_serve(args: argparse.Namespace) -> str:
    """Run a live broadcast daemon (or controller + replicas) until told to stop."""
    import asyncio
    import contextlib
    import signal

    from .runtime.backends import parse_address
    from .serve import BroadcastDaemon, ServeConfig, serve_cluster

    overrides = {
        name: value
        for name, value in (
            ("n_segments", args.segments),
            ("slot_duration", args.slot_duration),
            ("segment_bytes", args.segment_bytes),
            ("queue_frames", args.queue_frames),
        )
        if value is not None
    }
    config = ServeConfig(**overrides)
    replicas = args.replicas if args.replicas is not None else 0
    host, port = parse_address(args.bind) if args.bind else ("127.0.0.1", 0)

    async def _serve() -> None:
        if replicas > 0:
            unit = await serve_cluster(
                config, replicas, host=host, port=port,
                router_name=args.router or "least-loaded",
            )
        else:
            unit = BroadcastDaemon(config, host=host, port=port)
            await unit.start()
        bound_host, bound_port = unit.address
        print(f"serving on {bound_host}:{bound_port}", flush=True)
        # A signal-driven stop event makes the shutdown graceful under
        # SIGTERM too — backgrounded daemons in non-interactive shells
        # (CI steps) often inherit SIGINT as ignored, so `kill PID` must
        # take the same FIN-every-session path as Ctrl-C.
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue
            handled.append(signum)
        try:
            if args.serve_seconds is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        stop_event.wait(), args.serve_seconds
                    )
            else:
                await stop_event.wait()
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)
            await unit.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return "serve: shut down cleanly"


def _cmd_loadgen(args: argparse.Namespace) -> str:
    """Drive a client schedule against a live daemon; print a JSON summary."""
    import asyncio

    from .errors import ServeError
    from .runtime.backends import parse_address
    from .serve import (
        LoadgenConfig,
        assert_gates,
        compare_with_simulation,
        run_loadgen_async,
    )

    host, port = parse_address(args.connect)
    config = LoadgenConfig(
        host=host,
        port=port,
        clients=args.clients if args.clients is not None else 100,
        duration_seconds=args.duration if args.duration is not None else 5.0,
        arrivals=args.arrivals or "poisson",
        seed=args.seed,
        want=args.want or "first",
        workload=args.workload[0] if args.workload else None,
    )
    params = {
        "clients": config.clients,
        "duration_seconds": config.duration_seconds,
        "arrivals": config.arrivals,
        "workload": config.workload,
        "want": config.want,
        "target": f"{host}:{port}",
    }
    with _observed(args, "loadgen", ["dhb"], params, args.seed) as run:
        observation = run.observation
        result = asyncio.run(
            run_loadgen_async(
                config,
                metrics=observation.metrics if observation else None,
                trace=observation.trace if observation else None,
            )
        )
    document = result.to_dict()
    comparison = None
    if args.compare_sim:
        comparison = compare_with_simulation(result)
        document["simulation"] = comparison.to_dict()
    output = json.dumps(document, indent=2, sort_keys=True)
    # Gates run after the summary is assembled so a failure still shows it.
    try:
        assert_gates(
            result, max_dropped=args.max_dropped, p99_bound=args.p99_bound
        )
        if comparison is not None and not comparison.within_tolerance():
            raise ServeError(
                "loadgen gate failed: served waits disagree with the slotted "
                f"simulator beyond tolerance: {comparison.to_dict()}"
            )
    except ServeError:
        print(output, flush=True)
        raise
    return output


def _cmd_adaptive_study(args: argparse.Namespace) -> str:
    """Replay one nonstationary day through static and adaptive DHB."""
    from .experiments.adaptive import AdaptiveStudyConfig, run_adaptive_study

    config = AdaptiveStudyConfig(seed=args.seed)
    if args.quick:
        config = config.quick()
    if args.workload:
        config = replace(config, workload=parse_workload(args.workload[0]))
    params = {
        "quick": args.quick,
        "workload": config.workload.label(),
        "n_segments": config.n_segments,
        "epoch_slots": config.epoch_slots,
        "slack_ladder": [list(rung) for rung in config.slack_ladder],
    }
    with _observed(args, "adaptive-study", ["static", "adaptive"], params, args.seed) as run:
        with _engine(args) as engine:
            result = run_adaptive_study(
                config=config, observation=run.observation, engine=engine
            )
    return result.render()


_COMMANDS = {
    "figures": _cmd_figures,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "variants": _cmd_variants,
    "ablations": _cmd_ablations,
    "catalog": _cmd_catalog,
    "cluster": _cmd_cluster,
    "edge": _cmd_edge,
    "adaptive-study": _cmd_adaptive_study,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description=(
            "Regenerate the figures of 'A Dynamic Heuristic Broadcasting "
            "Protocol for Video-on-Demand' (ICDCS 2001)."
        ),
    )
    parser.add_argument(
        "command",
        choices=sorted([*_COMMANDS, "worker"]),
        help=(
            "what to run (worker: join a socket coordinator; "
            "serve/loadgen: the live serving pair)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="short horizons / few rates"
    )
    parser.add_argument("--seed", type=int, default=2001, help="workload seed")
    parser.add_argument(
        "--workload",
        action="append",
        metavar="SPEC",
        default=None,
        help=(
            "nonstationary workload spec, e.g. diurnal:child,peak=120, "
            "flash:peak=400,decay=1.5,start=19, mmpp:rates=20|200,sojourn=2|0.5, "
            "trace:FILE, or parts joined with '+' (see docs/WORKLOADS.md); "
            "repeat to sweep fig7/fig8 over several workloads, give once "
            "for cluster/edge/loadgen/adaptive-study"
        ),
    )
    parser.add_argument(
        "--jobs",
        "--workers",
        dest="jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "workers for the execution engine "
            "(default: REPRO_SWEEP_JOBS or serial; -1 = all cores)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "process", "socket"),
        default=None,
        help=(
            "execution backend (default: REPRO_BACKEND, else picked from "
            "the worker count); results are identical on every backend"
        ),
    )
    parser.add_argument(
        "--bind",
        metavar="HOST:PORT",
        default=None,
        help=(
            "with --backend socket: listen here and wait for --workers "
            "external 'repro-cli worker' registrations instead of "
            "spawning loopback workers; with serve: the daemon's "
            "listening address (default 127.0.0.1 on an ephemeral port)"
        ),
    )
    parser.add_argument(
        "--register-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --backend socket: seconds to wait for worker "
            "registrations before erroring out (default 60)"
        ),
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help=(
            "worker: the coordinator to register with; "
            "loadgen: the daemon or controller to drive"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "journal completed cells here and skip ones already journaled "
            "(append-only; safe to re-run after an interruption)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="require --checkpoint PATH to already exist (strict resume)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a run manifest + metrics JSON document (fig7/fig8/fig9)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="stream per-slot JSONL trace records (fig7/fig8/fig9/cluster)",
    )
    parser.add_argument(
        "--scenario",
        choices=(*CLUSTER_SCENARIOS, "all"),
        default="all",
        help="which cluster preset to run (cluster command only)",
    )
    edge = parser.add_argument_group("edge (see docs/EDGE.md)")
    edge.add_argument(
        "--cache-budget",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "per-edge prefix-cache budget as a fraction of the catalog's "
            "segments (default 0.25); always added to the study sweep"
        ),
    )
    edge.add_argument(
        "--prefix-policy",
        choices=("popularity", "uniform", "proportional"),
        default=None,
        help="cache allocation policy (default popularity)",
    )
    edge.add_argument(
        "--classes",
        metavar="SPEC",
        default=None,
        help=(
            "traffic classes as name:weight:uplink_share,... "
            "(default premium:7:0.7,best-effort:3:0.3)"
        ),
    )
    serve = parser.add_argument_group("serve (see docs/SERVING.md)")
    serve.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="front N replica daemons with a redirecting controller (default 0)",
    )
    serve.add_argument(
        "--router",
        choices=ROUTER_NAMES,
        default=None,
        help="controller routing policy with --replicas (default least-loaded)",
    )
    serve.add_argument(
        "--segments",
        type=int,
        default=None,
        metavar="N",
        help="segments per video (default 12)",
    )
    serve.add_argument(
        "--slot-duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock slot length d, the DHB wait bound (default 0.25)",
    )
    serve.add_argument(
        "--segment-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="payload bytes per segment frame (default 1024)",
    )
    serve.add_argument(
        "--queue-frames",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-session send-queue bound before slow-client eviction "
            "(default: REPRO_SERVE_QUEUE_FRAMES or 64)"
        ),
    )
    serve.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long then stop (default: until SIGINT)",
    )
    loadgen = parser.add_argument_group("loadgen")
    loadgen.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="N",
        help="target client sessions (default 100)",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds the arrival schedule spans (default 5)",
    )
    loadgen.add_argument(
        "--arrivals",
        choices=("poisson", "uniform"),
        default=None,
        help="arrival schedule shape (default poisson)",
    )
    loadgen.add_argument(
        "--want",
        choices=("first", "all"),
        default=None,
        help=(
            "leave after the first segment (wait measurement only) or "
            "stay for the whole video (default first)"
        ),
    )
    loadgen.add_argument(
        "--max-dropped",
        type=int,
        default=None,
        metavar="N",
        help="gate: fail when more than N sessions drop",
    )
    loadgen.add_argument(
        "--p99-bound",
        type=float,
        default=None,
        metavar="SECONDS",
        help="gate: fail when the p99 wait exceeds this bound",
    )
    loadgen.add_argument(
        "--compare-sim",
        action="store_true",
        help=(
            "replay the same arrivals through the slotted simulator and "
            "fail when served waits disagree beyond tolerance"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "worker":
        if not args.connect:
            parser.error("worker requires --connect HOST:PORT")
        from .runtime.backends import worker_main

        return worker_main(args.connect)
    if args.command == "loadgen" and not args.connect:
        parser.error("loadgen requires --connect HOST:PORT")
    if args.connect and args.command != "loadgen":
        parser.error("--connect only applies to the worker and loadgen commands")
    if (args.metrics_out or args.trace_out) and args.command not in OBSERVABLE_COMMANDS:
        parser.error(
            f"--metrics-out/--trace-out only apply to "
            f"{'/'.join(sorted(OBSERVABLE_COMMANDS))}, not {args.command!r}"
        )
    if args.scenario != "all" and args.command != "cluster":
        parser.error("--scenario only applies to the cluster command")
    if args.workload:
        if args.command not in WORKLOAD_COMMANDS:
            parser.error(
                f"--workload only applies to "
                f"{'/'.join(sorted(WORKLOAD_COMMANDS))}, not {args.command!r}"
            )
        if len(args.workload) > 1 and args.command not in ("fig7", "fig8"):
            parser.error(
                "--workload may be repeated only for the fig7/fig8 sweeps; "
                f"give {args.command} a single spec (use '+' to superpose)"
            )
    if args.bind and args.backend != "socket" and args.command != "serve":
        parser.error("--bind only applies with --backend socket or serve")
    if args.register_timeout is not None and args.backend != "socket":
        parser.error("--register-timeout only applies with --backend socket")
    if args.command != "edge":
        for flag, value in (
            ("--cache-budget", args.cache_budget),
            ("--prefix-policy", args.prefix_policy),
            ("--classes", args.classes),
        ):
            if value is not None:
                parser.error(f"{flag} only applies to the edge command")
    if args.command != "serve":
        for flag, value in (
            ("--replicas", args.replicas),
            ("--router", args.router),
            ("--segments", args.segments),
            ("--slot-duration", args.slot_duration),
            ("--segment-bytes", args.segment_bytes),
            ("--queue-frames", args.queue_frames),
            ("--serve-seconds", args.serve_seconds),
        ):
            if value is not None:
                parser.error(f"{flag} only applies to the serve command")
    if args.command != "loadgen":
        for flag, value in (
            ("--clients", args.clients),
            ("--duration", args.duration),
            ("--arrivals", args.arrivals),
            ("--want", args.want),
            ("--max-dropped", args.max_dropped),
            ("--p99-bound", args.p99_bound),
            ("--compare-sim", args.compare_sim or None),
        ):
            if value is not None:
                parser.error(f"{flag} only applies to the loadgen command")
    if args.resume:
        if not args.checkpoint:
            parser.error("--resume requires --checkpoint PATH")
        if not pathlib.Path(args.checkpoint).exists():
            parser.error(
                f"--resume: checkpoint journal {args.checkpoint!r} does not exist"
            )
    try:
        output = _COMMANDS[args.command](args)
    except ReproError as exc:
        # Library errors carry an actionable message; a traceback would
        # only bury it.
        print(f"repro-cli: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(output)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not our error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
