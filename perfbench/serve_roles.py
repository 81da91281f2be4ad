"""The two processes of the ``serve`` workload.

``daemon``
    A :class:`repro.serve.BroadcastDaemon` on an ephemeral loopback port.
    It records ``epoch`` (CLOCK_MONOTONIC, via the event loop clock) right
    after ``start()`` returns, prints it with the port, then answers
    ``begin`` / ``end`` on stdin with its CPU usage over the window and
    exits on ``stop``.  With ``--trace 1`` it also keeps a metrics
    registry and times ``encode_frame`` as the daemon calls it.
``loadgen``
    A closed loop of clients written on :mod:`repro.serve.framing`: each
    connects, sends HELLO ``want="all"``, reads until it holds every
    segment, sends BYE and reconnects at once, until the window ends.  The
    seed staggers the clients' first connections within one slot.
    Every SEGMENT frame's lateness is its receipt time minus its slot start
    ``epoch + slot * d``, on the same clock as the daemon's epoch.

Both are started by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time
from typing import Dict, List

from common import bootstrap_source, cpu_seconds, cpu_times, emit, peak_rss_mb

#: The scenario: 30 segments in 40 ms slots with 64 KiB payloads.  The
#: simulator-agreement tolerance on the first-segment wait p99 is half a
#: slot, and over a window's few dozen sessions that p99 is the largest
#: wait, so one stall of the host decides it.  Ticks here lag by up to
#: ~12 ms now and then; a 40 ms slot leaves 20 ms for that.
N_SEGMENTS = 30
SLOT_SECONDS = 0.04
SEGMENT_BYTES = 64 * 1024
#: Seconds a session may wait for its next frame before it counts as failed.
FRAME_TIMEOUT = 5.0


def daemon_main(args) -> int:
    bootstrap_source()
    from repro.obs.registry import MetricsRegistry
    from repro.serve import BroadcastDaemon, ServeConfig
    from repro.serve import daemon as daemon_module

    registry = tracer = None
    if args.trace:
        from tracing import Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        tracer.wrap(daemon_module, "encode_frame", "serve.encode")
    config = ServeConfig(
        n_segments=N_SEGMENTS, slot_duration=SLOT_SECONDS, segment_bytes=SEGMENT_BYTES
    )

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        daemon = BroadcastDaemon(config, metrics=registry)
        await daemon.start()
        epoch = loop.time()
        emit("ready", port=daemon.address[1], epoch=epoch)
        begin = cpu_times()
        try:
            while True:
                command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
                if command == "begin":
                    begin = cpu_times()
                    emit("begun")
                elif command == "end":
                    end = cpu_times()
                    usage = {
                        "user": end[0] - begin[0],
                        "sys": end[1] - begin[1],
                        "peak_rss_mb": peak_rss_mb(),
                    }
                    if registry is not None:
                        lag = registry.histogram("serve.tick.lag_seconds").stats
                        usage.update(
                            encode_s=tracer.seconds("serve.encode"),
                            tick_lag_ms_mean=lag.mean * 1e3,
                            tick_lag_ms_max=lag.maximum * 1e3,
                            frames_sent=registry.counter("serve.frames.sent").value,
                            evicted=registry.counter("serve.sessions.evicted").value,
                        )
                    emit("usage", **usage)
                else:  # "stop" or end of stdin
                    break
        finally:
            await daemon.stop()

    asyncio.run(serve())
    return 0


async def _closed_loop(args) -> Dict:
    from repro.serve.framing import (
        FRAME_BYE,
        FRAME_HELLO,
        FRAME_SEGMENT,
        FRAME_WELCOME,
        encode_frame,
        read_frame,
    )

    loop = asyncio.get_running_loop()
    deadline = loop.time() + args.seconds
    hello = encode_frame(FRAME_HELLO, {"want": "all"})
    bye = encode_frame(FRAME_BYE)
    lateness: List[float] = []
    sessions: List[Dict] = []
    handshakes: List[float] = []
    read_seconds = [0.0]
    clock = time.perf_counter

    async def timed_read(reader):
        start = clock()
        frame = await asyncio.wait_for(read_frame(reader), FRAME_TIMEOUT)
        read_seconds[0] += clock() - start
        return frame

    async def session() -> Dict:
        arrival = loop.time()
        record = {"offset": arrival - args.epoch, "wait": None, "error": None}
        reader, writer = await asyncio.open_connection("127.0.0.1", args.port)
        try:
            writer.write(hello)
            await writer.drain()
            welcome = await timed_read(reader)
            if welcome.frame_type != FRAME_WELCOME:
                record["error"] = f"expected WELCOME, got {welcome.name}"
                return record
            handshakes.append(loop.time() - arrival)
            n = int(welcome.header["n_segments"])
            d = float(welcome.header["slot_duration"])
            seen = set()
            while len(seen) < n:
                frame = await timed_read(reader)
                now = loop.time()
                if frame.frame_type != FRAME_SEGMENT:
                    record["error"] = f"{frame.name} before all segments"
                    return record
                slot = int(frame.header["slot"])
                lateness.append(now - (args.epoch + slot * d))
                if record["wait"] is None:
                    record["wait"] = now - arrival
                seen.add(frame.header["segment"])
            writer.write(bye)
            await writer.drain()
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
            record["error"] = type(exc).__name__
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        return record

    async def client(stagger: float) -> None:
        await asyncio.sleep(stagger)
        while loop.time() < deadline:
            sessions.append(await session())

    rng = random.Random(args.seed)
    start = loop.time()
    await asyncio.gather(
        *(client(rng.uniform(0.0, SLOT_SECONDS)) for _ in range(args.clients))
    )
    return {
        "elapsed": loop.time() - start,
        "sessions": sessions,
        "lateness": sorted(lateness),
        "handshakes": sorted(handshakes),
        "read_seconds": read_seconds[0],
    }


def loadgen_main(args) -> int:
    bootstrap_source()
    from repro.errors import ServeError
    from repro.serve import LoadgenResult, compare_with_simulation

    emit("ready")
    if sys.stdin.readline().strip() != "go":
        return 1
    cpu0 = cpu_seconds()
    out = asyncio.run(_closed_loop(args))
    out["cpu_seconds"] = cpu_seconds() - cpu0
    done = [s for s in out["sessions"] if s["error"] is None]
    try:
        comparison = compare_with_simulation(
            LoadgenResult(
                completed=len(done),
                dropped=len(out["sessions"]) - len(done),
                waits=sorted(s["wait"] for s in done),
                elapsed_seconds=out["elapsed"],
                n_segments=N_SEGMENTS,
                slot_duration=SLOT_SECONDS,
                offsets=sorted(s["offset"] for s in done),
            )
        )
        out["comparison"] = comparison.to_dict()
    except ServeError as exc:
        out["comparison"] = {"within_tolerance": False, "error": str(exc)}
    emit("result", **out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("daemon", "loadgen"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--port", type=int)
    parser.add_argument("--epoch", type=float)
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return daemon_main(args) if args.role == "daemon" else loadgen_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
