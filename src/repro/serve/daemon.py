"""The asyncio broadcast daemon: DHB admission against wall-clock slots.

:class:`BroadcastDaemon` is the slotted simulator made live.  It accepts TCP
client sessions, buffers each HELLO into the wall-clock slot it arrived in,
and runs one tick per slot boundary that replays the simulator's contract
exactly (see :mod:`repro.sim.slotted`):

1. admit every request buffered during earlier slots —
   ``protocol.handle_batch(arrival_slot, count)``, which schedules segment
   instances into slots ``>= arrival_slot + 1`` only;
2. broadcast the instances the schedule placed in the slot that just began
   (``protocol.slot_instances(slot)``) — one SEGMENT frame per instance,
   fanned out to every connected session, since a broadcast channel reaches
   all tuned-in clients at once;
3. release protocol bookkeeping for past slots.

Because DHB always schedules ``S_1`` in the slot right after the arrival
slot, a client's wait until its first segment is bounded by one slot
duration ``d`` plus scheduling overhead — the same bound the paper proves
for the simulator, and the property the end-to-end CI gate asserts.

Backpressure: each session owns a bounded send queue drained by a writer
task that awaits the transport's own flow control (``drain()``).  A client
that stops reading fills its queue; the next frame for it then *evicts* the
session instead of blocking the broadcast tick — one slow client must never
stall the slot cadence for everyone else.  Evictions are counted in the
``serve.sessions.evicted`` metric.

The daemon is pure asyncio (no raw sockets): start/stop it from any event
loop, or use :func:`BroadcastDaemon.run_for` for a bounded lifetime.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from typing import Dict, Optional, Tuple

from ..core.dhb import DHBProtocol
from ..obs.registry import MetricsRegistry
from ..sim.slotted import SlottedModel
from .config import ServeConfig
from .framing import (
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_FIN,
    FRAME_HELLO,
    FRAME_SEGMENT,
    FRAME_WELCOME,
    Frame,
    encode_frame,
    read_frame,
)

logger = logging.getLogger("repro.serve")


class _Session:
    """One connected client: its stream, send queue, and writer task."""

    __slots__ = ("session_id", "writer", "queue", "task", "segments_sent")

    def __init__(self, session_id: int, writer: asyncio.StreamWriter, bound: int):
        self.session_id = session_id
        self.writer = writer
        self.queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(maxsize=bound)
        self.task: Optional[asyncio.Task] = None
        self.segments_sent = 0


class BroadcastDaemon:
    """A live DHB broadcast server on one listening address.

    Parameters
    ----------
    config:
        The broadcast scenario (segments, slot duration, payload size) and
        transport policy (queue bound, handshake timeout).
    host, port:
        Listening address; port 0 binds an ephemeral port — read the
        actual one from :attr:`address` after :meth:`start`.
    protocol:
        The slotted admission model; defaults to a fresh
        :class:`~repro.core.dhb.DHBProtocol` over ``config.n_segments``.
    metrics:
        Optional registry; the daemon counts sessions, frames, evictions
        and observes per-tick lag and instance counts.
    name:
        Label used in log lines (replicas get ``replica-0``, ...).
    """

    def __init__(
        self,
        config: ServeConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        protocol: Optional[SlottedModel] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "daemon",
    ):
        self.config = config
        self.host = host
        self.port = port
        self.protocol = (
            protocol
            if protocol is not None
            else DHBProtocol(n_segments=config.n_segments)
        )
        self.metrics = metrics
        self.name = name
        self._queue_bound = config.resolve_queue_frames()
        self._payload = bytes(config.segment_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._ticker: Optional[asyncio.Task] = None
        self._sessions: Dict[int, _Session] = {}
        self._session_ids = itertools.count(1)
        self._pending: Dict[int, int] = {}  # arrival slot -> buffered HELLOs
        self._epoch = 0.0  # loop.time() at which slot 0 began
        self._next_slot = 1  # first boundary the ticker has not yet run
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket, start the slot ticker."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._epoch = asyncio.get_running_loop().time()
        self._next_slot = 1
        self._ticker = asyncio.create_task(
            self._slot_loop(), name=f"{self.name}-ticker"
        )
        logger.info(
            "%s: serving on %s:%d (n=%d, d=%.3fs, queue=%d frames)",
            self.name,
            *self.address,
            self.config.n_segments,
            self.config.slot_duration,
            self._queue_bound,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once :meth:`start` returned)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not started")
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    def pressure(self, slot: int) -> float:
        """Load signal for routers: the live session count.

        Duck-types :meth:`repro.cluster.admission.CappedServer.pressure`,
        so every :class:`~repro.cluster.routing.Router` policy works over
        live replicas unchanged.
        """
        return float(len(self._sessions))

    async def stop(self) -> None:
        """Graceful shutdown: FIN every client, stop ticking, close up."""
        if self._stopping:
            return
        self._stopping = True
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
        fin = encode_frame(FRAME_FIN, {"reason": "shutdown"})
        for session in list(self._sessions.values()):
            self._offer(session, fin)
        # Give writers one scheduling round to flush the FIN, then close.
        await asyncio.sleep(0)
        for session in list(self._sessions.values()):
            await self._close_session(session, reason="shutdown")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        logger.info("%s: stopped", self.name)

    async def run_for(self, seconds: float) -> None:
        """Start, serve for ``seconds`` of wall time, then stop."""
        await self.start()
        try:
            await asyncio.sleep(seconds)
        finally:
            await self.stop()

    # -- the slot ticker ------------------------------------------------------

    async def _slot_loop(self) -> None:
        """One tick per slot boundary: admit, broadcast, release."""
        d = self.config.slot_duration
        loop = asyncio.get_running_loop()
        while True:
            target = self._epoch + self._next_slot * d
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # The loop may have been descheduled past one or more
            # boundaries; catch up without skipping any slot's broadcast.
            now = loop.time()
            lag = now - target
            if self.metrics is not None:
                self.metrics.histogram("serve.tick.lag_seconds").observe(max(lag, 0.0))
            behind = max(int((now - self._epoch) / d) - self._next_slot, 0)
            for _ in range(behind + 1):
                self._tick(self._next_slot)
                self._next_slot += 1

    def _tick(self, slot: int) -> None:
        """Run the boundary starting ``slot``: admit < slot, broadcast slot."""
        protocol = self.protocol
        for arrival_slot in sorted(s for s in self._pending if s < slot):
            count = self._pending.pop(arrival_slot)
            protocol.handle_batch(arrival_slot, count)
            if self.metrics is not None:
                self.metrics.counter("serve.requests.admitted").inc(count)
        instances = protocol.slot_instances(slot)
        if instances and self._sessions:
            for segment in instances:
                frame = encode_frame(
                    FRAME_SEGMENT,
                    {"segment": segment, "slot": slot},
                    self._payload,
                )
                for session in list(self._sessions.values()):
                    self._offer(session, frame)
        if self.metrics is not None:
            self.metrics.histogram("serve.slot.instances").observe(len(instances))
            self.metrics.counter("serve.slots").inc()
            self.metrics.gauge("serve.sessions.active").set(len(self._sessions))
        protocol.release_before(slot)

    # -- per-connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Handshake one client, register its session, then read until BYE."""
        session: Optional[_Session] = None
        try:
            try:
                hello = await asyncio.wait_for(
                    read_frame(reader), timeout=self.config.hello_timeout
                )
            except asyncio.TimeoutError:
                writer.close()
                return
            if hello.frame_type != FRAME_HELLO:
                writer.write(
                    encode_frame(
                        FRAME_ERROR,
                        {"error": f"expected HELLO, got {hello.name}"},
                    )
                )
                await writer.drain()
                writer.close()
                return
            session = self._admit(writer)
            await self._read_until_closed(reader, session)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client vanished mid-frame; the session cleanup below copes
        except Exception:
            logger.exception("%s: connection handler failed", self.name)
        finally:
            if session is not None:
                await self._close_session(session, reason="disconnect")
            elif not writer.is_closing():
                writer.close()

    def _admit(self, writer: asyncio.StreamWriter) -> _Session:
        """Register the session and buffer its request into the live slot."""
        loop = asyncio.get_running_loop()
        arrival_slot = int((loop.time() - self._epoch) / self.config.slot_duration)
        # A HELLO racing a boundary the ticker already ran would be admitted
        # into a slot whose broadcasts are over; pin it to the live slot so
        # its schedule is still ahead of it.
        arrival_slot = max(arrival_slot, self._next_slot - 1)
        self._pending[arrival_slot] = self._pending.get(arrival_slot, 0) + 1

        session = _Session(next(self._session_ids), writer, self._queue_bound)
        self._sessions[session.session_id] = session
        welcome = dict(self.config.welcome_header())
        welcome.update(session=session.session_id, slot=arrival_slot)
        session.queue.put_nowait(encode_frame(FRAME_WELCOME, welcome))
        session.task = asyncio.create_task(
            self._write_loop(session), name=f"{self.name}-w{session.session_id}"
        )
        if self.metrics is not None:
            self.metrics.counter("serve.sessions.accepted").inc()
        return session

    async def _read_until_closed(
        self, reader: asyncio.StreamReader, session: _Session
    ) -> None:
        """Consume client frames until BYE or EOF (anything else is an error)."""
        while True:
            try:
                frame: Frame = await read_frame(reader)
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    raise  # torn frame, not a clean close
                return
            if frame.frame_type == FRAME_BYE:
                return
            if frame.frame_type != FRAME_HELLO:
                # Clients only ever send HELLO/BYE; tolerate a duplicate
                # HELLO (idempotent re-tune) but nothing else.
                logger.warning(
                    "%s: session %d sent unexpected %s",
                    self.name,
                    session.session_id,
                    frame.name,
                )
                return

    # -- the send side --------------------------------------------------------

    def _offer(self, session: _Session, frame: bytes) -> None:
        """Enqueue ``frame`` for one session, evicting it when full."""
        try:
            session.queue.put_nowait(frame)
        except asyncio.QueueFull:
            logger.warning(
                "%s: evicting slow session %d (queue of %d frames full)",
                self.name,
                session.session_id,
                self._queue_bound,
            )
            if self.metrics is not None:
                self.metrics.counter("serve.sessions.evicted").inc()
            self._sessions.pop(session.session_id, None)
            if session.task is not None:
                session.task.cancel()
            if not session.writer.is_closing():
                session.writer.close()

    async def _write_loop(self, session: _Session) -> None:
        """Drain the session's queue onto its transport, respecting drain()."""
        writer = session.writer
        try:
            while True:
                frame = await session.queue.get()
                if frame is None:
                    return
                writer.write(frame)
                await writer.drain()
                if self.metrics is not None:
                    self.metrics.counter("serve.frames.sent").inc()
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def _close_session(self, session: _Session, reason: str) -> None:
        """Drop one session: cancel its writer, close its transport."""
        self._sessions.pop(session.session_id, None)
        if session.task is not None and not session.task.done():
            session.task.cancel()
            try:
                await session.task
            except asyncio.CancelledError:
                pass
        if not session.writer.is_closing():
            session.writer.close()
        if self.metrics is not None:
            self.metrics.counter(f"serve.sessions.closed.{reason}").inc()


def predicted_wait_bound(config: ServeConfig) -> float:
    """DHB's hard waiting bound for this scenario: one slot duration.

    ``S_1`` is always scheduled in the slot right after the arrival slot,
    so no client waits longer than ``d`` for its first segment (plus
    transport overhead, which the CI gate covers with explicit slack).
    """
    return config.slot_duration
