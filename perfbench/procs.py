"""Child processes the orchestrator drives over JSON lines on stdin/stdout."""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import ROOT


class ChildError(RuntimeError):
    """A child process died, timed out or answered out of turn."""


class ChildTimeout(ChildError):
    """A child did not answer within the deadline."""


class Child:
    """One benchmark child: ``python3 perfbench/<script> <args>``.

    A reader thread moves the child's stdout lines into a queue so every
    wait has a deadline; stderr passes straight through to ours.  The
    child runs on our cores unless ``cpu`` names another one.
    """

    def __init__(self, script: str, args: List[str], cpu: Optional[int] = None):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / script), *args],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")  # end of stream

    def expect(self, event: str, timeout: float) -> Dict:
        """Wait for the JSON line whose ``event`` is ``event``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildTimeout(f"timed out waiting for {event!r}")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                raise ChildTimeout(f"timed out waiting for {event!r}") from None
            if not line:
                raise ChildError(
                    f"child exited ({self.proc.wait()}) before {event!r}"
                )
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                sys.stderr.write(line)
                continue
            if message.get("event") == event:
                return message

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float = 30.0) -> int:
        """Close stdin, wait for exit (kill after ``timeout``)."""
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5.0)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.finish(timeout=5.0)
