"""The client side of the benchmark spine: one process, one thread, one
connection, closed loop.

* :class:`ServerProcess` owns the server subprocess and its control pipe.
* :class:`HttpClient` is a minimal HTTP/1.1 client over a raw socket: it
  keeps the connection open and reconnects only when the server closes it
  (the HTTP/1.0 endpoint of today closes every time, so a later keep-alive
  change shows without touching the benchmark), and it hands back the
  timestamps that split a request into connect / first byte / body.
* :func:`replay_lap` sends one lap, checks every response against the
  oracle's expectation for that position, and has the server time its
  reference kernel at the lap's reference slots.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

HERE = Path(__file__).resolve().parent

__all__ = ["HttpClient", "ServerProcess", "LapResult", "pin_cpus", "replay_lap", "get_request"]


def pin_cpus() -> Tuple[Optional[int], Optional[int]]:
    """``(server cpu, client cpu)`` — one core each when the host has two —
    and pin this (client) process to its own."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[1]})
    return cpus[0], cpus[1]


class ServerProcess:
    """The server subprocess and its one-line-JSON control pipe."""

    def __init__(self, spec, seed: int, quick: bool, cpu: Optional[int], scratch: Path, builds: int):
        config = {
            "workload": spec.name, "seed": seed, "quick": quick,
            "cpu": cpu, "scratch": str(scratch), "builds": builds,
        }
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._send(config)

    def _send(self, payload: dict) -> None:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()

    def call(self, payload: dict) -> dict:
        """Send one command and block on its acknowledgement line."""
        self._send(payload)
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.process.wait()} mid-command")
        return json.loads(line)

    def go(self, inventory: Sequence[str]) -> dict:
        """Hand over the inventory; returns the ready line once the timed
        builds are done and the endpoint is serving."""
        return self.call({"inventory": list(inventory)})

    def stop(self) -> dict:
        """Clean shutdown; returns the server's last line (peak RSS)."""
        last = self.call({"op": "stop"})
        self.process.stdin.close()
        self.process.wait(timeout=30)
        return last

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def get_request(text: str) -> bytes:
    """The bytes of ``GET /sparql?query=<text>`` as HTTP/1.1."""
    return (
        f"GET /sparql?query={quote(text, safe='')} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Accept: application/sparql-results+json\r\n\r\n"
    ).encode("ascii")


HEALTHZ_REQUEST = b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"


class HttpClient:
    """One persistent connection; reconnects only after the server closed."""

    def __init__(self, port: int):
        self._address = ("127.0.0.1", port)
        self._sock: Optional[socket.socket] = None
        self.connects = 0

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _exchange(self, request: bytes) -> Tuple[float, bytes]:
        """Send on the open or a fresh connection; returns the time the
        connection was ready and the first bytes of the response.  A kept
        connection the server dropped while idle is retried once, fresh."""
        while True:
            fresh = self._sock is None
            if fresh:
                self._sock = socket.create_connection(self._address, timeout=60)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connects += 1
            connected = time.perf_counter()
            try:
                self._sock.sendall(request)
                data = self._sock.recv(65536)
            except (BrokenPipeError, ConnectionResetError):
                data = b""
            if data:
                return connected, data
            self.close()
            if fresh:
                raise ConnectionError("server closed a fresh connection without answering")

    def request(self, request: bytes) -> Tuple[int, bytes, float, float]:
        """``(status, body, t_connected, t_first_byte)``."""
        connected, data = self._exchange(request)
        first_byte = time.perf_counter()
        sock = self._sock
        while (end := data.find(b"\r\n\r\n")) < 0:
            more = sock.recv(65536)
            if not more:
                raise ConnectionError("connection closed inside the response header")
            data += more
        head = data[:end]
        lowered = head.lower()
        at = lowered.find(b"content-length:")
        if at < 0:
            raise ConnectionError("response carries no Content-Length")
        line_end = lowered.find(b"\r\n", at)
        length = int(lowered[at + 15 : line_end if line_end >= 0 else None])
        chunks = [data[end + 4 :]]
        missing = length - len(chunks[0])
        while missing > 0:
            more = sock.recv(min(missing, 1 << 20))
            if not more:
                raise ConnectionError("connection closed inside the response body")
            chunks.append(more)
            missing -= len(more)
        keep_alive = (
            head.startswith(b"HTTP/1.1") and b"connection: close" not in lowered
        ) or b"connection: keep-alive" in lowered
        if not keep_alive:
            self.close()
        return int(head[9:12]), b"".join(chunks), connected, first_byte


class LapResult:
    """Per-position seconds of one replay, the reference kernel's seconds at
    each reference slot, the failures it saw, and (traced replays only) the
    per-request split timestamps."""

    __slots__ = ("seconds", "reference", "failed", "first_failure", "splits")

    def __init__(self, size: int):
        self.seconds: List[float] = [0.0] * size
        self.reference: List[float] = []
        self.failed = 0
        self.first_failure: Optional[str] = None
        #: position -> (t0, t_connected, t_first_byte, t_end), traced only.
        self.splits: Dict[int, Tuple[float, float, float, float]] = {}

    def fail(self, position: int, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"position {position}: {what}"


def replay_lap(
    lap,
    expected: Sequence[object],
    http: HttpClient,
    server: ServerProcess,
    requests: Dict[str, bytes],
    traced: bool = False,
    start: int = 0,
    ref_every: int = 0,
) -> LapResult:
    """Send one lap, closed loop, and verify every answer.

    A read fails on a transport error, a non-200 (503 sheds included) or a
    body whose SHA-256 differs from the oracle's for that position; a write
    fails when its acknowledgement differs.  The collector is off inside the
    loop so a client-side GC pause is never charged to the server.

    The lap is sent from position ``start`` round to ``start - 1``.  A lap of
    independent reads allocates the same in every replay, so the server's
    full collections can recur at the same positions each time and enter
    their floors; starting every replay elsewhere takes them apart.  With
    ``ref_every``, the server times its reference kernel (outside any timed
    op) before each position that is a multiple of it.
    """
    result = LapResult(len(lap))
    seconds = result.seconds
    if ref_every:
        result.reference = [0.0] * len(range(0, len(lap), ref_every))
    reference = result.reference
    now = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        for position in [*range(start, len(lap)), *range(start)]:
            kind, arg = lap[position]
            if ref_every and position % ref_every == 0:
                reference[position // ref_every] = server.call({"op": "ref"})["ref_s"]
            started = now()
            if kind == "get":
                try:
                    status, body, connected, first_byte = http.request(requests[arg])
                except OSError as exc:
                    seconds[position] = now() - started
                    http.close()
                    result.fail(position, f"transport error {exc!r}")
                    continue
                ended = now()
                if traced:
                    result.splits[position] = (started, connected, first_byte, ended)
                if status != 200:
                    result.fail(position, f"HTTP {status}: {body[:200]!r}")
                elif hashlib.sha256(body).digest() != expected[position]:
                    result.fail(position, f"body of {len(body)} bytes differs from the oracle's")
            else:
                command = {"op": kind} if arg is None else {"op": kind, "batch": arg}
                ack = server.call(command)["ack"]
                ended = now()
                if ack != expected[position]:
                    result.fail(position, f"{kind} acknowledged {ack!r}, oracle {expected[position]!r}")
            seconds[position] = ended - started
    finally:
        gc.enable()
    return result
