"""The network-facing SPARQL endpoint: stdlib HTTP over a :class:`QueryService`.

``ROADMAP``'s "millions of users" item needs a wire; this module is that wire,
built entirely on :mod:`http.server` so it adds no dependencies:

* ``GET /sparql`` and ``POST /sparql`` speak the SPARQL 1.1 protocol
  (:mod:`repro.endpoint.protocol`) and answer in
  ``application/sparql-results+json``;
* ``GET /healthz`` is a cheap liveness/role probe;
* ``GET /metrics`` returns the full serving-stack metrics snapshot —
  :class:`~repro.serve.metrics.ServiceMetrics` plus the endpoint's own
  admission accounting — as JSON.

**Admission control.**  Every query request passes the
:class:`AdmissionGate`: at most ``max_inflight`` requests execute at once,
at most ``queue_depth`` more may wait (up to ``admission_timeout_seconds``)
for an execution slot, and everything beyond that is *shed* immediately with
``503`` + ``Retry-After`` and a machine-readable error body.  The gate is
the one owner of the exact cumulative admitted and shed counts; ``/metrics``
reports them under ``"endpoint"``, so the fault-injection suite can assert
shed accounting exactly.

**Generation stamping.**  Every query response carries, in the
:data:`GENERATION_HEADER` header, the store generation its body was computed
at — the one the service sampled under its read gate.  In the multi-process
mode (:mod:`repro.endpoint.worker`) a worker applies the leader's delta
records in place or swaps in a whole new ``QueryService``, so the stamp
makes replication staleness *observable*: a sequential client sees a
monotonically non-decreasing generation, and every response body is
consistent with the stamped generation (never a torn store).

The server is deliberately swap-aware rather than restart-based:
:meth:`SparqlEndpoint.swap_service` atomically replaces the service behind
the wire while in-flight requests finish against the service they started
with.  The admission gate and its counters survive the swap — admission is a
property of the endpoint, not of any one store generation.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import urlsplit

from repro.endpoint.protocol import (
    ERROR_JSON,
    RESULTS_JSON,
    ProtocolError,
    SparqlRequest,
    encode_error,
    encode_results,
    negotiate_accept,
    request_from_get,
    request_from_post,
)
from repro.errors import ParseError, QueryTimeoutError, ReproError
from repro.resilience.deadline import deadline_scope
from repro.serve.service import QueryService

__all__ = ["EndpointConfig", "AdmissionGate", "SparqlEndpoint", "GENERATION_HEADER"]

#: Response header carrying the store generation that answered the request.
GENERATION_HEADER = "X-Repro-Generation"
#: Response header naming the route (relational/graph/split) the query took.
ROUTE_HEADER = "X-Repro-Route"


@dataclass(frozen=True)
class EndpointConfig:
    """Tunables of one HTTP endpoint.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (the resolved port
        is on :attr:`SparqlEndpoint.port`) — what the test fixtures use.
    max_inflight:
        Query requests executing concurrently; more than this wait.
    queue_depth:
        Requests allowed to *wait* for an execution slot on top of the
        ``max_inflight`` executing ones.  The bounded request queue of the
        admission-control design: total admitted-or-waiting occupancy is
        ``max_inflight + queue_depth`` and everything beyond is shed.
    admission_timeout_seconds:
        How long a queued request may wait for an execution slot before it
        is shed with 503 (``0`` sheds immediately once all slots are busy).
    retry_after_seconds:
        Base value of the ``Retry-After`` header on shed responses.  The
        actual hint scales with queue occupancy at shed time — see
        :meth:`SparqlEndpoint.retry_after_hint`.
    role:
        Free-form label surfaced by ``/healthz`` and ``/metrics``
        (``standalone`` | ``leader`` | ``worker``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    queue_depth: int = 16
    admission_timeout_seconds: float = 2.0
    retry_after_seconds: int = 1
    role: str = "standalone"

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if self.admission_timeout_seconds < 0:
            raise ValueError("admission_timeout_seconds must be non-negative")


class AdmissionGate:
    """Bounded-queue admission control with exact cumulative accounting.

    Two limits, one invariant: at most ``max_inflight`` holders execute at
    once, and at most ``max_inflight + queue_depth`` requests occupy the gate
    (executing + waiting) at any instant.  A request beyond the occupancy cap
    — or one that waits longer than the admission timeout for an execution
    slot — is **shed**, and every shed increments :attr:`shed` exactly once,
    which is what lets the fault suite assert ``shed_load`` to the request.
    """

    def __init__(self, max_inflight: int, queue_depth: int, timeout_seconds: float):
        self._slots = threading.Semaphore(max_inflight)
        self._capacity = max_inflight + queue_depth
        self._timeout = timeout_seconds
        self._lock = threading.Lock()
        self._occupancy = 0
        #: Requests that acquired an execution slot (cumulative).
        self.admitted = 0
        #: Requests shed with 503 (cumulative; queue-full and wait-timeout).
        self.shed = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def occupancy(self) -> int:
        """Requests currently executing or waiting (≤ :attr:`capacity`)."""
        with self._lock:
            return self._occupancy

    def try_admit(self) -> bool:
        """Enter the gate; ``False`` means the request must be shed."""
        with self._lock:
            if self._occupancy >= self._capacity:
                self.shed += 1
                return False
            self._occupancy += 1
        if not self._slots.acquire(timeout=self._timeout):
            with self._lock:
                self._occupancy -= 1
                self.shed += 1
            return False
        with self._lock:
            self.admitted += 1
        return True

    def release(self) -> None:
        """Leave the gate (must follow a successful :meth:`try_admit`)."""
        self._slots.release()
        with self._lock:
            self._occupancy -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "admitted": self.admitted,
                "shed_load": self.shed,
                "occupancy": self._occupancy,
                "capacity": self._capacity,
            }


class _EndpointHTTPServer(ThreadingHTTPServer):
    # One thread per connection; daemonic so a wedged handler can never block
    # process exit, and no join-on-close so stop() stays prompt while shed
    # responses drain.
    daemon_threads = True
    block_on_close = False
    #: Back-pointer installed by SparqlEndpoint before serving starts.
    endpoint: "SparqlEndpoint"


class _Handler(BaseHTTPRequestHandler):
    # Keep HTTP/1.1 keep-alive off the table: every request/response pair is
    # self-contained, which keeps the kill-a-worker fault mode crisp (a dead
    # worker fails the one request on the wire, not a pipelined backlog).
    protocol_version = "HTTP/1.0"
    server: _EndpointHTTPServer

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        """Silence the default stderr access log (the service has metrics)."""

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[dict] = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, str(value))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing left to tell it

    def _respond_error(
        self, status: int, code: str, message: str, extra_headers: Optional[dict] = None, **extra
    ) -> None:
        self._respond(status, encode_error(code, message, **extra), ERROR_JSON, extra_headers)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        split = urlsplit(self.path)
        if split.path == "/sparql":
            self._handle_sparql(lambda: request_from_get(split.query))
        elif split.path == "/healthz":
            self._handle_healthz()
        elif split.path == "/metrics":
            self._handle_metrics()
        else:
            self._respond_error(404, "not-found", f"no resource at {split.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        split = urlsplit(self.path)
        if split.path != "/sparql":
            if split.path in ("/healthz", "/metrics"):
                self._respond_error(
                    405, "method-not-allowed", f"{split.path} only supports GET", {"Allow": "GET"}
                )
            else:
                self._respond_error(404, "not-found", f"no resource at {split.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0") or "0")
        except ValueError:
            self._respond_error(400, "bad-content-length", "Content-Length is not an integer")
            return
        body = self.rfile.read(length) if length > 0 else b""
        self._handle_sparql(
            lambda: request_from_post(self.headers.get("Content-Type"), body, split.query)
        )

    def _method_not_allowed(self) -> None:
        self._respond_error(
            405,
            "method-not-allowed",
            f"{self.command} is not supported; use GET or POST",
            {"Allow": "GET, POST"},
        )

    do_PUT = do_DELETE = do_PATCH = do_HEAD = _method_not_allowed

    # ------------------------------------------------------------------ #
    # /sparql
    # ------------------------------------------------------------------ #
    def _handle_sparql(self, extract_request: Callable[[], SparqlRequest]) -> None:
        endpoint = self.server.endpoint
        # Protocol validation happens before admission: a malformed request
        # must get its 400 even from a saturated endpoint, and must never
        # consume an execution slot.
        try:
            negotiate_accept(self.headers.get("Accept"))
            request = extract_request()
        except ProtocolError as exc:
            self._respond_error(exc.status, exc.code, exc.message)
            return
        query_text = request.query
        service = endpoint.service
        try:
            service.resolve(query_text)
        except ParseError as exc:
            self._respond_error(
                400, "parse-error", exc.message, line=exc.line, column=exc.column
            )
            return
        except ReproError as exc:
            self._respond_error(400, "invalid-query", str(exc))
            return

        if endpoint.draining:
            # Graceful shutdown: stop admitting, let in-flight finish.  The
            # rejection is counted on the endpoint (not the gate — gate sheds
            # mean overload, this means shutdown) so accounting stays exact.
            endpoint.count_drain_rejection()
            self._respond_error(
                503,
                "draining",
                "endpoint is draining for shutdown",
                {"Retry-After": endpoint.retry_after_hint()},
            )
            return

        gate = endpoint.gate
        if not gate.try_admit():
            self._respond_error(
                503,
                "overloaded",
                "request shed: the admission queue is full",
                {"Retry-After": endpoint.retry_after_hint()},
            )
            return
        try:
            # Re-read the service ref inside the gate: the swap (if any)
            # happened-before our read, so this ref is the store that
            # executes the query.
            service = endpoint.service
            # One deadline per request, opened at admission: execution and
            # encoding spend the same budget.
            deadline = service.request_deadline(request.timeout_seconds)
            if endpoint.before_execute is not None:
                endpoint.before_execute(query_text)
            with deadline_scope(deadline):
                processed = service.run_query(query_text)
                try:
                    body = encode_results(processed.result)
                except QueryTimeoutError:
                    service.record_query_timeout()
                    raise
        except ParseError as exc:  # pragma: no cover - caught pre-admission
            self._respond_error(400, "parse-error", exc.message, line=exc.line, column=exc.column)
            return
        except QueryTimeoutError as exc:
            # Cooperative cancellation tripped: the slot is already freed by
            # the finally below — 504 with the exact partial-work accounting.
            self._respond_error(
                504,
                "query-timeout",
                str(exc),
                budget_seconds=exc.budget_seconds,
                elapsed_seconds=exc.elapsed_seconds,
                partial_work=exc.partial_work or None,
            )
            return
        except ReproError as exc:
            self._respond_error(500, "execution-failed", str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - last-resort server error
            self._respond_error(500, "internal-error", f"{type(exc).__name__}: {exc}")
            return
        finally:
            gate.release()
        self._respond(
            200,
            body,
            RESULTS_JSON,
            # Stamped from the generation the service sampled under its read
            # gate: the one the body was computed at, even when a write
            # (e.g. a follower's delta apply) lands around the request.
            {GENERATION_HEADER: processed.generation, ROUTE_HEADER: processed.route},
        )

    # ------------------------------------------------------------------ #
    # /healthz and /metrics
    # ------------------------------------------------------------------ #
    def _handle_healthz(self) -> None:
        endpoint = self.server.endpoint
        payload = {
            "status": "draining" if endpoint.draining else "ok",
            "role": endpoint.config.role,
            "pid": os.getpid(),
            "generation": endpoint.service.dual.generation,
            "reloads": endpoint.reloads,
        }
        self._respond(
            200,
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
            ERROR_JSON,
            {GENERATION_HEADER: payload["generation"]},
        )

    def _handle_metrics(self) -> None:
        endpoint = self.server.endpoint
        service = endpoint.service
        admission = endpoint.gate.snapshot()
        admission["draining"] = endpoint.draining
        admission["drain_rejections"] = endpoint.drain_rejections
        payload = {
            "role": endpoint.config.role,
            "generation": service.dual.generation,
            "reloads": endpoint.reloads,
            "endpoint": admission,
            "service": service.metrics.snapshot(),
        }
        self._respond(
            200,
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
            ERROR_JSON,
            {GENERATION_HEADER: payload["generation"]},
        )


class SparqlEndpoint:
    """One HTTP SPARQL endpoint over a (swappable) :class:`QueryService`.

    Parameters
    ----------
    service:
        The service to serve from.  The endpoint does **not** own it: closing
        the endpoint stops the HTTP server but leaves the service (and its
        store) to the caller.
    config:
        Bind address, admission limits, role label.
    before_execute:
        Optional fault-injection seam: called with the query text after
        admission, immediately before execution.  The protocol/fault test
        layer uses it to hold requests inside their execution slot (queue
        saturation) and to stretch requests so a worker can be killed
        mid-flight; production configurations leave it ``None``.
    """

    def __init__(
        self,
        service: QueryService,
        config: Optional[EndpointConfig] = None,
        *,
        before_execute: Optional[Callable[[str], None]] = None,
    ):
        self.config = config or EndpointConfig()
        self._service = service
        self._service_lock = threading.Lock()
        self.gate = AdmissionGate(
            self.config.max_inflight,
            self.config.queue_depth,
            self.config.admission_timeout_seconds,
        )
        self.before_execute = before_execute
        #: Times :meth:`swap_service` replaced the serving store (worker mode).
        self.reloads = 0
        #: Draining mode: new /sparql requests are rejected with 503
        #: ``draining`` while in-flight ones finish (see :meth:`drain`).
        self._draining = False
        self._drain_lock = threading.Lock()
        #: Requests rejected because the endpoint was draining (cumulative).
        self.drain_rejections = 0
        self._httpd = _EndpointHTTPServer((self.config.host, self.config.port), _Handler)
        self._httpd.endpoint = self
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (resolved even when configured with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint, e.g. ``http://127.0.0.1:43211``."""
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "SparqlEndpoint":
        """Serve in a background thread; returns ``self`` for chaining."""
        if self._started:
            return self
        self._started = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections and release the listening socket.

        Raises :class:`RuntimeError` if the serving thread is still alive
        after a 5-second join — a wedged handler must be loud, not a thread
        silently accumulating across a long test run.  The thread reference
        is kept in that case so a retry can observe (and re-join) it.
        """
        if not self._started:
            self._httpd.server_close()
            return
        self._started = False
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"endpoint thread {self._thread.name!r} did not stop within "
                    "5.0s of shutdown; a handler is wedged"
                )
            self._thread = None

    def __enter__(self) -> "SparqlEndpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # The swappable service (snapshot hot-reload)
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> QueryService:
        with self._service_lock:
            return self._service

    def swap_service(self, service: QueryService) -> QueryService:
        """Atomically replace the serving store; returns the old service.

        In-flight requests keep executing against the service they grabbed
        before the swap (their responses stay stamped with *its* generation);
        every request admitted afterwards sees the new one — so a sequential
        client observes a monotonic generation, never a torn store.  The old
        service is handed back, not closed: requests may still be inside it.
        Its cumulative counters are added into the new service's so the
        endpoint's ``/metrics`` stays a process-lifetime view across reloads.
        """
        with self._service_lock:
            old, self._service = self._service, service
        if old is not service:
            self.reloads += 1
            service.metrics.counters.add(old.metrics.counters)
        return old

    # ------------------------------------------------------------------ #
    # Graceful drain (worker shutdown)
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        """Whether the endpoint is refusing new queries ahead of shutdown."""
        with self._drain_lock:
            return self._draining

    def count_drain_rejection(self) -> None:
        with self._drain_lock:
            self.drain_rejections += 1

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting new queries and wait for in-flight ones to finish.

        Returns ``True`` when gate occupancy reached zero within ``timeout``
        seconds, ``False`` if requests were still in flight when it expired
        (the caller may still :meth:`stop`; remaining requests race the
        socket teardown, exactly as an un-drained stop would).  Idempotent —
        once draining, the endpoint stays draining.
        """
        with self._drain_lock:
            self._draining = True
        limit = time.monotonic() + max(0.0, timeout)
        while self.gate.occupancy > 0:
            if time.monotonic() >= limit:
                return False
            time.sleep(0.02)
        return True

    def retry_after_hint(self) -> int:
        """The ``Retry-After`` seconds for a rejected request, scaled by load.

        The base (:attr:`EndpointConfig.retry_after_seconds`) is multiplied
        by how many *waves* of work the current gate occupancy represents —
        ``ceil(occupancy / max_inflight)`` — so a shed against a deep queue
        tells the client to back off proportionally longer than a shed
        against a briefly-full one.  An idle or lightly-loaded endpoint
        (occupancy within one wave) answers the plain base value.
        """
        occupancy = self.gate.occupancy
        waves = max(1, math.ceil(occupancy / self.config.max_inflight))
        return int(self.config.retry_after_seconds * waves)
