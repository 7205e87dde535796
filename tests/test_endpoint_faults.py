"""Fault injection for the endpoint: saturation, worker death, hot reload.

Three fault modes, each pinned to an exact observable contract:

* **queue saturation** — every request beyond the bounded admission queue
  gets ``503`` + ``Retry-After`` and the cumulative ``shed_load`` counter
  matches the client-observed 503s *exactly*;
* **worker killed mid-request** (multi-process) — the in-flight request
  fails with a clean transport error or is retried to success on a
  surviving replica, never a hang;
* **leader commits mid-stream** (multi-process) — workers hot-reload, each
  response body is consistent with its stamped generation (no torn store),
  and a client talking to one worker sees a monotonic generation.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import DualStore
from repro.endpoint import (
    EndpointConfig,
    EndpointPool,
    WorkerSupervisor,
    encode_results,
    fetch_json,
    sparql_request,
)
from repro.endpoint.client import TransportError
from repro.rdf import Literal, Triple, TripleSet, YAGO
from repro.serve import QueryService, ServiceConfig

PROBE = "SELECT ?name WHERE { ?p y:hasGivenName ?name . }"


def _fault_triples() -> TripleSet:
    given = YAGO.term("hasGivenName")
    born = YAGO.term("wasBornIn")
    berlin = YAGO.term("Berlin")
    triples = [
        Triple(YAGO.term("Alice"), given, Literal("Alice")),
        Triple(YAGO.term("Bob"), given, Literal("Bob")),
        Triple(YAGO.term("Alice"), born, berlin),
        Triple(YAGO.term("Bob"), born, berlin),
    ]
    return TripleSet(triples)


# --------------------------------------------------------------------------- #
# Saturation: bounded queue, exact shed accounting
# --------------------------------------------------------------------------- #
class TestSaturation:
    def test_overflow_is_shed_with_exact_accounting(self, endpoint_factory):
        """1 executing + 2 queued fills the gate (max_inflight=1,
        queue_depth=2); the next 3 requests are shed — no more, no fewer —
        and the held requests all complete once the slot frees up."""
        endpoint, _service = endpoint_factory(
            triples=_fault_triples(),
            config=EndpointConfig(
                max_inflight=1,
                queue_depth=2,
                admission_timeout_seconds=30.0,
                retry_after_seconds=3,
            ),
        )
        in_slot = threading.Event()
        release = threading.Event()

        def hold(_query: str) -> None:
            in_slot.set()
            release.wait(timeout=30)

        endpoint.before_execute = hold

        statuses: list[int] = []
        lock = threading.Lock()

        def issue() -> None:
            response = sparql_request(endpoint.url, PROBE, timeout=60)
            with lock:
                statuses.append(response.status)

        threads = [threading.Thread(target=issue) for _ in range(3)]
        threads[0].start()
        assert in_slot.wait(timeout=10), "first request never reached execution"
        for thread in threads[1:]:
            thread.start()
        deadline = time.monotonic() + 10
        while endpoint.gate.occupancy < 3:  # 1 executing + 2 waiting
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.005)

        # Retry-After scales with occupancy: base 3s × ceil(3 occupants /
        # max_inflight 1) = 9s — a full queue tells clients to back off
        # proportionally, not just "come back in the base interval".
        shed_responses = [sparql_request(endpoint.url, PROBE) for _ in range(3)]
        for response in shed_responses:
            assert response.status == 503
            assert response.retry_after == 9.0
            assert response.json()["error"]["code"] == "overloaded"
        assert endpoint.retry_after_hint() == 9

        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "held request never completed"
        assert statuses == [200, 200, 200]

        # Exact accounting, end to end: the gate and the /metrics document
        # both agree with the client.
        assert endpoint.gate.shed == 3
        assert endpoint.gate.admitted == 3
        endpoint.before_execute = None
        metrics = fetch_json(endpoint.url, "/metrics")
        assert metrics["endpoint"]["shed_load"] == 3
        # Idle again: the hint relaxes back to the configured base.
        assert endpoint.retry_after_hint() == 3

    def test_metrics_reads_admission_from_the_gate_alone(self, endpoint_factory):
        """N admitted and k shed requests show up once, under "endpoint"; the
        service counters carry no copy of endpoint, restart or breaker
        totals (their owners are the gate, the fleet monitor and the pool)."""
        endpoint, _service = endpoint_factory(
            triples=_fault_triples(),
            config=EndpointConfig(
                max_inflight=1, queue_depth=0, admission_timeout_seconds=30.0
            ),
        )
        in_slot = threading.Event()
        release = threading.Event()

        def hold(_query: str) -> None:
            in_slot.set()
            release.wait(timeout=30)

        endpoint.before_execute = hold
        held = threading.Thread(target=sparql_request, args=(endpoint.url, PROBE))
        held.start()
        try:
            assert in_slot.wait(timeout=10), "first request never reached execution"
            shed = 2
            for _ in range(shed):
                assert sparql_request(endpoint.url, PROBE).status == 503
        finally:
            release.set()
            held.join(timeout=30)
        assert not held.is_alive(), "held request never completed"
        endpoint.before_execute = None
        admitted = 4
        for _ in range(admitted - 1):
            assert sparql_request(endpoint.url, PROBE).status == 200

        metrics = fetch_json(endpoint.url, "/metrics")
        assert metrics["endpoint"]["admitted"] == admitted
        assert metrics["endpoint"]["shed_load"] == shed
        counters = metrics["service"]["counters"]
        for key in counters:
            assert not any(word in key for word in ("endpoint", "shed", "restart", "breaker"))

    def test_malformed_requests_never_consume_slots(self, endpoint_factory):
        """A 400 must come back even from a saturated endpoint: protocol
        validation happens before admission."""
        endpoint, _service = endpoint_factory(
            triples=_fault_triples(),
            config=EndpointConfig(
                max_inflight=1, queue_depth=0, admission_timeout_seconds=30.0
            ),
        )
        in_slot = threading.Event()
        release = threading.Event()
        endpoint.before_execute = lambda _q: (in_slot.set(), release.wait(timeout=30))

        blocker = threading.Thread(
            target=lambda: sparql_request(endpoint.url, PROBE, timeout=60)
        )
        blocker.start()
        assert in_slot.wait(timeout=10)
        try:
            bad = sparql_request(endpoint.url, "SELECT ?x WHERE { broken")
            assert bad.status == 400
            assert endpoint.gate.shed == 0  # validation failures are not sheds
        finally:
            release.set()
            blocker.join(timeout=30)


# --------------------------------------------------------------------------- #
# Multi-process fleet faults
# --------------------------------------------------------------------------- #
def _leader(tmp_path):
    """A leader service over the hand-written store, checkpointed to a root."""
    root = tmp_path / "snaps"
    dual = DualStore().load(_fault_triples())
    service = QueryService(dual, ServiceConfig())
    service.checkpoint(path=root)
    return root, dual, service


@pytest.mark.slow
class TestWorkerDeath:
    def test_kill_mid_request_is_clean_error_then_retried_success(self, tmp_path):
        root, _dual, service = _leader(tmp_path)
        expected = encode_results(service.run_query(PROBE).result)
        with WorkerSupervisor(
            root, workers=2, poll_interval=0.1, test_delay_seconds=0.5
        ) as fleet:
            fleet.wait_ready()
            victim_url = fleet.url(0)

            outcome: dict = {}

            def in_flight() -> None:
                try:
                    outcome["response"] = sparql_request(victim_url, PROBE, timeout=30)
                except TransportError as exc:
                    outcome["error"] = exc

            request = threading.Thread(target=in_flight)
            request.start()
            time.sleep(0.2)  # inside the worker's stretched execution window
            fleet.kill(0)
            request.join(timeout=15)
            # Never a hang: the request resolved promptly, and a response (the
            # kill racing completion) must be a real success, not a torn body.
            assert not request.is_alive(), "in-flight request hung after SIGKILL"
            assert outcome, "request neither returned nor raised"
            if "error" in outcome:
                assert isinstance(outcome["error"], TransportError)
            else:
                assert outcome["response"].status == 200
                assert outcome["response"].body == expected

            # The pool retries the dead replica onto the survivor.
            pool = EndpointPool([victim_url, fleet.url(1)], timeout=30)
            response = pool.query(PROBE)
            assert response.status == 200
            assert response.body == expected
            assert pool.transport_retries >= 1
        service.close()


@pytest.mark.slow
class TestHotReload:
    def test_mid_stream_commit_reloads_without_tearing(self, tmp_path):
        root, dual, service = _leader(tmp_path)
        g0 = dual.generation
        expected = {g0: encode_results(service.run_query(PROBE).result)}

        with WorkerSupervisor(root, workers=2, poll_interval=0.1) as fleet:
            fleet.wait_ready()
            urls = fleet.urls
            observed: dict[str, list] = {url: [] for url in urls}
            stop = threading.Event()

            def stream() -> None:
                while not stop.is_set():
                    for url in urls:
                        try:
                            response = sparql_request(url, PROBE, timeout=30)
                        except TransportError:
                            continue  # connection raced the swap; next lap
                        if response.status == 200:
                            observed[url].append((response.generation, response.body))

            client = threading.Thread(target=stream)
            client.start()
            try:
                # Both workers answer at g0 before the commit.
                for url in urls:
                    first = sparql_request(url, PROBE, timeout=30)
                    assert first.status == 200
                    assert first.generation == g0
                    assert first.body == expected[g0]

                # Leader mutates and publishes a new generation mid-stream.
                service.insert(
                    [Triple(YAGO.term("Carol"), YAGO.term("hasGivenName"), Literal("Carol"))]
                )
                g1 = dual.generation
                assert g1 > g0
                expected[g1] = encode_results(service.run_query(PROBE).result)
                assert expected[g1] != expected[g0]
                service.checkpoint(path=root)

                fleet.wait_generation(g1, timeout=30)
                # Keep streaming until every worker has *served* at g1.
                deadline = time.monotonic() + 30
                while not all(
                    any(generation == g1 for generation, _ in observed[url])
                    for url in urls
                ):
                    assert time.monotonic() < deadline, "workers never served g1"
                    time.sleep(0.05)
            finally:
                stop.set()
                client.join(timeout=30)
            assert not client.is_alive()

            for url in urls:
                stamps = [generation for generation, _ in observed[url]]
                assert stamps, f"no successful responses from {url}"
                # Only committed generations, never a torn in-between state...
                assert set(stamps) <= {g0, g1}
                # ...every body is exactly the store the stamp names...
                for generation, body in observed[url]:
                    assert body == expected[generation], (
                        f"torn response from {url}: generation {generation} "
                        f"returned a body from another store state"
                    )
                # ...and a sequential client never sees the clock run backwards.
                assert stamps == sorted(stamps), f"generation regressed on {url}"
            # The reload actually happened and was announced.
            assert all(fleet.generation(index) == g1 for index in range(2))
            assert any(
                (fleet.announce(index) or {}).get("reloads", 0) >= 1 for index in range(2)
            )
        service.close()
