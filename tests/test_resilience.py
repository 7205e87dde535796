"""The self-healing serving fleet: deadlines, breakers, supervision, chaos.

Four layers of coverage, from pure units to a live multi-process fleet:

* **deadline units + execution** — the cooperative-cancellation machinery
  (:mod:`repro.resilience.deadline`) and its wiring through the executors:
  an over-budget query raises :class:`QueryTimeoutError` within 2x its
  budget, frees its executor slot, and never perturbs concurrent in-budget
  queries;
* **circuit breaker + fault plan units** — deterministic state machines over
  injectable clocks and seeded schedules;
* **fleet monitor units** — the supervision sweep driven against a scripted
  fake supervisor and a fake clock (backoff, crash-loop quarantine, stuck
  detection) — no processes, no sleeps;
* **chaos suite** (``slow``) — a seeded :class:`FaultPlan` (worker SIGKILLs
  + injected transport I/O errors + latency spikes) over a real 4-worker
  fleet behind the circuit-breaking pool: the closed-loop workload completes
  with zero client-visible hangs, every answer byte-identical to the direct
  in-process answer, the monitor restores full fleet health, and the
  monitor's ``total_restarts``, the pool's ``breaker_opens`` and the
  services' ``query_timeouts`` match the injected schedule *exactly*.
"""

from __future__ import annotations

import os
import threading
import time
import urllib.parse

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
from repro.endpoint.client import EndpointResponse, TransportError
from repro.errors import QueryTimeoutError, SnapshotError
from repro.persist import SnapshotPolicy, SnapshotWatcher
from repro.rdf import IRI, Literal, Triple, TripleSet, YAGO
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSpec,
    FleetMonitor,
    InjectedFault,
    MonitorPolicy,
    current_deadline,
    deadline_scope,
    faults,
)
from repro.serve import QueryService, ServiceConfig
from repro.sparql import parse_query

#: A cheap query with a small, stable answer (byte-identity probes).
PROBE = "SELECT ?name WHERE { ?p y:hasGivenName ?name . }"
#: Two disjoint full scans joined by a cartesian product: millions of joined
#: tuples on the test datasets, so any sub-second deadline fires mid-join.
HEAVY = "SELECT ?a ?c WHERE { ?a ?p ?b . ?c ?q ?d . }"


class FakeClock:
    """A hand-advanced monotonic clock."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _mini_triples() -> TripleSet:
    given = YAGO.term("hasGivenName")
    return TripleSet(
        [
            Triple(YAGO.term("Alice"), given, Literal("Alice")),
            Triple(YAGO.term("Bob"), given, Literal("Bob")),
        ]
    )


# --------------------------------------------------------------------------- #
# Deadline: the unit machinery
# --------------------------------------------------------------------------- #
class TestDeadlineUnit:
    def test_check_raises_with_budget_and_partial_work(self):
        clock = FakeClock()
        deadline = Deadline(0.05, clock=clock)
        deadline.check()  # in budget: no-op
        clock.advance(0.06)
        assert deadline.expired()

        class Counters:
            def as_dict(self):
                return {"rows_scanned": 7}

        with pytest.raises(QueryTimeoutError) as excinfo:
            deadline.check(Counters())
        exc = excinfo.value
        assert exc.budget_seconds == 0.05
        assert exc.elapsed_seconds == pytest.approx(0.06)
        assert exc.partial_work == {"rows_scanned": 7}

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_scope_is_ambient_nested_and_none_safe(self):
        assert current_deadline() is None
        outer, inner = Deadline(1.0), Deadline(2.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(None):  # a None scope changes nothing
                assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_scope_is_thread_local(self):
        seen = {}
        with deadline_scope(Deadline(1.0)):
            thread = threading.Thread(
                target=lambda: seen.update(other=current_deadline())
            )
            thread.start()
            thread.join()
        assert seen["other"] is None


# --------------------------------------------------------------------------- #
# Deadline: through the service and both engines
# --------------------------------------------------------------------------- #
class TestDeadlineExecution:
    @pytest.fixture(scope="class")
    def heavy_service(self, yago_dataset):
        dual = DualStore().load(yago_dataset.triples)
        service = QueryService(dual, ServiceConfig())
        yield service
        service.close()

    def test_over_budget_query_times_out_within_2x_budget(self, heavy_service):
        budget = 0.05
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError) as excinfo:
            heavy_service.run_query(HEAVY, deadline_seconds=budget)
        wall = time.monotonic() - started
        exc = excinfo.value
        assert exc.budget_seconds == budget
        # The acceptance bound: cancellation lands within 2x the budget.
        assert exc.elapsed_seconds < 2 * budget
        assert wall < 2 * budget + 0.1  # wall includes plan/parse overhead
        assert exc.partial_work, "partial-work accounting missing"
        assert heavy_service.metrics.counters.query_timeouts >= 1

    def test_concurrent_in_budget_queries_are_unaffected(self, heavy_service):
        outcomes: list = []
        lock = threading.Lock()

        def in_budget() -> None:
            result = heavy_service.run_query(PROBE)
            with lock:
                outcomes.append(len(result.result.bindings))

        threads = [threading.Thread(target=in_budget) for _ in range(4)]
        for thread in threads:
            thread.start()
        with pytest.raises(QueryTimeoutError):
            heavy_service.run_query(HEAVY, deadline_seconds=0.05)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(outcomes) == 4
        assert len(set(outcomes)) == 1  # all four got the same full answer

    def test_100_timeouts_leak_no_threads_and_leave_the_service_serving(
        self, yago_dataset
    ):
        dual = DualStore().load(yago_dataset.triples)
        service = QueryService(dual, ServiceConfig())
        try:
            # Warm the service to its steady state so the stability
            # assertion below measures leakage, not lazy first-use setup.
            service.run_query(PROBE)
            for _ in range(5):
                with pytest.raises(QueryTimeoutError):
                    service.run_query(HEAVY, deadline_seconds=0.02)
            before = threading.active_count()
            base = service.metrics.counters.query_timeouts
            timeouts = 0
            for _ in range(100):
                try:
                    service.run_query(HEAVY, deadline_seconds=0.02)
                except QueryTimeoutError:
                    timeouts += 1
            assert timeouts == 100  # a timed-out query is never cached
            assert threading.active_count() <= before  # no thread leak
            assert service.metrics.counters.query_timeouts - base == 100
            # The service (and its gate) survived all 100 cancellations.
            assert len(service.run_query(PROBE).result.bindings) > 0
        finally:
            service.close()

    def test_default_deadline_from_service_config(self, yago_dataset):
        dual = DualStore().load(yago_dataset.triples)
        service = QueryService(
            dual, ServiceConfig(default_deadline_seconds=0.05)
        )
        try:
            with pytest.raises(QueryTimeoutError):
                service.run_query(HEAVY)  # no per-call deadline needed
            # A per-call budget overrides the configured default.
            assert service.run_query(PROBE, deadline_seconds=30.0).result.bindings
        finally:
            service.close()

    def test_graph_matcher_honors_the_ambient_deadline(self, yago_dataset):
        from repro.graphstore import GraphStore
        from repro.sparql import parse_query

        graph = GraphStore()
        born = YAGO.term("wasBornIn")
        graph.load_partition(born, (t for t in yago_dataset.triples if t.predicate == born))
        # Two unbound relationship-type scans over one predicate: the second
        # pattern explodes each row by every edge — millions of extensions.
        query = parse_query(
            "SELECT ?a WHERE { ?a y:wasBornIn ?b . ?c y:wasBornIn ?d . }"
        )
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)  # already expired: the first probe must fire
        with deadline_scope(deadline):
            with pytest.raises(QueryTimeoutError):
                graph.execute(query)

    def test_a_graph_type_scan_times_out_between_its_gather_chunks(self, monkeypatch):
        from repro.graphstore import GraphStore
        from repro.relstore import columnar

        ex = "http://example.org/scan/"
        edge = IRI(ex + "edge")
        graph = GraphStore()
        graph.load_partition(
            edge, [Triple(IRI(f"{ex}s{i}"), edge, IRI(f"{ex}o{i}")) for i in range(200)]
        )
        # The second relationship-type scan pairs 200 frontier rows with 200
        # edges: 40 000 rows, more than one gather chunk.
        query = parse_query(f"SELECT ?a WHERE {{ ?a <{edge.value}> ?b . ?c <{edge.value}> ?d . }}")
        assert 200 * 200 > columnar.GATHER_CHUNK_ROWS
        clock = FakeClock()
        chunks = []
        real_gather = columnar.gather

        def one_second_per_chunk(matches, *bounds):
            if bounds:  # a chunk of a deadline-chunked gather
                chunks.append(bounds)
                clock.advance(1.0)
            return real_gather(matches, *bounds)

        monkeypatch.setattr(columnar, "gather", one_second_per_chunk)
        with deadline_scope(Deadline(0.5, clock=clock)):
            with pytest.raises(QueryTimeoutError) as excinfo:
                graph.execute(query)
        assert len(chunks) == 1  # the probe before the second chunk fired
        # The scan was charged before its gather began.
        assert excinfo.value.partial_work["edges_traversed"] == 200 + 200 * 200


# --------------------------------------------------------------------------- #
# Deadline and work budget inside the columnar engine's batch kernels
# --------------------------------------------------------------------------- #
def _hot_key_triples(fan: int) -> list:
    """``fan`` rows of ``in`` all pointing at one hub, ``fan`` rows of ``out``
    all leaving it: ``?s in ?h . ?h out ?t`` is a *hash* join (one shared
    variable, no cartesian branch) whose single hot key yields fan^2 rows."""
    ex = "http://example.org/hot/"
    hub = IRI(ex + "hub")
    into, out = IRI(ex + "in"), IRI(ex + "out")
    return [Triple(IRI(f"{ex}s{i}"), into, hub) for i in range(fan)] + [
        Triple(hub, out, IRI(f"{ex}t{i}")) for i in range(fan)
    ]


HOT_JOIN = (
    "SELECT ?s ?t WHERE { ?s <http://example.org/hot/in> ?h . "
    "?h <http://example.org/hot/out> ?t . }"
)


# Each test writes its stores both ways (the shared ``writer`` fixture): the
# kernels must abort, chunk and price alike over blocks grown batch by batch.
class TestColumnarKernelsUnderDeadlineAndBudget:
    def test_hot_key_hash_join_of_millions_of_rows_times_out_in_budget(self, writer):
        dual = writer.dual(_hot_key_triples(2000))  # 4 000 000 joined rows
        service = QueryService(dual, ServiceConfig())
        try:
            budget = 0.05
            with pytest.raises(QueryTimeoutError) as excinfo:
                service.run_query(HOT_JOIN, deadline_seconds=budget)
            assert excinfo.value.elapsed_seconds < 2 * budget
            # The join was charged before its gather was emitted.
            assert excinfo.value.partial_work["rows_joined"] >= 4_000_000
        finally:
            service.close()

    def test_a_join_that_completes_under_a_deadline_equals_the_unchunked_one(
        self, writer, monkeypatch
    ):
        from repro.relstore import columnar

        dual = writer.dual(_hot_key_triples(300))  # 90 000 rows: in budget
        plain = dual.relational.execute(parse_query(HOT_JOIN))
        monkeypatch.setattr(columnar, "GATHER_CHUNK_ROWS", 1000)  # ~90 chunks
        with deadline_scope(Deadline(60.0)):
            chunked = dual.relational.execute(parse_query(HOT_JOIN))
        assert chunked.bindings == plain.bindings
        assert chunked.counters.as_dict() == plain.counters.as_dict()

    @staticmethod
    def _capped_outcome(store, query, budget, monkeypatch, spy=False):
        """``(partial work, execute_capped's answer, gather calls seen)`` of an
        over-budget run; with ``spy`` the engine's gather kernel is watched."""
        from repro.errors import WorkBudgetExceeded
        from repro.relstore import columnar

        gathers = []
        if spy:
            real_gather = columnar.gather
            monkeypatch.setattr(
                columnar, "gather", lambda *args: gathers.append(args) or real_gather(*args)
            )
        with pytest.raises(WorkBudgetExceeded) as excinfo:
            store.execute(query, work_budget=budget)
        return excinfo.value.partial_work, store.execute_capped(query, budget), gathers

    def test_capped_execution_prices_alike_and_never_allocates_the_gather(
        self, writer, monkeypatch
    ):
        from relational_oracle import ReferenceStore
        from repro.relstore import RelationalStore

        triples = _hot_key_triples(400)  # 160 000 joined rows, far over budget
        query = parse_query(HOT_JOIN)
        budget = 5_000.0
        oracle = ReferenceStore()
        oracle.load(triples)
        store = writer.write(RelationalStore(), triples)
        expected = self._capped_outcome(oracle, query, budget, monkeypatch)
        partial, capped, gathers = self._capped_outcome(store, query, budget, monkeypatch, spy=True)
        assert (partial, capped) == expected[:2]
        assert capped[0] is None  # capped: no result, only a price
        assert gathers == []  # the over-budget output was never materialized
        store.execute(query)
        assert gathers  # ...and the spy does see the gather of an unbudgeted run

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_capped_execution_matches_the_unsharded_store_and_never_gathers(
        self, writer, monkeypatch, shards
    ):
        """The sharded store runs the same loop, so its budget abort lands on
        the same step with the same partial work and the same capped price —
        before anything output-sized exists — whether the hot predicates sit
        on one shard or are spread by subject."""
        from repro.relstore import RelationalStore, ShardedRelationalStore, ShardingConfig

        triples = _hot_key_triples(400)
        query = parse_query(HOT_JOIN)
        budget = 5_000.0
        plain = RelationalStore()
        plain.load(triples)
        sharded = writer.write(
            ShardedRelationalStore(
                shards=shards, config=ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)
            ),
            triples,
        )
        assert bool(sharded.subject_sharded_predicates()) == (shards > 1)
        expected = self._capped_outcome(plain, query, budget, monkeypatch)
        partial, capped, gathers = self._capped_outcome(
            sharded, query, budget, monkeypatch, spy=True
        )
        assert (partial, capped) == expected[:2]
        assert capped[0] is None
        assert gathers == []
        assert sharded.execute(query).counters == plain.execute(query).counters
        assert gathers


# --------------------------------------------------------------------------- #
# Deadline: over the wire
# --------------------------------------------------------------------------- #
def _get(url: str) -> EndpointResponse:
    """GET an already-built /sparql URL, surfacing 4xx/5xx as data."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, method="GET")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return EndpointResponse(
                response.status,
                {k.lower(): v for k, v in response.headers.items()},
                response.read(),
            )
    except urllib.error.HTTPError as exc:
        with exc:
            return EndpointResponse(
                exc.code,
                {k.lower(): v for k, v in exc.headers.items()},
                exc.read(),
            )


class TestEndpointDeadline:
    def test_timeout_parameter_maps_to_machine_readable_504(self, endpoint_factory):
        endpoint, service = endpoint_factory()
        budget = 0.05
        started = time.monotonic()
        response = sparql_request(endpoint.url, HEAVY, deadline_seconds=budget)
        wall = time.monotonic() - started
        assert response.status == 504
        error = response.json()["error"]
        assert error["code"] == "query-timeout"
        assert error["budget_seconds"] == budget
        assert error["elapsed_seconds"] < 2 * budget
        assert error["partial_work"]
        assert wall < 2 * budget + 0.5  # HTTP + parse overhead on top
        # The slot was freed, not hung: the gate empties as soon as the
        # handler finishes writing the 504 (the release races our read of
        # the response by a hair), and the endpoint still serves.
        release_by = time.monotonic() + 5
        while endpoint.gate.occupancy > 0:
            assert time.monotonic() < release_by, "504 never freed its slot"
            time.sleep(0.005)
        assert service.metrics.counters.query_timeouts == 1
        assert sparql_request(endpoint.url, PROBE).status == 200

    def test_timeout_parameter_on_both_post_forms(self, endpoint_factory):
        endpoint, _service = endpoint_factory()
        form = sparql_request(
            endpoint.url, HEAVY, method="POST", deadline_seconds=0.05
        )
        assert form.status == 504
        direct = sparql_request(
            endpoint.url, HEAVY, method="POST", post_form=False, deadline_seconds=0.05
        )
        assert direct.status == 504

    @staticmethod
    def _slow_encoding(monkeypatch, clock: FakeClock) -> None:
        """Request deadlines read ``clock``, which only the encoder moves —
        one second per column chunk — and results encode 16 rows a chunk.
        However fast or slow the host, execution stays in budget and
        encoding does not."""
        from repro.endpoint import protocol
        from repro.relstore import columnar
        from repro.serve import service

        monkeypatch.setattr(service, "Deadline", lambda budget: Deadline(budget, clock=clock))
        monkeypatch.setattr(columnar, "GATHER_CHUNK_ROWS", 16)
        real_fragments = protocol._column_fragments

        def slow_fragments(*args):
            clock.advance(1.0)
            return real_fragments(*args)

        monkeypatch.setattr(protocol, "_column_fragments", slow_fragments)

    @staticmethod
    def _assert_encode_timeout(response, service, budget: float) -> None:
        assert response.status == 504
        error = response.json()["error"]
        assert error["code"] == "query-timeout"
        assert error["budget_seconds"] == budget
        assert error["partial_work"]["results_produced"] > 16  # the executed result's work
        assert service.metrics.counters.query_timeouts == 1

    def test_execute_fast_encode_slow_is_a_504(self, endpoint_factory, monkeypatch):
        endpoint, service = endpoint_factory(service_config=ServiceConfig(cache_results=False))
        self._slow_encoding(monkeypatch, FakeClock())
        budget = 0.05
        response = sparql_request(endpoint.url, PROBE, deadline_seconds=budget)
        self._assert_encode_timeout(response, service, budget)
        assert service.metrics.counters.executions == 1  # execution itself completed
        served = sparql_request(endpoint.url, PROBE)  # no deadline: the slot was freed
        assert served.status == 200
        assert served.body == encode_results(service.run_query(PROBE).result)

    def test_a_cached_large_result_under_a_short_deadline_is_a_504(
        self, endpoint_factory, monkeypatch
    ):
        endpoint, service = endpoint_factory()
        assert sparql_request(endpoint.url, PROBE).status == 200  # fills the result cache
        self._slow_encoding(monkeypatch, FakeClock())
        budget = 0.05
        response = sparql_request(endpoint.url, PROBE, deadline_seconds=budget)
        assert service.metrics.counters.result_cache_hits == 1  # nothing executed
        self._assert_encode_timeout(response, service, budget)

    def test_invalid_timeout_parameter_is_a_400(self, endpoint_factory):
        endpoint, _service = endpoint_factory(triples=_mini_triples())
        for bad in ("0", "-1", "nan", "inf", "soon"):
            params = urllib.parse.urlencode({"query": PROBE, "timeout": bad})
            response = _get(f"{endpoint.url}/sparql?{params}")
            assert response.status == 400, bad
            assert response.json()["error"]["code"] == "invalid-timeout"
        params = "query=" + urllib.parse.quote(PROBE) + "&timeout=1&timeout=2"
        response = _get(f"{endpoint.url}/sparql?{params}")
        assert response.status == 400
        assert response.json()["error"]["code"] == "duplicate-timeout"


# --------------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------------- #
class TestDrain:
    def test_drain_rejects_new_work_and_waits_for_inflight(self, endpoint_factory):
        endpoint, _service = endpoint_factory(
            triples=_mini_triples(), config=EndpointConfig(max_inflight=2)
        )
        in_slot = threading.Event()
        release = threading.Event()
        endpoint.before_execute = lambda _q: (in_slot.set(), release.wait(timeout=30))
        held = threading.Thread(
            target=lambda: sparql_request(endpoint.url, PROBE, timeout=60)
        )
        held.start()
        assert in_slot.wait(timeout=10)

        # Draining with a request in flight: times out, stays draining.
        assert endpoint.drain(timeout=0.1) is False
        assert endpoint.draining
        assert fetch_json(endpoint.url, "/healthz")["status"] == "draining"

        rejected = sparql_request(endpoint.url, PROBE)
        assert rejected.status == 503
        assert rejected.json()["error"]["code"] == "draining"
        assert rejected.retry_after is not None
        assert endpoint.drain_rejections == 1
        assert endpoint.gate.shed == 0  # drain rejections are not gate sheds
        metrics = fetch_json(endpoint.url, "/metrics")
        assert metrics["endpoint"]["draining"] is True
        assert metrics["endpoint"]["drain_rejections"] == 1

        release.set()
        held.join(timeout=30)
        assert not held.is_alive()
        assert endpoint.drain(timeout=5.0) is True  # in-flight work finished


# --------------------------------------------------------------------------- #
# Circuit breaker: the unit state machine
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def _breaker(self, **policy):
        clock = FakeClock()
        breaker = CircuitBreaker(BreakerPolicy(**policy), clock=clock)
        return breaker, clock

    def test_trips_after_consecutive_failures_only(self):
        breaker, _clock = self._breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # a success resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_open_resolves_to_half_open_after_the_reset_timeout(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_timeout_seconds=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe permit

    def test_half_open_probe_budget_then_success_closes(self):
        breaker, clock = self._breaker(
            failure_threshold=1, reset_timeout_seconds=1.0, half_open_probes=1
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert not breaker.allow()  # one probe permit, already consumed
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.opens == 1

    def test_half_open_probe_failure_retrips_with_a_fresh_timeout(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_timeout_seconds=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.opens == 2
        assert not breaker.allow()  # a fresh open with a fresh timeout
        clock.advance(1.0)
        assert breaker.allow()

    def test_failures_while_open_do_not_restamp_the_trip_time(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_timeout_seconds=2.0)
        breaker.record_failure()
        clock.advance(1.9)
        breaker.record_failure()  # fallback traffic failing while open
        clock.advance(0.2)  # 2.1s since the *original* trip
        assert breaker.allow()
        assert breaker.opens == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_timeout_seconds=-1)
        with pytest.raises(ValueError):
            BreakerPolicy(half_open_probes=0)


# --------------------------------------------------------------------------- #
# Fault plans: deterministic schedules
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_fires_exactly_at_its_ordinals(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="wal.write", at=2, kind="io-error"),
                FaultSpec(site="wal.write", at=5, kind="latency", latency_seconds=0.5),
            )
        )
        slept: list = []
        plan._sleep = slept.append
        plan.fire("wal.write")  # 1: clean
        with pytest.raises(InjectedFault):
            plan.fire("wal.write")  # 2: io-error
        plan.fire("wal.write")  # 3
        plan.fire("wal.write")  # 4
        plan.fire("wal.write")  # 5: latency
        assert slept == [0.5]
        assert plan.event_count("wal.write") == 5
        assert [spec.at for spec in plan.fired] == [2, 5]
        assert plan.event_count("snapshot.write") == 0

    def test_sites_count_independently(self):
        plan = FaultPlan(specs=(FaultSpec(site="snapshot.write", at=1, kind="io-error"),))
        plan.fire("wal.write")  # a different site's first event: clean
        with pytest.raises(InjectedFault):
            plan.fire("snapshot.write")

    def test_duplicate_ordinals_are_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(
                specs=(
                    FaultSpec(site="wal.write", at=1, kind="io-error"),
                    FaultSpec(site="wal.write", at=1, kind="latency"),
                )
            )

    def test_seeded_plans_are_reproducible(self):
        kwargs = dict(
            site_events={"pool.transport": 50, "wal.write": 20},
            io_error_rate=0.1,
            latency_rate=0.1,
            min_spacing=3,
        )
        first = FaultPlan.seeded(1234, **kwargs)
        second = FaultPlan.seeded(1234, **kwargs)
        assert first.specs == second.specs
        assert first.specs, "seed 1234 should schedule at least one fault"
        assert FaultPlan.seeded(99, **kwargs).specs != first.specs

    def test_seeded_min_spacing_is_enforced(self):
        plan = FaultPlan.seeded(
            7,
            site_events={"pool.transport": 200},
            io_error_rate=0.3,
            latency_rate=0.3,
            min_spacing=4,
        )
        ordinals = sorted(spec.at for spec in plan.specs)
        assert ordinals, "rates this high must schedule faults"
        gaps = [b - a for a, b in zip(ordinals, ordinals[1:])]
        assert all(gap > 4 for gap in gaps)

    def test_install_is_exclusive_and_fire_is_noop_without_a_plan(self):
        faults.fire("wal.write")  # no plan: must be a silent no-op
        plan = FaultPlan(specs=(FaultSpec(site="wal.write", at=1, kind="io-error"),))
        with faults.injected(plan):
            with pytest.raises(RuntimeError):
                faults.install(FaultPlan())
            with pytest.raises(InjectedFault):
                faults.fire("wal.write")
        faults.fire("wal.write")  # uninstalled again
        assert plan.event_count("wal.write") == 1

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            FaultSpec(site="wal.write", at=0, kind="io-error")
        with pytest.raises(ValueError):
            FaultSpec(site="wal.write", at=1, kind="explode")


# --------------------------------------------------------------------------- #
# Fault sites in the persist layer
# --------------------------------------------------------------------------- #
class TestPersistFaultSites:
    def test_wal_append_io_error_is_absorbed_and_reanchored(self, tmp_path):
        root = tmp_path / "snaps"
        dual = DualStore().load(_mini_triples())
        service = QueryService(
            dual, ServiceConfig(snapshot=SnapshotPolicy(path=root, log=True))
        )
        try:
            service.checkpoint()  # opens the log (the segment header write)
            given = YAGO.term("hasGivenName")
            plan = FaultPlan(
                # Counting starts at install, after the header: the 2nd
                # wal.write the plan observes is the 2nd insert's append.
                specs=(FaultSpec(site="wal.write", at=2, kind="io-error"),)
            )
            with faults.injected(plan):
                service.insert([Triple(YAGO.term("C1"), given, Literal("C1"))])
                assert service.metrics.counters.wal_records == 1
                service.insert([Triple(YAGO.term("C2"), given, Literal("C2"))])
            # The injected failure was absorbed: counted, recorded, never
            # raised out of the mutation — and the log closed.
            assert service.metrics.counters.wal_failures == 1
            assert isinstance(service.last_wal_error, InjectedFault)
            assert service.metrics.counters.wal_records == 1
            # The store itself is intact and serving.
            assert len(service.run_query(PROBE).result.bindings) == 4
            # The next snapshot commit re-anchors the log; appends resume.
            service.checkpoint()
            service.insert([Triple(YAGO.term("C3"), given, Literal("C3"))])
            assert service.metrics.counters.wal_records == 2
        finally:
            service.close()

    def test_snapshot_write_fault_never_moves_the_commit_point(self, tmp_path):
        root = tmp_path / "snaps"
        dual = DualStore().load(_mini_triples())
        service = QueryService(dual, ServiceConfig())
        try:
            first = service.checkpoint(path=root)
            plan = FaultPlan(
                specs=(FaultSpec(site="snapshot.write", at=1, kind="io-error"),)
            )
            # An explicit checkpoint propagates the write failure verbatim.
            with faults.injected(plan):
                with pytest.raises(InjectedFault):
                    service.checkpoint(path=root)
            # CURRENT still names the earlier snapshot — never a torn store.
            watcher = SnapshotWatcher(root)
            assert watcher.committed_name() == first.name
            assert service.metrics.counters.snapshot_failures == 1
            # The next attempt (no plan) commits and advances the pointer.
            second = service.checkpoint(path=root)
            assert watcher.committed_name() == second.name
        finally:
            service.close()

    def test_snapshot_publish_fault_leaves_previous_commit_loadable(self, tmp_path):
        from repro.persist import load_snapshot

        root = tmp_path / "snaps"
        dual = DualStore().load(_mini_triples())
        service = QueryService(dual, ServiceConfig())
        try:
            first = service.checkpoint(path=root)
            given = YAGO.term("hasGivenName")
            service.insert([Triple(YAGO.term("C1"), given, Literal("C1"))])
            plan = FaultPlan(
                specs=(FaultSpec(site="snapshot.publish", at=1, kind="io-error"),)
            )
            with faults.injected(plan):
                with pytest.raises(InjectedFault):
                    service.checkpoint(path=root)
            restored = load_snapshot(root)
            assert restored.manifest.name == first.name
            assert restored.dual.generation == first.generation
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# EndpointPool breaker integration (stubbed transport, fake clock)
# --------------------------------------------------------------------------- #
class TestPoolBreakers:
    @staticmethod
    def _pool(scripts, monkeypatch, **kwargs):
        """A pool whose transport replays per-URL outcome scripts (an
        exception to raise or a status to return); sleeps are swallowed."""
        from repro.endpoint import client as client_module

        calls: list = []

        def transport(url, query, **_kwargs):
            calls.append(url)
            outcome = scripts[url].pop(0)
            if isinstance(outcome, BaseException):
                raise outcome
            return EndpointResponse(outcome, {}, b"body")

        monkeypatch.setattr(client_module.time, "sleep", lambda _s: None)
        pool = EndpointPool(list(scripts), transport=transport, **kwargs)
        return pool, calls

    def test_open_breaker_is_skipped_then_probed_after_reset(self, monkeypatch):
        clock = FakeClock()
        scripts = {
            "http://a": [ConnectionError("down"), ConnectionError("down"), 200],
            "http://b": [200, 200, 200, 200],
        }
        pool, calls = self._pool(
            scripts,
            monkeypatch,
            breaker_policy=BreakerPolicy(failure_threshold=2, reset_timeout_seconds=5.0),
            breaker_clock=clock,
        )
        assert pool.query(PROBE).status == 200  # a fails(1), b answers
        assert pool.query(PROBE).status == 200  # a fails(2) -> OPEN, b answers
        assert pool.breaker_opens == 1
        assert pool.breakers["http://a"].state == OPEN
        assert pool.query(PROBE).status == 200  # a skipped entirely
        assert pool.query(PROBE).status == 200
        assert calls == ["http://a", "http://b", "http://a", "http://b", "http://b", "http://b"]
        clock.advance(5.0)  # reset timeout elapses -> half-open probe
        assert pool.query(PROBE).status == 200  # the probe hits a, succeeds
        assert pool.breakers["http://a"].state == CLOSED
        assert pool.breaker_opens == 1  # recovery never re-counted a trip
        assert calls[-1] == "http://a"

    def test_504_is_not_a_breaker_failure(self, monkeypatch):
        scripts = {"http://a": [504, 504, 504, 504]}
        pool, _calls = self._pool(
            scripts, monkeypatch, breaker_policy=BreakerPolicy(failure_threshold=2)
        )
        for _ in range(4):
            response = pool.query(PROBE)
            assert response.status == 504  # returned as-is, never retried
        assert pool.breaker_opens == 0
        assert pool.breakers["http://a"].state == CLOSED

    def test_500s_do_count_as_breaker_failures(self, monkeypatch):
        scripts = {"http://a": [500, 500, 500]}
        pool, _calls = self._pool(
            scripts, monkeypatch, breaker_policy=BreakerPolicy(failure_threshold=2)
        )
        assert pool.query(PROBE).status == 500
        assert pool.query(PROBE).status == 500
        assert pool.breaker_opens == 1

    def test_all_open_falls_back_to_round_robin_never_wedges(self, monkeypatch):
        scripts = {"http://a": [ConnectionError("down")] * 6}
        pool, calls = self._pool(
            scripts,
            monkeypatch,
            max_attempts=2,
            breaker_policy=BreakerPolicy(failure_threshold=1, reset_timeout_seconds=999),
        )
        with pytest.raises(ConnectionError):
            pool.query(PROBE)  # first failure opens the only breaker
        assert pool.breaker_opens == 1
        with pytest.raises(ConnectionError):
            pool.query(PROBE)  # still issued: an all-open pool keeps trying
        assert len(calls) == 4
        assert pool.breaker_opens == 1  # failures while open are not re-trips

    def test_breakers_can_be_disabled(self, monkeypatch):
        scripts = {"http://a": [ConnectionError("down"), 200]}
        pool, _calls = self._pool(scripts, monkeypatch, breaker_policy=None)
        assert pool.breakers is None
        assert pool.query(PROBE).status == 200
        assert pool.breaker_opens == 0

    def test_pool_transport_fault_site_injects_before_the_wire(self, monkeypatch):
        scripts = {"http://a": [200], "http://b": [200]}
        pool, calls = self._pool(scripts, monkeypatch)
        plan = FaultPlan(
            specs=(FaultSpec(site="pool.transport", at=1, kind="io-error"),)
        )
        with faults.injected(plan):
            response = pool.query(PROBE)
        assert response.status == 200
        assert pool.transport_retries == 1  # the injected fault was retried
        assert len(calls) == 1  # attempt 1 never reached the stub transport
        assert plan.event_count("pool.transport") == 2
        assert [spec.at for spec in plan.fired] == [1]


# --------------------------------------------------------------------------- #
# FleetMonitor: the supervision sweep against a scripted fake fleet
# --------------------------------------------------------------------------- #
class FakeSupervisor:
    """A WorkerSupervisor stand-in with scriptable liveness."""

    def __init__(self, workers: int = 2, revive_on_restart: bool = True):
        self.alive = {i: True for i in range(workers)}
        self.announced = {i: {"port": 1000 + i} for i in range(workers)}
        self.restarted: list = []
        self.revive_on_restart = revive_on_restart

    def worker_indexes(self):
        return sorted(self.alive)

    def is_alive(self, index):
        return self.alive[index]

    def announce(self, index):
        return self.announced.get(index)

    def url(self, index):
        return f"http://fake:{1000 + index}"

    def restart(self, index):
        self.restarted.append(index)
        if self.revive_on_restart:
            self.alive[index] = True


class TestFleetMonitor:
    def _monitor(self, supervisor, clock, *, probe=None, **policy):
        return FleetMonitor(
            supervisor,
            MonitorPolicy(**policy),
            probe=probe if probe is not None else (lambda _url: True),
            clock=clock,
        )

    def test_dead_worker_is_restarted(self):
        clock = FakeClock()
        fleet = FakeSupervisor(workers=3)
        monitor = self._monitor(fleet, clock)
        fleet.alive[1] = False
        monitor.poll_once()
        assert fleet.restarted == [1]
        assert monitor.total_restarts == 1
        assert monitor.restarts == {1: 0 + 1}
        monitor.poll_once()  # revived and healthy: nothing more to do
        assert fleet.restarted == [1]

    def test_restart_backoff_doubles_and_is_reset_by_health(self):
        clock = FakeClock()
        fleet = FakeSupervisor(workers=1, revive_on_restart=False)
        monitor = self._monitor(
            fleet, clock, backoff_base_seconds=0.2, backoff_cap_seconds=10.0,
            crash_loop_threshold=99,
        )
        fleet.alive[0] = False
        monitor.poll_once()
        assert len(fleet.restarted) == 1
        monitor.poll_once()  # 0.2s backoff: no immediate second restart
        assert len(fleet.restarted) == 1
        clock.advance(0.25)
        monitor.poll_once()
        assert len(fleet.restarted) == 2
        clock.advance(0.25)  # second backoff is 0.4s: still waiting
        monitor.poll_once()
        assert len(fleet.restarted) == 2
        clock.advance(0.2)
        monitor.poll_once()
        assert len(fleet.restarted) == 3
        # A healthy probe resets the consecutive count (and the backoff).
        fleet.alive[0] = True
        clock.advance(1.0)
        monitor.poll_once()
        fleet.alive[0] = False
        clock.advance(2.0)
        monitor.poll_once()
        assert len(fleet.restarted) == 4
        monitor.poll_once()
        assert len(fleet.restarted) == 4  # back to the 0.2s base backoff
        clock.advance(0.25)
        monitor.poll_once()
        assert len(fleet.restarted) == 5

    def test_crash_loop_quarantine_then_retry_after_it_lifts(self):
        clock = FakeClock()
        fleet = FakeSupervisor(workers=1, revive_on_restart=False)
        monitor = self._monitor(
            fleet,
            clock,
            backoff_base_seconds=0.0,
            crash_loop_threshold=3,
            crash_loop_window_seconds=100.0,
            quarantine_seconds=50.0,
        )
        fleet.alive[0] = False
        for _ in range(3):
            monitor.poll_once()
            clock.advance(0.1)
        assert len(fleet.restarted) == 3
        monitor.poll_once()  # the 4th would exceed the threshold: quarantine
        assert len(fleet.restarted) == 3
        assert monitor.quarantines == 1
        assert 0 in monitor.quarantined_until
        for _ in range(5):  # quarantined: the monitor leaves it alone
            clock.advance(1.0)
            monitor.poll_once()
        assert len(fleet.restarted) == 3
        clock.advance(50.0)  # quarantine served: healing resumes
        monitor.poll_once()
        assert len(fleet.restarted) == 4
        assert monitor.quarantined_until == {}

    def test_stuck_worker_is_restarted_after_the_stuck_window(self):
        clock = FakeClock()
        fleet = FakeSupervisor(workers=1)
        health = {"ok": True}
        monitor = self._monitor(
            fleet, clock, probe=lambda _url: health["ok"], stuck_after_seconds=15.0
        )
        monitor.poll_once()  # healthy baseline
        health["ok"] = False  # alive but wedged
        clock.advance(10.0)
        monitor.poll_once()
        assert fleet.restarted == []  # inside the stuck window
        clock.advance(6.0)
        monitor.poll_once()
        assert fleet.restarted == [0]


# --------------------------------------------------------------------------- #
# SnapshotWatcher under races (satellite: commit races + missing directory)
# --------------------------------------------------------------------------- #
class TestSnapshotWatcherRaces:
    def test_current_naming_a_missing_directory_retries_without_advancing(
        self, tmp_path
    ):
        root = tmp_path / "snaps"
        dual = DualStore().load(_mini_triples())
        service = QueryService(dual, ServiceConfig())
        try:
            manifest = service.checkpoint(path=root)
        finally:
            service.close()
        hidden = root / f"{manifest.name}.hidden"
        os.rename(root / manifest.name, hidden)

        watcher = SnapshotWatcher(root)
        # The pointer is readable but the directory it names is gone (the
        # transient state a slow NFS rename or an aggressive prune exposes):
        # poll reports nothing and must NOT advance its cursor.
        assert watcher.committed_name() == manifest.name
        assert watcher.poll() is None
        assert watcher.load_if_newer() is None

        os.rename(hidden, root / manifest.name)  # the directory reappears
        seen = watcher.poll()
        assert seen is not None and seen.name == manifest.name
        # ... exactly once: the generation was retried, never skipped.
        assert watcher.poll() is None

    def test_repeated_commit_races_never_regress_or_skip_the_head(self, tmp_path):
        root = tmp_path / "snaps"
        dual = DualStore().load(_mini_triples())
        service = QueryService(dual, ServiceConfig())
        observed: list = []
        stop = threading.Event()
        watcher = SnapshotWatcher(root)

        def follow() -> None:
            while not stop.is_set():
                try:
                    restored = watcher.load_if_newer(attempts=5)
                except SnapshotError:
                    continue  # lost a race to a prune; the cursor retries it
                if restored is not None:
                    observed.append(restored.dual.generation)
                else:
                    time.sleep(0.002)  # nothing new committed yet

        try:
            service.checkpoint(path=root, keep=2)
            follower = threading.Thread(target=follow)
            follower.start()
            given = YAGO.term("hasGivenName")
            # Tight retention (keep=2) + rapid commits: loads race prunes.
            for i in range(8):
                service.insert([Triple(YAGO.term(f"P{i}"), given, Literal(f"P{i}"))])
                service.checkpoint(path=root, keep=2)
            final = dual.generation
            deadline = time.monotonic() + 30
            while not observed or observed[-1] < final:
                assert time.monotonic() < deadline, (
                    f"follower never converged: observed {observed}, want {final}"
                )
                time.sleep(0.01)
            stop.set()
            follower.join(timeout=30)
            assert not follower.is_alive()
            # Generations only ever move forward, and the head was reached.
            assert all(a < b for a, b in zip(observed, observed[1:]))
            assert observed[-1] == final
        finally:
            stop.set()
            service.close()


# --------------------------------------------------------------------------- #
# The chaos suite: a real fleet under a seeded schedule (slow)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestChaosFleet:
    def test_seeded_chaos_serves_exactly_and_reconverges(self, tmp_path, yago_dataset):
        root = tmp_path / "snaps"
        dual = DualStore().load(yago_dataset.triples)
        leader = QueryService(dual, ServiceConfig())
        leader.checkpoint(path=root)
        expected = encode_results(leader.run_query(PROBE).result)
        generation = dual.generation

        fleet = WorkerSupervisor(root, workers=4, poll_interval=0.1)
        monitor = None
        try:
            fleet.start().wait_ready()
            urls = fleet.urls
            pool = EndpointPool(
                urls,
                timeout=30,
                max_attempts=16,
                retry_backoff_seconds=0.02,
                breaker_policy=BreakerPolicy(
                    failure_threshold=2, reset_timeout_seconds=0.75
                ),
            )
            monitor = FleetMonitor(
                fleet,
                MonitorPolicy(
                    probe_interval_seconds=0.1,
                    stuck_after_seconds=10.0,
                    backoff_base_seconds=0.1,
                ),
            ).start()

            def drive(n: int) -> None:
                """n closed-loop requests; every answer must be byte-exact."""
                for _ in range(n):
                    response = pool.query(PROBE)
                    assert response.status == 200
                    assert response.body == expected
                    assert response.generation == generation

            # ---- Phase 1: query deadlines fire as machine-readable 504s.
            deadline_504s = 3
            for _ in range(deadline_504s):
                response = pool.query(HEAVY, deadline_seconds=0.04)
                assert response.status == 504
                assert response.json()["error"]["code"] == "query-timeout"
            timeouts_seen = sum(
                fetch_json(url, "/metrics")["service"]["counters"]["query_timeouts"]
                for url in urls
            )
            assert timeouts_seen == deadline_504s
            assert pool.breaker_opens == 0  # a 504 never poisons a replica

            # ---- Phase 2: seeded transport faults (latency + I/O errors).
            plan = FaultPlan.seeded(
                20260808,
                site_events={"pool.transport": 60},
                io_error_rate=0.10,
                latency_rate=0.15,
                latency_seconds=0.03,
                min_spacing=2 * len(urls),  # spread >= 2 round-robin laps
            )
            kinds = [spec.kind for spec in plan.specs]
            assert "io-error" in kinds and "latency" in kinds, "seed must inject both"
            with faults.injected(plan):
                drive(40)
            injected_io = [s for s in plan.fired if s.kind == "io-error"]
            assert injected_io, "the drive must have hit injected I/O errors"
            assert pool.transport_retries == len(injected_io)
            # min_spacing keeps failures non-consecutive per replica: the
            # breakers absorbed every injected error without one trip.
            assert pool.breaker_opens == 0

            # ---- Phase 3: worker SIGKILLs; the monitor heals the fleet.
            kills = [1, 3]
            for count, victim in enumerate(kills, start=1):
                pinned_port = fleet.announce(victim)["port"]
                fleet.kill(victim)
                assert fleet.announce(victim) is None  # stale announce gone
                drive(3 * len(urls))  # served throughout the outage
                assert pool.breaker_opens == count  # one trip per kill
                monitor.wait_healthy(timeout=60)
                # The replacement re-bound the same port, so the pool's URL
                # (and its breaker) still point at the live worker.
                assert fleet.announce(victim)["port"] == pinned_port
                # The monitor can heal faster than the breaker's reset
                # timeout; wait for open -> half-open before driving the
                # traffic whose probe re-closes it.
                breaker = pool.breakers[fleet.url(victim)]
                settle_by = time.monotonic() + 10
                while breaker.state == OPEN:
                    assert time.monotonic() < settle_by, "breaker never reset"
                    time.sleep(0.02)
                drive(2 * len(urls))  # half-open probe re-closes the breaker
                assert breaker.state == CLOSED
                assert pool.breaker_opens == count  # recovery added no trips

            # ---- Converged: exact fleet-wide accounting, read from the
            # owners (the monitor's restarts, the pool's breaker trips).
            assert monitor.total_restarts == len(kills)
            assert monitor.quarantines == 0
            assert pool.breaker_opens == len(kills)
            assert pool.shed_retries == 0  # nothing was shed: no lost work
        finally:
            if monitor is not None:
                monitor.stop()
            fleet.stop()
            leader.close()

    def test_sigterm_drains_before_the_socket_closes(self, tmp_path):
        """Graceful worker shutdown: TERM (supervisor.restart's first step)
        lets the worker drain; the announce file from the replaced process
        is refreshed by its successor rather than left stale."""
        root = tmp_path / "snaps"
        dual = DualStore().load(_mini_triples())
        leader = QueryService(dual, ServiceConfig())
        leader.checkpoint(path=root)
        expected = encode_results(leader.run_query(PROBE).result)
        try:
            with WorkerSupervisor(root, workers=1, poll_interval=0.1) as fleet:
                fleet.wait_ready()
                url = fleet.url(0)
                first_pid = fleet.announce(0)["pid"]
                assert sparql_request(url, PROBE).body == expected
                fleet.restart(0)
                fleet.wait_ready()
                info = fleet.announce(0)
                assert info["pid"] != first_pid
                assert f"http://127.0.0.1:{info['port']}" == url  # port pinned
                deadline = time.monotonic() + 30
                while True:
                    try:
                        assert sparql_request(url, PROBE, timeout=10).body == expected
                        break
                    except TransportError:
                        assert time.monotonic() < deadline
                        time.sleep(0.05)
        finally:
            leader.close()
