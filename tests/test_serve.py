"""Tests for the serving layer: caches, freshness, batching, metrics."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro import DualStore, QueryService, ServiceConfig, generate_yago, parse_query, yago_workload
from repro.endpoint import encode_results
from repro.core.processor import ProcessedQuery
from repro.lru import LRUCache
from repro.rdf import Triple, YAGO
from repro.serve.metrics import LatencyDigest, ServiceCounters
from repro.serve.plan_cache import PlanCache, QueryPlan
from repro.sparql.parser import canonical_query_text

ADVISOR_QUERY = """
SELECT ?p WHERE {
  ?p y:wasBornIn ?city .
  ?p y:hasAcademicAdvisor ?a .
  ?a y:wasBornIn ?city .
}
"""


@pytest.fixture(scope="module")
def dataset():
    return generate_yago(target_triples=2500, seed=7)


@pytest.fixture()
def dual(dataset):
    return DualStore().load(dataset.triples)


@pytest.fixture()
def service(dual):
    with QueryService(dual) as svc:
        yield svc


# ---------------------------------------------------------------------- #
# Canonicalization
# ---------------------------------------------------------------------- #
class TestCanonicalQueryText:
    def test_whitespace_and_comments_are_ignored(self):
        spaced = "SELECT ?x  WHERE {\n  ?x y:wasBornIn ?c . # a comment\n}"
        tight = "select ?x where { ?x y:wasBornIn ?c . }"
        assert canonical_query_text(spaced) == canonical_query_text(tight)

    def test_lexical_differences_are_preserved(self):
        a = canonical_query_text("SELECT ?x WHERE { ?x y:wasBornIn ?c . }")
        b = canonical_query_text("SELECT ?x WHERE { ?x y:diedIn ?c . }")
        assert a != b

    def test_iri_and_pname_cannot_collide(self):
        iri = canonical_query_text("SELECT ?x WHERE { ?x <y:p> ?c . }")
        pname = canonical_query_text("SELECT ?x WHERE { ?x y:p ?c . }")
        assert iri != pname


# ---------------------------------------------------------------------- #
# Plan cache
# ---------------------------------------------------------------------- #
class TestPlanCache:
    def test_resolve_hits_on_repeated_text(self, service):
        service.resolve(ADVISOR_QUERY)
        assert service.metrics.counters.plan_cache_misses == 1
        service.resolve("  " + ADVISOR_QUERY.replace("\n", " "))
        assert service.metrics.counters.plan_cache_hits == 1
        assert service.metrics.counters.plan_cache_misses == 1

    def test_resolve_identifies_complex_subquery_once(self, service):
        plan = service.resolve(ADVISOR_QUERY)
        assert plan.complex_subquery is not None
        again = service.resolve(ADVISOR_QUERY)
        assert again is plan  # the very same cached object

    def test_parsed_queries_use_deterministic_key(self, service):
        query = parse_query(ADVISOR_QUERY)
        service.resolve(query)
        assert service.resolve(parse_query(ADVISOR_QUERY)).key == canonical_query_text(query.to_sparql())
        assert service.metrics.counters.plan_cache_hits == 1

    def test_parsed_query_and_its_text_form_share_one_plan(self, service):
        query = parse_query(ADVISOR_QUERY)
        plan_from_ast = service.resolve(query)
        plan_from_text = service.resolve(query.to_sparql())
        assert plan_from_text is plan_from_ast
        assert service.metrics.counters.plan_cache_hits == 1

    def test_mixed_form_submissions_deduplicate_in_a_batch(self, service):
        query = parse_query(ADVISOR_QUERY)
        served = service.run_batch([query, query.to_sparql()])
        assert len(served.records) == 2
        assert service.metrics.counters.executions == 1
        assert served.coalesced == 1

    def test_lru_capacity_eviction(self):
        cache = PlanCache(capacity=2)
        q = parse_query("SELECT ?x WHERE { ?x y:wasBornIn ?c . }")
        for key in ("a", "b", "c"):
            cache.put(QueryPlan(key=key, query=q, complex_subquery=None))
        assert len(cache) == 2
        assert "a" not in cache and "c" in cache

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


# ---------------------------------------------------------------------- #
# Result cache + freshness contract (the read stamp)
# ---------------------------------------------------------------------- #
class TestResultCacheFreshness:
    def test_second_serve_is_a_cache_hit_and_byte_identical(self, service, fingerprint):
        cold = service.run_query(ADVISOR_QUERY)
        warm = service.run_query(ADVISOR_QUERY)
        assert not cold.record.from_cache
        assert warm.record.from_cache
        assert fingerprint(warm.result) == fingerprint(cold.result)
        assert warm.record.seconds == cold.record.seconds
        assert warm.record.route == cold.record.route

    def test_insert_to_a_read_predicate_invalidates(self, service):
        cold = service.run_query(ADVISOR_QUERY)
        assert len(service.result_cache) == 1
        hal, alice = YAGO.term("Hal"), YAGO.term("Alice")
        service.insert([
            Triple(hal, YAGO.term("wasBornIn"), YAGO.term("Berlin")),
            Triple(hal, YAGO.term("hasAcademicAdvisor"), alice),
            Triple(alice, YAGO.term("wasBornIn"), YAGO.term("Berlin")),
        ])
        assert len(service.result_cache) == 1  # dropped at lookup, not by a hook
        after = service.run_query(ADVISOR_QUERY)
        assert not after.record.from_cache
        assert service.metrics.counters.invalidation_events == 1
        assert len(after.result) == len(cold.result) + 1  # Hal

    def test_insert_to_an_unread_predicate_keeps_the_entry(self, service, fingerprint):
        cold = service.run_query(ADVISOR_QUERY)
        generation = service.dual.generation
        service.insert([Triple(YAGO.term("Hal"), YAGO.term("isMarriedTo"), YAGO.term("Alice"))])
        warm = service.run_query(ADVISOR_QUERY)
        assert warm.record.from_cache
        assert fingerprint(warm.result) == fingerprint(cold.result)
        assert service.metrics.counters.invalidation_events == 0
        # The hit is stamped with the generation that served it.
        assert warm.generation == service.dual.generation == generation + 1

    def test_transfer_partition_invalidates_and_reroutes(self, service, dual, fingerprint):
        cold = service.run_query(ADVISOR_QUERY)
        assert cold.record.route == "relational"
        for predicate in parse_query(ADVISOR_QUERY).predicates():
            service.transfer_partition(predicate)
        warm = service.run_query(ADVISOR_QUERY)
        assert not warm.record.from_cache
        assert warm.record.route == "graph"
        assert fingerprint(warm.result) == fingerprint(cold.result)
        assert service.metrics.counters.invalidation_events == 1

    def test_evict_partition_invalidates(self, service, dual):
        predicates = sorted(parse_query(ADVISOR_QUERY).predicates(), key=lambda p: p.value)
        for predicate in predicates:
            service.transfer_partition(predicate)
        graph_served = service.run_query(ADVISOR_QUERY)
        assert graph_served.record.route == "graph"
        service.evict_partition(predicates[0])
        back = service.run_query(ADVISOR_QUERY)
        assert not back.record.from_cache
        assert back.record.route == "relational"
        assert service.metrics.counters.invalidation_events == 1

    def test_stamp_check_rejects_stale_entries(self, service, dual):
        # Plant an entry under a stamp the store has moved past: the lookup
        # drops it, and the serve that met it counts the drop.
        cold = service.run_query(ADVISOR_QUERY)
        plan = service.resolve(ADVISOR_QUERY)
        stamp = dual.read_stamp(plan.query)
        planted = ProcessedQuery(result=cold.result, record=cold.record)
        service.result_cache.put(plan.key, planted, ("outdated",))
        assert service.result_cache.get(plan.key, stamp) == (None, True)
        assert len(service.result_cache) == 0  # dropped on sight
        service.result_cache.put(plan.key, planted, ("outdated",))
        assert not service.run_query(ADVISOR_QUERY).record.from_cache
        assert service.metrics.counters.invalidation_events == 1
        assert service.result_cache.get(plan.key, stamp)[0] is not None

    def test_load_bumps_generation(self, dataset):
        dual = DualStore()
        assert dual.generation == 0
        dual.load(dataset.triples)
        assert dual.generation == 1

    def test_close_leaves_the_store_working(self, dual, dataset):
        service = QueryService(dual)
        service.run_query(ADVISOR_QUERY)
        service.close()
        before = dual.generation
        dual.insert([next(iter(dataset.triples))])  # nothing calls into the closed service
        assert dual.generation == before + 1
        assert service.metrics.counters.invalidation_events == 0

    def test_closed_service_refuses_to_serve(self, dual):
        service = QueryService(dual)
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError):
            service.run_query(ADVISOR_QUERY)

    def test_consumer_mutation_cannot_corrupt_the_cache(self, service, fingerprint):
        cold = service.run_query(ADVISOR_QUERY)
        pristine = fingerprint(cold.result)
        cold.result.bindings.clear()  # a consumer post-processing in place
        warm = service.run_query(ADVISOR_QUERY)
        assert warm.record.from_cache
        assert fingerprint(warm.result) == pristine
        warm.result.bindings.clear()  # mutating a hit must not corrupt either
        again = service.run_query(ADVISOR_QUERY)
        assert fingerprint(again.result) == pristine

    def test_cache_put_and_hit_share_columns_and_build_no_row_objects(self, service, no_row_views):
        """The cache stores and serves the columnar value: a put, a hit and a
        within-batch duplicate are O(1) views over one set of columns."""
        cold = service.run_query(ADVISOR_QUERY)
        warm = service.run_query(ADVISOR_QUERY)
        first, duplicate = service.run_batch([ADVISOR_QUERY, ADVISOR_QUERY]).executions
        assert warm.record.from_cache and first.record.from_cache and duplicate.record.from_cache
        columns = cold.result.columns
        assert all(e.result.columns is columns for e in (warm, first, duplicate))
        assert len(warm.result) == len(cold.result) == columns.count > 0
        assert encode_results(warm.result) == encode_results(cold.result)
        no_row_views.undo()
        assert warm.result.bindings == cold.result.bindings
        assert warm.result.bindings is not cold.result.bindings
        assert warm.result.counters is not cold.result.counters

    def test_cache_results_disabled(self, dual):
        with QueryService(dual, ServiceConfig(cache_results=False)) as service:
            service.run_query(ADVISOR_QUERY)
            service.run_query(ADVISOR_QUERY)
            assert service.metrics.counters.result_cache_hits == 0
            assert service.metrics.counters.executions == 2
            assert len(service.result_cache) == 0

    def test_result_cache_lru_eviction(self, dual):
        with QueryService(dual) as service:
            service.result_cache.capacity = 1
            other = "SELECT ?p WHERE { ?p y:hasAcademicAdvisor ?a . }"
            service.run_query(ADVISOR_QUERY)
            service.run_query(other)
            assert len(service.result_cache) == 1
            assert service.resolve(ADVISOR_QUERY).key not in service.result_cache
            assert service.run_query(other).record.from_cache
            assert service.metrics.counters.invalidation_events == 0  # evicted, not dropped


# ---------------------------------------------------------------------- #
# Batched admission
# ---------------------------------------------------------------------- #
class TestRunBatch:
    def test_one_record_per_submission_with_duplicates(self, service, dataset, fingerprint):
        workload = yago_workload(dataset)
        batch = workload.batches("ordered")[0]
        duplicated = list(batch) + list(batch)  # every query submitted twice
        served = service.run_batch(duplicated)
        assert len(served.records) == len(duplicated)
        assert service.metrics.counters.executions == len({q.to_sparql() for q in batch})
        assert served.coalesced >= len(batch)
        # Submissions sharing an execution still account the same modelled cost.
        for first, second in zip(served.executions, served.executions[len(batch):]):
            assert second.record.seconds == first.record.seconds
            assert fingerprint(second.result) == fingerprint(first.result)

    def test_batch_matches_uncached_loop_byte_for_byte(self, service, dual, dataset, fingerprint):
        workload = yago_workload(dataset)
        batch = workload.batches("random")[0]
        uncached = [dual.run_query(q) for q in batch]
        served = service.run_batch(batch)
        assert len(served) == len(batch)
        for cold, warm in zip(uncached, served):
            assert fingerprint(warm.result) == fingerprint(cold.result)
            assert warm.record.seconds == cold.record.seconds
            assert warm.record.route == cold.record.route
        # Modelled TTI is preserved: caching does not distort the experiments'
        # accounting currency.
        assert served.tti == pytest.approx(sum(r.record.seconds for r in uncached))

    def test_second_pass_is_all_hits(self, service, dataset):
        workload = yago_workload(dataset)
        batch = workload.batches("ordered")[0]
        service.run_batch(batch)
        executions_before = service.metrics.counters.executions
        again = service.run_batch(batch)
        assert again.cache_hits == len(batch)
        assert service.metrics.counters.executions == executions_before

    def test_batch_executes_on_the_calling_thread(self, service, dataset, monkeypatch):
        workload = yago_workload(dataset)
        batch = workload.batches("ordered")[0]
        processor = service.dual.processor
        original = processor.process
        threads = set()

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(processor, "process", recording)
        served = service.run_batch(batch)
        assert len(served) == len(batch)
        assert threads == {threading.get_ident()}  # the service owns no threads

    def test_threaded_equals_inline(self, dual, dataset, fingerprint):
        workload = yago_workload(dataset)
        batch = workload.batches("random")[1]
        with QueryService(dual, ServiceConfig(cache_results=False)) as inline_service:
            inline = inline_service.run_batch(batch)
        outcomes = []
        with QueryService(dual, ServiceConfig(cache_results=False)) as threaded_service:
            threads = [
                threading.Thread(
                    target=lambda: outcomes.append(threaded_service.run_batch(batch))
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert len(outcomes) == len(threads)
        for threaded in outcomes:
            for a, b in zip(inline, threaded):
                assert fingerprint(a.result) == fingerprint(b.result)
                assert a.record.seconds == b.record.seconds

    def test_batch_result_adapter(self, service, dataset):
        workload = yago_workload(dataset)
        batch = workload.batches("ordered")[0]
        served = service.run_batch(batch)
        adapted = served.batch_result(index=3)
        assert adapted.index == 3
        assert len(adapted) == len(batch)
        assert adapted.tti == pytest.approx(served.tti)

    def test_unloaded_store_raises(self):
        from repro.errors import TuningError

        with QueryService(DualStore()) as service:
            with pytest.raises(TuningError):
                service.run_query(ADVISOR_QUERY)


# ---------------------------------------------------------------------- #
# Admission edge cases: empty batches and all-duplicate batches
# ---------------------------------------------------------------------- #
class TestRunBatchEdgeCases:
    def test_empty_batch_is_a_metrics_noop(self, service):
        served = service.run_batch([])
        assert len(served) == 0
        assert served.cache_hits == 0 and served.coalesced == 0
        assert served.tti == 0.0
        assert isinstance(served.tti, float)
        counters = service.metrics.counters
        # Nothing was admitted, so nothing may be counted — in particular no
        # batch, which would otherwise skew per-batch averages.
        assert counters.batches_served == 0
        assert counters.queries_served == 0
        assert counters.result_cache_hits == 0
        assert counters.result_cache_misses == 0
        assert counters.duplicates_coalesced == 0
        assert service.metrics.queue.current == 0
        assert service.metrics.queue.peak == 0
        assert service.metrics.modelled_latency.count == 0

    def test_empty_batch_still_requires_a_loaded_store(self):
        from repro.errors import TuningError

        with QueryService(DualStore()) as service:
            with pytest.raises(TuningError):
                service.run_batch([])

    def test_empty_batch_adapts_to_an_empty_batch_result(self, service):
        adapted = service.run_batch([]).batch_result(index=5)
        assert adapted.index == 5
        assert len(adapted) == 0
        assert adapted.tti == 0.0

    def test_all_duplicate_batch_executes_once_and_coalesces_the_rest(self, service, fingerprint):
        served = service.run_batch([ADVISOR_QUERY] * 5)
        assert len(served.records) == 5
        assert served.cache_hits == 0
        assert served.coalesced == 4
        counters = service.metrics.counters
        assert counters.executions == 1
        assert counters.result_cache_misses == 1
        assert counters.duplicates_coalesced == 4
        assert counters.queries_served == 5
        # The single execution went through the queue gauge exactly once.
        assert service.metrics.queue.current == 0
        assert service.metrics.queue.peak == 1
        # Every submission carries the shared execution's accounting.
        baseline = served.executions[0]
        for duplicate in served.executions[1:]:
            assert duplicate.record.from_cache
            assert duplicate.record.seconds == baseline.record.seconds
            assert fingerprint(duplicate.result) == fingerprint(baseline.result)

    def test_all_duplicate_batch_served_again_is_all_cache_hits(self, service):
        service.run_batch([ADVISOR_QUERY] * 3)
        again = service.run_batch([ADVISOR_QUERY] * 3)
        assert again.cache_hits == 3
        assert again.coalesced == 0
        counters = service.metrics.counters
        assert counters.executions == 1  # still only the first execution
        assert counters.result_cache_hits == 3
        assert counters.queries_served == 6


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestServiceMetrics:
    def test_latency_digest_percentiles(self):
        digest = LatencyDigest()
        for value in [5.0, 1.0, 2.0, 4.0, 3.0]:
            digest.observe(value)
        assert digest.count == 5
        assert digest.p50 == 3.0
        assert digest.p95 == 5.0
        assert digest.mean == pytest.approx(3.0)
        with pytest.raises(ValueError):
            digest.percentile(101.0)

    def test_latency_digest_nearest_rank_on_even_counts(self):
        digest = LatencyDigest()
        digest.observe(1.0)
        digest.observe(2.0)
        assert digest.p50 == 1.0  # nearest-rank: ceil(0.5 * 2) = rank 1
        for value in [3.0, 4.0, 5.0, 6.0]:
            digest.observe(value)
        assert digest.p50 == 3.0  # ceil(0.5 * 6) = rank 3
        assert digest.percentile(100.0) == 6.0
        assert digest.percentile(0.0) == 1.0

    def test_empty_digest(self):
        digest = LatencyDigest()
        assert digest.p50 == 0.0 and digest.p95 == 0.0 and digest.mean == 0.0

    def test_empty_digest_every_percentile_defined(self):
        """Regression: percentile() on count=0 must answer 0.0 at every q —
        including the p0/p100 edges — never raise or index off the reservoir."""
        digest = LatencyDigest()
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert digest.percentile(q) == 0.0
        assert digest.p99 == 0.0
        snapshot = digest.as_dict()
        assert snapshot["count"] == 0.0
        assert snapshot["p50"] == snapshot["p95"] == snapshot["p99"] == 0.0

    def test_single_observation_every_percentile_is_it(self):
        """Regression: count=1 answers the one observation for every q —
        p0 must not wrap to ``ordered[-1]`` and p100 must not index past
        the end (both are the same sample here, so pin the rank maths on a
        two-sample digest too)."""
        digest = LatencyDigest()
        digest.observe(7.5)
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert digest.percentile(q) == 7.5
        assert digest.count == 1
        assert digest.as_dict()["p99"] == 7.5

    def test_p0_and_p100_clamp_to_extremes(self):
        digest = LatencyDigest()
        for value in (4.0, 1.0, 3.0, 2.0):
            digest.observe(value)
        assert digest.percentile(0.0) == 1.0  # min, not a wrapped rank 0
        assert digest.percentile(100.0) == 4.0  # max, not one past the end
        with pytest.raises(ValueError):
            digest.percentile(-0.5)
        with pytest.raises(ValueError):
            digest.percentile(100.5)

    def test_p99_property_and_dict_agree(self):
        digest = LatencyDigest()
        for value in range(1, 101):
            digest.observe(float(value))
        assert digest.p99 == 99.0  # nearest rank: ceil(0.99 * 100) = 99
        assert digest.as_dict()["p99"] == digest.p99

    def test_counters_merge_and_rates(self):
        a = ServiceCounters(result_cache_hits=3, result_cache_misses=1)
        b = ServiceCounters(result_cache_hits=1, plan_cache_misses=2)
        merged = a.merge(b)
        assert merged.result_cache_hits == 4
        assert merged.result_cache_misses == 1
        assert merged.result_cache_hit_rate == pytest.approx(0.8)
        assert ServiceCounters().result_cache_hit_rate == 0.0

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ServiceCounters)])
    def test_merge_and_add_sum_every_field(self, name):
        """Every field is a count the service increments itself, so both
        ways of combining counters sum it — none is a copied gauge."""
        earlier = ServiceCounters(**{name: 3})
        later = ServiceCounters(**{name: 4})
        assert getattr(earlier.merge(later), name) == 7
        earlier.add(later)
        assert getattr(earlier, name) == 7
        assert getattr(later, name) == 4

    def test_service_snapshot_after_traffic(self, service, dataset):
        workload = yago_workload(dataset)
        batch = workload.batches("ordered")[0]
        service.run_batch(batch)
        service.run_batch(batch)
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["batches_served"] == 2
        assert snapshot["result_cache_hit_rate"] > 0.0
        assert snapshot["modelled_latency"]["count"] == 2 * len(batch)
        assert snapshot["queue"]["current"] == 0
        assert snapshot["queue"]["peak"] >= 1
        assert snapshot["wall_latency"]["p95"] >= snapshot["wall_latency"]["p50"]


# ---------------------------------------------------------------------- #
# Workload serving trace
# ---------------------------------------------------------------------- #
class TestWorkloadStream:
    def test_stream_repeats_the_workload(self, dataset):
        workload = yago_workload(dataset)
        trace = workload.stream(order="ordered", repeats=3)
        assert len(trace) == 3 * len(workload)
        assert trace[: len(workload)] == workload.ordered()

    def test_stream_rejects_bad_repeats(self, dataset):
        from repro.errors import WorkloadError

        workload = yago_workload(dataset)
        with pytest.raises(WorkloadError):
            workload.stream(repeats=0)

    def test_stream_rejects_unknown_order(self, dataset):
        from repro.errors import WorkloadError

        workload = yago_workload(dataset)
        with pytest.raises(WorkloadError):
            workload.stream(order="orderd")


# ---------------------------------------------------------------------- #
# Serving a sharded relational backend
# ---------------------------------------------------------------------- #
class TestShardedServing:
    @pytest.fixture()
    def sharded_dual(self, dataset):
        from repro import ShardingConfig

        return DualStore(
            shards=4, sharding=ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)
        ).load(dataset.triples)

    def test_shard_metrics_absent_on_unsharded_backend(self, service):
        assert service.shard_metrics() is None

    def test_shard_metrics_exposed_per_shard(self, sharded_dual, dataset):
        """Each shard's busy seconds are the modelled probe seconds the
        served queries' scatter breakdowns charged it."""
        workload = yago_workload(dataset)
        batch = workload.batches("ordered")[0]
        charged = [0.0] * 4
        with QueryService(sharded_dual) as service:
            for query in batch:
                served = service.run_query(query)
                if not served.record.from_cache:
                    for shard, seconds in enumerate(served.result.scatter.shard_seconds):
                        charged[shard] += seconds
            snapshot = service.shard_metrics()
        assert snapshot is not None and len(snapshot) == 4
        assert sum(entry["probes"] for entry in snapshot) > 0
        for entry, seconds in zip(snapshot, charged):
            assert {"busy_seconds", "mean_probe_seconds", "max_probe_seconds"} <= set(entry)
            assert entry["busy_seconds"] == pytest.approx(seconds, rel=1e-12, abs=0.0)

    def test_sharded_batch_matches_unsharded_loop(self, sharded_dual, dual, dataset, fingerprint):
        workload = yago_workload(dataset)
        batch = workload.batches("random")[0]
        uncached = [dual.run_query(q) for q in batch]
        with QueryService(sharded_dual) as service:
            served = service.run_batch(batch)
        for cold, warm in zip(uncached, served):
            assert fingerprint(warm.result) == fingerprint(cold.result)
            assert warm.record.route == cold.record.route
            assert warm.result.counters.as_dict() == cold.result.counters.as_dict()

    def test_cached_results_keep_their_scatter_breakdown(self, sharded_dual):
        with QueryService(sharded_dual) as service:
            cold = service.run_query(ADVISOR_QUERY)
            warm = service.run_query(ADVISOR_QUERY)
            assert warm.record.from_cache
            assert cold.result.scatter is not None
            assert warm.result.scatter == cold.result.scatter


# ---------------------------------------------------------------------- #
# LRU cache: falsy values are real entries
# ---------------------------------------------------------------------- #
class TestLRUCacheFalsyValues:
    """Regression: ``LRUCache.get`` used an ``is not None`` check on the
    cached value, so a legitimately-falsy entry (0, "", empty list) was
    reported as a miss *and* never got its recency bumped — a hot falsy
    entry aged out of the cache under capacity pressure."""

    def test_falsy_values_are_hits(self):
        cache = LRUCache(capacity=4)
        for key, value in (("zero", 0), ("empty", ""), ("nothing", []), ("false", False)):
            cache.put(key, value)
            assert cache.get(key) == (value, False)
            assert key in cache

    def test_missing_key_is_still_a_miss(self):
        cache = LRUCache(capacity=4)
        assert cache.get("absent") == (None, False)

    def test_falsy_entry_survives_capacity_pressure_after_a_hit(self):
        cache = LRUCache(capacity=2)
        cache.put("falsy", 0)
        cache.put("other", 1)
        # The hit must move "falsy" to the recent end ...
        assert cache.get("falsy") == (0, False)
        # ... so the next insert evicts "other", not the falsy entry.
        cache.put("newcomer", 2)
        assert cache.get("falsy") == (0, False)
        assert cache.get("other") == (None, False)
        assert len(cache) == 2


class TestLRUCacheStamps:
    def test_a_hit_needs_an_equal_stamp_and_a_mismatch_drops(self):
        cache = LRUCache(capacity=4)
        cache.put("q", "answer", stamp=(1, 2))
        assert cache.get("q", (1, 2)) == ("answer", False)
        assert cache.get("q", (1, 3)) == (None, True)
        assert "q" not in cache
        assert cache.get("q", (1, 2)) == (None, False)  # the drop is reported once

    def test_memo_computes_once_per_stamp(self):
        cache = LRUCache(capacity=4)
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        assert cache.memo("q", "a", compute) == 1
        assert cache.memo("q", "a", compute) == 1
        assert cache.memo("q", "b", compute) == 2
        assert len(cache) == 1
