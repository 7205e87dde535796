"""Unit tests for the sharded relational store: placement, promotion,
scatter-gather accounting, per-shard metrics, and backend conformance."""

from __future__ import annotations

import pytest

from repro import DualStore, RelationalStore, ShardedRelationalStore, ShardingConfig
from repro.errors import WorkBudgetExceeded
from repro.rdf.terms import IRI, Triple
from repro.relstore.sharded import SUBJECT_SHARDED
from repro.sparql.parser import parse_query


def iri(name: str) -> IRI:
    return IRI(f"http://example.org/{name}")


def triples_for(predicate: str, count: int, object_name: str = "o"):
    return [
        Triple(iri(f"s{i}"), iri(predicate), iri(f"{object_name}{i % 7}")) for i in range(count)
    ]


@pytest.fixture()
def store() -> ShardedRelationalStore:
    return ShardedRelationalStore(
        shards=4, config=ShardingConfig(skew_threshold=10.0, min_subject_shard_rows=10_000)
    )


class TestPlacement:
    def test_each_predicate_lives_on_one_shard(self, store):
        store.load(triples_for("p", 5) + triples_for("q", 5))
        for predicate in (iri("p"), iri("q")):
            placement = store.placement(predicate)
            assert placement is not None and placement != SUBJECT_SHARDED
            assert store.partition_size(predicate) == 5
        assert len(store) == 10

    def test_placement_is_deterministic_across_instances(self):
        data = triples_for("p", 8) + triples_for("q", 8)
        a = ShardedRelationalStore(shards=4)
        b = ShardedRelationalStore(shards=4)
        a.load(data)
        b.load(list(reversed(data)))
        assert a.placement(iri("p")) == b.placement(iri("p"))
        assert a.placement(iri("q")) == b.placement(iri("q"))

    def test_duplicate_inserts_are_deduplicated_like_unsharded(self, store):
        data = triples_for("p", 6)
        store.load(data)
        seconds = store.insert(data)  # all duplicates
        assert seconds == 0.0
        assert len(store) == 6

    def test_delete_routes_to_the_owning_shard(self, store):
        data = triples_for("p", 4)
        store.load(data)
        assert store.delete(data[0])
        assert not store.delete(data[0])
        assert len(store) == 3
        assert not store.delete(Triple(iri("nope"), iri("p"), iri("x")))


class TestSkewPromotion:
    def test_mega_predicate_is_promoted_to_subject_sharding(self):
        store = ShardedRelationalStore(
            shards=4, config=ShardingConfig(skew_threshold=0.5, min_subject_shard_rows=8)
        )
        store.load(triples_for("mega", 100) + triples_for("tiny", 3))
        assert store.placement(iri("mega")) == SUBJECT_SHARDED
        assert store.placement(iri("tiny")) != SUBJECT_SHARDED
        assert store.subject_sharded_predicates() == [iri("mega")]
        # The partition is spread over several shards but stays complete.
        assert store.partition_size(iri("mega")) == 100
        assert sorted(t.n3() for t in store.partition(iri("mega"))) == sorted(
            t.n3() for t in triples_for("mega", 100)
        )

    def test_shard_row_counts_follow_placement(self):
        store = ShardedRelationalStore(
            shards=4, config=ShardingConfig(skew_threshold=0.5, min_subject_shard_rows=8)
        )
        store.load(triples_for("mega", 100) + triples_for("tiny", 3))
        counts = store.shard_row_counts()
        assert sum(counts) == len(store) == 103
        # 100 distinct subjects spread the mega-predicate over every shard.
        assert all(counts)
        store.delete(triples_for("tiny", 3)[0])
        after = store.shard_row_counts()
        assert after[store.placement(iri("tiny"))] == counts[store.placement(iri("tiny"))] - 1

    def test_promoted_partition_is_the_stored_block_in_insertion_order(self):
        store = ShardedRelationalStore(
            shards=4, config=ShardingConfig(skew_threshold=0.5, min_subject_shard_rows=8)
        )
        data = triples_for("mega", 100)
        store.load(data)
        assert store.placement(iri("mega")) == SUBJECT_SHARDED
        predicate_id = store.dictionary.lookup(iri("mega"))
        assert store.partition_block(iri("mega")) is store.table.partition_columns(predicate_id)
        assert store.partition(iri("mega")) == data

    def test_promotion_is_sticky_after_deletes(self):
        store = ShardedRelationalStore(
            shards=2, config=ShardingConfig(skew_threshold=0.1, min_subject_shard_rows=4)
        )
        data = triples_for("mega", 50)
        store.load(data)
        assert store.placement(iri("mega")) == SUBJECT_SHARDED
        for triple in data[:45]:
            assert store.delete(triple)
        assert store.placement(iri("mega")) == SUBJECT_SHARDED
        assert store.partition_size(iri("mega")) == 5

    def test_single_shard_never_promotes(self):
        store = ShardedRelationalStore(
            shards=1, config=ShardingConfig(skew_threshold=0.01, min_subject_shard_rows=1)
        )
        store.load(triples_for("mega", 60))
        assert store.placement(iri("mega")) == 0

    def test_promoted_rows_answer_subject_lookups_from_one_shard(self):
        store = ShardedRelationalStore(
            shards=4, config=ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=4)
        )
        store.load(triples_for("mega", 80))
        result = store.execute(parse_query("SELECT ?o WHERE { <http://example.org/s3> <http://example.org/mega> ?o . }"))
        assert len(result) == 1
        # A subject-bound lookup on a subject-sharded predicate probes exactly
        # one shard, charging one logical and one physical index lookup.
        assert result.counters.index_lookups == 1


class TestScatterGatherExecution:
    QUERY = "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?m . ?m <http://example.org/q> ?o . }"

    def _chain_data(self):
        data = []
        for i in range(12):
            data.append(Triple(iri(f"a{i}"), iri("p"), iri(f"m{i % 5}")))
            data.append(Triple(iri(f"m{i % 5}"), iri("q"), iri(f"z{i % 3}")))
        return data

    def test_counters_match_unsharded(self, store, fingerprint):
        data = self._chain_data()
        base = RelationalStore()
        base.load(data)
        store.load(data)
        cold = base.execute(parse_query(self.QUERY))
        warm = store.execute(parse_query(self.QUERY))
        assert warm.counters.as_dict() == cold.counters.as_dict()
        assert fingerprint(warm) == fingerprint(cold)

    def test_single_shard_prices_like_unsharded(self):
        data = self._chain_data()
        base = RelationalStore()
        base.load(data)
        sharded = ShardedRelationalStore(shards=1)
        sharded.load(data)
        cold = base.execute(parse_query(self.QUERY))
        warm = sharded.execute(parse_query(self.QUERY))
        assert warm.seconds == pytest.approx(cold.seconds)
        assert warm.scatter.parallel_seconds == pytest.approx(warm.scatter.serial_seconds)

    def test_scatter_info_accounts_every_shard(self, store):
        store.load(self._chain_data())
        result = store.execute(parse_query(self.QUERY))
        info = result.scatter
        assert info is not None
        assert len(info.shard_seconds) == store.shard_count
        assert info.parallel_seconds == result.seconds
        assert info.serial_seconds == pytest.approx(
            store.cost_model.relational_query_seconds(result.counters)
        )
        # >= 1 up to float summation-order noise between the two pricings.
        assert info.speedup >= 1.0 - 1e-9

    def test_work_budget_aborts_identically(self, store):
        data = self._chain_data()
        base = RelationalStore()
        base.load(data)
        store.load(data)
        query = parse_query(self.QUERY)
        with pytest.raises(WorkBudgetExceeded) as cold:
            base.execute(query, work_budget=3.0)
        with pytest.raises(WorkBudgetExceeded) as warm:
            store.execute(query, work_budget=3.0)
        assert warm.value.partial_work == cold.value.partial_work

    def test_execute_capped_matches_unsharded_price(self, store):
        data = self._chain_data()
        base = RelationalStore()
        base.load(data)
        store.load(data)
        query = parse_query(self.QUERY)
        cold_result, cold_seconds = base.execute_capped(query, work_budget=3.0)
        warm_result, warm_seconds = store.execute_capped(query, work_budget=3.0)
        assert cold_result is None and warm_result is None
        assert warm_seconds == pytest.approx(cold_seconds)

    def test_empty_extra_table_short_circuits_scanning(self, store):
        # A Case 2 plan whose migrated graph-side table is empty must charge
        # zero scan work on the remaining patterns (seed behaviour).
        from repro.execution import ResultTable

        data = self._chain_data()
        base = RelationalStore()
        base.load(data)
        store.load(data)
        empty = ResultTable.from_rows(name="t", variables=("s",), rows=[])
        query = parse_query(self.QUERY)
        cold = base.execute(query, extra_tables=[empty])
        warm = store.execute(query, extra_tables=[empty])
        assert cold.counters.rows_scanned == 0 and cold.counters.rows_joined == 0
        assert warm.counters.as_dict() == cold.counters.as_dict()
        assert len(cold) == 0 and len(warm) == 0

    def test_absent_index_term_prices_identically_on_one_shard(self):
        # An index step whose bound term never occurs charges one logical
        # lookup; the parallel price must include it even with zero probes.
        data = self._chain_data()
        base = RelationalStore()
        base.load(data)
        sharded = ShardedRelationalStore(shards=1)
        sharded.load(data)
        query = parse_query(
            "SELECT ?o WHERE { <http://example.org/absent> <http://example.org/p> ?o . }"
        )
        cold = base.execute(query)
        warm = sharded.execute(query)
        assert warm.counters.as_dict() == cold.counters.as_dict()
        assert cold.counters.index_lookups == 1
        assert warm.seconds == pytest.approx(cold.seconds, abs=0.0, rel=1e-12)

class TestConcurrentPricing:
    def test_concurrent_first_executions_price_like_serial_ones(self):
        """Readers racing to fill the per-term shard memo and the per-block
        subject-shard memo must each price exactly what a serial run prices,
        and the metrics board must lose no probe."""
        import sys
        import threading

        data = TestScatterGatherExecution()._chain_data() + triples_for("mega", 300)
        config = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=4)
        queries = [
            parse_query(TestScatterGatherExecution.QUERY),
            parse_query("SELECT ?s ?o WHERE { ?s <http://example.org/mega> ?o . }"),
            parse_query("SELECT ?s WHERE { ?s <http://example.org/mega> <http://example.org/o3> . }"),
            parse_query("SELECT ?o WHERE { <http://example.org/s7> <http://example.org/mega> ?o . }"),
        ]
        serial = ShardedRelationalStore(shards=4, config=config)
        serial.load(data)
        expected = [(result.seconds, result.scatter) for result in map(serial.execute, queries)]
        racing = ShardedRelationalStore(shards=4, config=config)
        racing.load(data)
        assert racing.subject_sharded_predicates() == [iri("mega")]
        threads_count, rounds = 8, 5
        barrier = threading.Barrier(threads_count)
        errors = []

        def reader(offset: int) -> None:
            barrier.wait(timeout=30)
            for round_index in range(rounds):
                index = (offset + round_index) % len(queries)
                result = racing.execute(queries[index])
                if (result.seconds, result.scatter) != expected[index]:
                    errors.append((index, result.seconds, result.scatter))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # The serial store ran every query once, the racing one each query
        # threads_count * rounds / len(queries) = 10 times.
        probes = sum(entry["probes"] for entry in racing.shard_metrics.snapshot())
        serial_probes = sum(entry["probes"] for entry in serial.shard_metrics.snapshot())
        assert serial_probes > 0 and probes == 10 * serial_probes


class TestShardMetricsBoard:
    def test_probes_are_recorded_per_shard(self, store):
        store.load(triples_for("p", 10))
        store.execute(parse_query("SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o . }"))
        snapshot = store.shard_metrics.snapshot()
        assert len(snapshot) == 4
        probed = [entry for entry in snapshot if entry["probes"] > 0]
        assert len(probed) == 1  # predicate-sharded scan touches one shard
        assert probed[0]["rows_scanned"] == 10.0
        assert probed[0]["busy_seconds"] > 0.0


class TestBackendConformance:
    def test_dualstore_accepts_shards_argument(self):
        dual = DualStore(shards=3)
        assert isinstance(dual.relational, ShardedRelationalStore)
        assert dual.relational.shard_count == 3

    def test_dualstore_accepts_prebuilt_backend(self):
        backend = ShardedRelationalStore(shards=2)
        dual = DualStore(relational_store=backend)
        assert dual.relational is backend

    def test_dualstore_sharding_config_implies_shards(self):
        dual = DualStore(sharding=ShardingConfig(skew_threshold=0.5))
        assert isinstance(dual.relational, ShardedRelationalStore)
        assert dual.relational.shard_count == 4

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedRelationalStore(shards=0)
