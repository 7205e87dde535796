"""End-to-end integration tests across the whole stack.

These tests exercise the full pipeline — synthetic dataset → workload →
dual-store structure → DOTIL tuning → query answers — and assert the two
properties that make the reproduction trustworthy:

1. *Correctness*: every routing decision (relational, graph, split) returns
   exactly the same answers as the relational-only baseline.
2. *Benefit*: once tuned, the dual-store structure spends less (modelled)
   time than the relational-only baseline on complex-query workloads.
"""

import pytest

from sql_oracle import SQLiteBackend
from repro.core import (
    Dotil,
    DotilConfig,
    DualStore,
    RDBGDB,
    RDBOnly,
    run_workload,
)
from repro.graphstore import GraphStore
from repro.relstore import RelationalStore
from repro.workload import generate_watdiv, watdiv_workload


class TestCrossEngineAgreement:
    """The three query engines (python relational, SQLite SQL, graph traversal)
    must agree on every workload query."""

    @pytest.fixture(scope="class")
    def engines(self, yago_dataset):
        relational = RelationalStore()
        relational.load(yago_dataset.triples)
        graph = GraphStore(storage_budget=None)
        for predicate in yago_dataset.triples.predicates:
            graph.load_partition(predicate, relational.partition(predicate))
        sqlite = SQLiteBackend()
        sqlite.insert_triples(yago_dataset.triples)
        return relational, graph, sqlite

    def test_all_yago_queries_agree(self, engines, yago_queries):
        relational, graph, sqlite = engines
        for entry in yago_queries.queries:
            query = entry.query
            relational_rows = relational.execute(query).distinct_rows()
            graph_rows = graph.execute(query).distinct_rows()
            _, sql_rows = sqlite.execute_select(query)
            assert graph_rows == relational_rows, entry.template
            assert set(map(repr, sql_rows)) == set(map(repr, relational_rows)), entry.template


class TestDualStoreLifecycle:
    def test_full_lifecycle_on_watdiv(self):
        dataset = generate_watdiv(2500, seed=21)
        workload = watdiv_workload(dataset, family="complex", seed=3)
        batches = workload.batches("ordered")

        dual = DualStore(config=DotilConfig(prob=1.0))
        dual.load(dataset.triples)
        tuner = Dotil(dual)

        baseline = RelationalStore()
        baseline.load(dataset.triples)

        total_dual = 0.0
        total_baseline = 0.0
        for batch in batches:
            complex_subqueries = []
            for query in batch:
                processed = dual.run_query(query)
                expected = baseline.execute(query).distinct_rows()
                assert processed.result.distinct_rows() == expected
                total_dual += processed.seconds
                total_baseline += baseline.execute(query).seconds
                identified = dual.identify(query)
                if identified is not None:
                    complex_subqueries.append(identified)
            tuner.tune(complex_subqueries)

        # After the cold first batch the tuner has filled the graph store, so the
        # dual-store total must come in below the relational-only total.
        assert dual.graph.used_capacity() > 0
        assert dual.graph.used_capacity() <= dual.storage_budget
        assert total_dual < total_baseline

    def test_inserts_are_visible_to_queries_without_retuning(self, yago_dataset):
        from repro.rdf import Triple, YAGO
        from repro.sparql import parse_query

        dual = DualStore().load(yago_dataset.triples)
        new_person = YAGO.term("integration_test_person")
        city = yago_dataset.entities["city"][0]
        dual.insert([Triple(new_person, YAGO.term("wasBornIn"), city)])
        query = parse_query("SELECT ?c WHERE { <%s> y:wasBornIn ?c . }" % new_person.value)
        assert len(dual.run_query(query).result) == 1


class TestVariantConsistency:
    def test_gdb_and_only_answer_counts_match_per_query(self, yago_dataset, yago_queries):
        batches = yago_queries.batches("random", seed=5)
        only = RDBOnly().load(yago_dataset.triples)
        gdb = RDBGDB(config=DotilConfig(prob=1.0)).load(yago_dataset.triples)
        only_result = run_workload(only, batches)
        gdb_result = run_workload(gdb, batches)
        only_counts = [r.result_count for b in only_result.batches for r in b.records]
        gdb_counts = [r.result_count for b in gdb_result.batches for r in b.records]
        assert only_counts == gdb_counts
