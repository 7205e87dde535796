"""Unit tests for the relational triple table and its statistics."""

import tracemalloc

import pytest

from relational_oracle import (
    collect_statistics,
    lookup_object,
    lookup_subject,
    scan,
    scan_predicate,
)
from repro.errors import StorageError
from repro.rdf import Literal, Triple, YAGO
from repro.rdf.dictionary import TermDictionary
from repro.relstore import ColumnarTripleTable
from repro.sparql import parse_query

BORN = YAGO.term("wasBornIn")
NAME = YAGO.term("hasGivenName")
ALICE, BOB, BERLIN, PARIS = YAGO.Alice, YAGO.Bob, YAGO.Berlin, YAGO.Paris


@pytest.fixture()
def table():
    t = ColumnarTripleTable()
    t.insert_all(
        [
            Triple(ALICE, BORN, BERLIN),
            Triple(BOB, BORN, PARIS),
            Triple(ALICE, NAME, Literal("Alice")),
        ]
    )
    return t


class TestTripleTable:
    def test_insert_deduplicates(self, table):
        assert not table.insert(Triple(ALICE, BORN, BERLIN))
        assert len(table) == 3

    def test_contains(self, table):
        assert table.contains(Triple(ALICE, BORN, BERLIN))
        assert not table.contains(Triple(BOB, BORN, BERLIN))

    def test_predicates_and_cardinalities(self, table):
        assert table.predicate_cardinality(BORN) == 2
        assert table.predicate_cardinality(NAME) == 1
        assert table.predicate_cardinality(YAGO.term("unknown")) == 0
        assert table.cardinalities()[BORN] == 2

    def test_partition_decodes_triples(self, table):
        partition = table.partition(BORN)
        assert set(partition) == {Triple(ALICE, BORN, BERLIN), Triple(BOB, BORN, PARIS)}
        assert table.partition(YAGO.term("unknown")) == []

    def test_scan_predicate(self, table):
        predicate_id = table.dictionary.lookup(BORN)
        rows = list(scan_predicate(table, predicate_id))
        assert len(rows) == 2

    def test_point_lookups(self, table):
        predicate_id = table.dictionary.lookup(BORN)
        subject_id = table.dictionary.lookup(ALICE)
        object_id = table.dictionary.lookup(PARIS)
        assert len(list(lookup_subject(table, predicate_id, subject_id))) == 1
        assert len(list(lookup_object(table, predicate_id, object_id))) == 1

    def test_delete_unknown_triple_returns_false(self, table):
        assert not table.delete(Triple(YAGO.Zoe, BORN, BERLIN))

    def test_scan_after_a_delete_and_a_reinsert(self, table):
        """A table scan visits predicates by ascending id, each in insertion
        order; a deleted row is gone at once and a re-inserted one moves to
        the end of its predicate."""
        assert table.delete(Triple(ALICE, BORN, BERLIN))
        assert not table.delete(Triple(ALICE, BORN, BERLIN))
        assert len(table) == 2 and not table.contains(Triple(ALICE, BORN, BERLIN))
        assert table.predicate_cardinality(BORN) == 1
        table.insert(Triple(ALICE, BORN, BERLIN))
        decoded = [table.dictionary.decode_triple(row) for row in scan(table)]
        assert decoded == [
            Triple(BOB, BORN, PARIS),
            Triple(ALICE, BORN, BERLIN),
            Triple(ALICE, NAME, Literal("Alice")),
        ]
        flat = table.dump_rows()
        assert all(type(value) is int for value in flat)  # json.dumps-safe
        assert [tuple(flat[i : i + 3]) for i in range(0, len(flat), 3)] == list(scan(table))

    def test_row_views_yield_python_ints(self, table):
        predicate_id = table.dictionary.lookup(BORN)
        subject_id = table.dictionary.lookup(ALICE)
        views = [
            scan(table),
            scan_predicate(table, predicate_id),
            lookup_subject(table, predicate_id, subject_id),
            lookup_object(table, predicate_id, table.dictionary.lookup(BERLIN)),
        ]
        for rows in views:
            rows = list(rows)
            assert rows and all(type(value) is int for row in rows for value in row)

    def test_loading_a_global_row_order_payload_keeps_each_predicates_order(self, table):
        """Snapshots written before predicates were stored apart list rows in
        global insertion order; loading one rebuilds the same blocks."""
        rows = list(scan(table))
        interleaved = [rows[0], rows[2], rows[1]]
        restored = ColumnarTripleTable(table.dictionary)
        assert restored.load_rows([value for row in interleaved for value in row]) == 3
        assert restored.dump_rows() == table.dump_rows()

    def test_load_rows_rejects_a_torn_payload(self, table):
        with pytest.raises(StorageError):
            ColumnarTripleTable(table.dictionary).load_rows(table.dump_rows()[:-1])


class TestStatistics:
    def test_collect_statistics_counts_rows_and_distincts(self, table):
        stats = collect_statistics(table)
        assert stats.total_rows == 3
        born = stats.per_predicate[BORN]
        assert born.cardinality == 2
        assert born.distinct_subjects == 2
        assert born.distinct_objects == 2
        assert born.avg_fanout == pytest.approx(1.0)

    def test_estimate_pattern_rows_uses_partition_sizes(self, table):
        stats = collect_statistics(table)
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . }")
        assert stats.estimate_pattern_rows(query.patterns[0]) == 2

    def test_estimate_pattern_rows_with_bound_object(self, table):
        stats = collect_statistics(table)
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn <%s> . }" % BERLIN.value)
        assert stats.estimate_pattern_rows(query.patterns[0]) >= 1

    def test_estimate_pattern_rows_for_unknown_predicate_is_zero(self, table):
        stats = collect_statistics(table)
        query = parse_query("SELECT ?p WHERE { ?p y:unknownPredicate ?c . }")
        assert stats.estimate_pattern_rows(query.patterns[0]) == 0

    def test_estimate_query_work_increases_with_patterns(self, table):
        stats = collect_statistics(table)
        one = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . }")
        two = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasGivenName ?n . }")
        assert stats.estimate_query_work(two) > stats.estimate_query_work(one)


def test_a_loaded_table_costs_at_most_200_bytes_per_triple():
    """The table is its id columns plus one set of encoded rows: measured
    over a pre-built dictionary, so only what the table itself holds
    counts (the row tuples, their set, and 16 B of columns per triple)."""
    from repro import generate_watdiv

    triples = list(generate_watdiv(target_triples=20000, seed=5).triples)
    dictionary = TermDictionary()
    for triple in triples:
        dictionary.encode_triple(triple)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = ColumnarTripleTable(dictionary)
        table.insert_all(triples)
        for predicate in table.predicates():
            table.partition_columns(dictionary.lookup(predicate))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == len(triples)
    assert held / len(table) <= 200, f"{held / len(table):.0f} B/triple"
