"""Unit tests for the SQL compiler and the SQLite persistence backend."""

import pytest

from sql_oracle import SQLiteBackend, compile_select
from repro.errors import QueryExecutionError
from repro.rdf import Literal, Triple, YAGO
from repro.relstore import RelationalStore
from repro.sparql import parse_query


class TestSQLCompiler:
    def test_single_pattern_compiles_to_single_alias(self):
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . }")
        compiled = compile_select(query)
        assert "FROM triples AS t0" in compiled.sql
        assert compiled.columns == ("p",)
        assert compiled.parameters == (YAGO.wasBornIn.value,)

    def test_multi_pattern_compiles_to_self_join(self, advisor_query):
        compiled = compile_select(advisor_query)
        assert "t0" in compiled.sql and "t1" in compiled.sql and "t2" in compiled.sql
        # shared variables become equality predicates between aliases
        assert compiled.sql.count("=") >= 5

    def test_distinct_and_limit_are_rendered(self):
        query = parse_query("SELECT DISTINCT ?p WHERE { ?p y:wasBornIn ?c . } LIMIT 3")
        compiled = compile_select(query)
        assert "SELECT DISTINCT" in compiled.sql
        assert compiled.sql.endswith("LIMIT 3")

    def test_literal_constants_become_parameters(self):
        query = parse_query('SELECT ?p WHERE { ?p y:hasGivenName "Eve" . }')
        compiled = compile_select(query)
        assert '"Eve"' in compiled.parameters[1]

    def test_filters_are_compiled_through_the_shared_comparison(self):
        # Raw SQL text comparison over stored surface forms would be
        # lexicographic; filters must route through the repro_filter function
        # so typed literals compare by value (see test_differential_sql.py).
        query = parse_query("SELECT ?p WHERE { ?p y:age ?a . FILTER(?a != 3) }")
        compiled = compile_select(query)
        assert "repro_filter(?, t0.o, ?) = 1" in compiled.sql
        assert compiled.parameters[-2:] == ("!=", '"3"^^<http://www.w3.org/2001/XMLSchema#integer>')

    def test_filter_with_unbound_variable_raises(self):
        query = parse_query("SELECT ?p WHERE { ?p y:age ?a . FILTER(?b > 3) }")
        with pytest.raises(QueryExecutionError):
            compile_select(query)


class TestSQLiteBackend:
    def test_insert_count_and_dedup(self, mini_kg):
        with SQLiteBackend() as backend:
            backend.insert_triples(mini_kg)
            backend.insert_triples(mini_kg)  # duplicates ignored
            assert backend.count() == len(mini_kg)

    def test_delete_triple(self, mini_kg):
        with SQLiteBackend() as backend:
            backend.insert_triples(mini_kg)
            triple = next(iter(mini_kg))
            assert backend.delete_triple(triple) == 1
            assert backend.count() == len(mini_kg) - 1

    def test_select_returns_decoded_terms(self, mini_kg):
        with SQLiteBackend() as backend:
            backend.insert_triples(mini_kg)
            query = parse_query('SELECT ?p WHERE { ?p y:hasGivenName "Eve" . }')
            columns, rows = backend.execute_select(query)
            assert columns == ("p",)
            assert rows == [(YAGO.term("Eve"),)]

    def test_sql_engine_agrees_with_python_executor(self, mini_kg, advisor_query, example1_query):
        """Cross-check: the SQLite self-join plan and the work-accounted executor
        must return the same answers for the paper's queries."""
        store = RelationalStore()
        store.load(mini_kg)
        with SQLiteBackend() as backend:
            backend.insert_triples(mini_kg)
            for query in (advisor_query, example1_query):
                _, sql_rows = backend.execute_select(query)
                python_rows = store.execute(query).rows()
                assert sorted(map(repr, sql_rows)) == sorted(map(repr, python_rows))

    def test_persistence_to_disk(self, tmp_path, mini_kg):
        path = tmp_path / "kg.sqlite"
        with SQLiteBackend(path) as backend:
            backend.insert_triples(mini_kg)
        with SQLiteBackend(path) as reopened:
            assert reopened.count() == len(mini_kg)

    def test_literal_round_trip(self):
        triple = Triple(YAGO.Alice, YAGO.term("age"), Literal("30"))
        with SQLiteBackend() as backend:
            backend.insert_triples([triple])
            query = parse_query("SELECT ?o WHERE { <%s> y:age ?o . }" % YAGO.Alice.value)
            _, rows = backend.execute_select(query)
            assert rows == [(Literal("30"),)]
