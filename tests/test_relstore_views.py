"""Unit tests for materialized views (the RDB-views baseline machinery)."""

import pytest

from relational_oracle import ReferenceStore
from repro.execution import ResultTable
from repro.rdf import Literal, YAGO
from repro.relstore import MaterializedViewManager, RelationalStore, canonical_pattern_key
from repro.sparql import parse_query


def patterns_of(text):
    return parse_query(text).patterns


class TestCanonicalKey:
    def test_invariant_under_variable_renaming(self):
        a = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . }")
        b = patterns_of("SELECT ?x WHERE { ?x y:wasBornIn ?y . ?x y:hasAcademicAdvisor ?z . }")
        assert canonical_pattern_key(a) == canonical_pattern_key(b)

    def test_invariant_under_pattern_order(self):
        a = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . }")
        b = patterns_of("SELECT ?p WHERE { ?p y:hasAcademicAdvisor ?a . ?p y:wasBornIn ?c . }")
        assert canonical_pattern_key(a) == canonical_pattern_key(b)

    def test_different_constants_produce_different_keys(self):
        a = patterns_of('SELECT ?p WHERE { ?p y:hasGivenName "Eve" . ?p y:wasBornIn ?c . }')
        b = patterns_of('SELECT ?p WHERE { ?p y:hasGivenName "Bob" . ?p y:wasBornIn ?c . }')
        assert canonical_pattern_key(a) != canonical_pattern_key(b)

    def test_different_predicates_produce_different_keys(self):
        a = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:livesIn ?d . }")
        b = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:diedIn ?d . }")
        assert canonical_pattern_key(a) != canonical_pattern_key(b)


class TestViewManager:
    def _table(self, rows=1):
        return ResultTable.from_rows(name="v", variables=("p",), rows=[(YAGO.term(f"e{i}"),) for i in range(rows)])

    def test_observation_frequency_drives_selection(self):
        manager = MaterializedViewManager(row_budget=10)
        frequent = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:livesIn ?d . }")
        rare = patterns_of("SELECT ?p WHERE { ?p y:diedIn ?c . ?p y:livesIn ?d . }")
        for _ in range(3):
            manager.observe(frequent)
        manager.observe(rare)
        assert manager.frequent_keys()[0] == canonical_pattern_key(frequent)

    def test_selection_respects_row_budget(self):
        manager = MaterializedViewManager(row_budget=5)
        big = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:livesIn ?d . }")
        small = patterns_of("SELECT ?p WHERE { ?p y:diedIn ?c . ?p y:livesIn ?d . }")
        manager.observe(big)
        manager.observe(big)
        manager.observe(small)
        candidates = {
            canonical_pattern_key(big): (tuple(big), self._table(rows=8)),
            canonical_pattern_key(small): (tuple(small), self._table(rows=3)),
        }
        selected = manager.select_views(candidates)
        # The frequent view does not fit; the small one does.
        assert selected == [canonical_pattern_key(small)]
        assert manager.total_rows() == 3

    def test_match_counts_hits(self):
        manager = MaterializedViewManager(row_budget=10)
        patterns = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:livesIn ?d . }")
        manager.observe(patterns)
        manager.select_views({canonical_pattern_key(patterns): (tuple(patterns), self._table())})
        view = manager.match(patterns)
        assert view is not None
        assert view.hits == 1
        assert manager.match(patterns_of("SELECT ?p WHERE { ?p y:diedIn ?c . ?p y:livesIn ?d . }")) is None

    def test_clear(self):
        manager = MaterializedViewManager(row_budget=10)
        patterns = patterns_of("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:livesIn ?d . }")
        manager.observe(patterns)
        manager.select_views({canonical_pattern_key(patterns): (tuple(patterns), self._table())})
        manager.clear()
        assert len(manager) == 0
        assert manager.frequent_keys() == []


class TestExecuteWithView:
    def test_view_answers_covered_part_and_joins_remainder(self, mini_kg):
        store = RelationalStore(view_row_budget=100)
        store.load(mini_kg)
        subquery = parse_query(
            "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }"
        )
        materialized = ResultTable.from_result("view_0", store.execute(subquery))
        manager = store.view_manager
        manager.observe(subquery.patterns)
        manager.select_views({canonical_pattern_key(subquery.patterns): (subquery.patterns, materialized)})

        query = parse_query(
            "SELECT ?n WHERE { ?p y:hasGivenName ?n . ?p y:wasBornIn ?city . "
            "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }"
        )
        view = manager.match(subquery.patterns)
        assert view is not None
        with_view = store.execute_with_view(query, view)
        without_view = store.execute(query)
        assert with_view.distinct_rows() == without_view.distinct_rows()
        assert with_view.counters.view_rows_scanned == len(materialized)

    def test_fully_covered_query_served_from_view_alone(self, mini_kg):
        store = RelationalStore(view_row_budget=100)
        store.load(mini_kg)
        subquery = parse_query(
            "SELECT ?p ?city WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }"
        )
        materialized = ResultTable.from_result("view_0", store.execute(subquery))
        manager = store.view_manager
        manager.observe(subquery.patterns)
        manager.select_views({canonical_pattern_key(subquery.patterns): (subquery.patterns, materialized)})
        view = manager.match(subquery.patterns)

        projected = parse_query(
            "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }"
        )
        result = store.execute_with_view(projected, view)
        assert result.distinct_rows() == store.execute(projected).distinct_rows()
        assert result.counters.rows_scanned == 0

    @pytest.mark.parametrize("modifiers", ["} LIMIT 2", 'FILTER(?n != "Eve") }'], ids=["limit", "filter"])
    def test_fully_covered_query_keeps_its_limit_and_filter(self, mini_kg, modifiers):
        """The view rows are the pipeline, not the answer: a query the view
        covers entirely still runs its FILTER and LIMIT."""
        store = RelationalStore(view_row_budget=100)
        store.load(mini_kg)
        patterns = "?p y:wasBornIn ?city . ?p y:hasGivenName ?n ."
        subquery = parse_query("SELECT ?p ?city ?n WHERE { %s }" % patterns)
        materialized = ResultTable.from_result("view_0", store.execute(subquery))
        manager = store.view_manager
        manager.observe(subquery.patterns)
        manager.select_views({canonical_pattern_key(subquery.patterns): (subquery.patterns, materialized)})
        view = manager.match(subquery.patterns)

        query = parse_query("SELECT ?p ?n WHERE { %s %s" % (patterns, modifiers))
        plain = store.execute(query)
        assert 0 < len(plain) < len(materialized)
        result = store.execute_with_view(query, view)
        assert result.rows() == plain.rows()
        assert result.counters.view_rows_scanned == len(materialized)
        assert result.counters.rows_scanned == 0

        oracle = ReferenceStore()
        oracle.load(mini_kg)
        expected = oracle.execute_with_view(query, view)
        assert result.bindings == expected.bindings
        assert result.counters.as_dict() == expected.counters.as_dict()
        assert result.seconds == expected.seconds
