"""Unit tests for the SPARQL parser and the query AST."""

import pytest

from repro.errors import ParseError
from repro.rdf import IRI, Literal, Variable, YAGO
from repro.sparql import Filter, SelectQuery, TriplePattern, parse_query
from repro.rdf.terms import XSD_INTEGER


class TestParserBasics:
    def test_parses_single_pattern_query(self):
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?city . }")
        assert query.projected_names() == ("p",)
        assert len(query.patterns) == 1
        assert query.patterns[0].predicate == YAGO.wasBornIn

    def test_parses_multi_pattern_query_preserving_order(self):
        query = parse_query(
            "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c . }"
        )
        assert len(query.patterns) == 3
        assert query.patterns[1].predicate == YAGO.hasAcademicAdvisor

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?s y:wasBornIn ?o . }")
        assert query.projection == ()
        assert set(query.projected_names()) == {"s", "o"}

    def test_distinct_and_limit(self):
        query = parse_query("SELECT DISTINCT ?s WHERE { ?s y:wasBornIn ?o } LIMIT 5")
        assert query.distinct
        assert query.limit == 5

    def test_prefix_declaration(self):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:knows ?o . }"
        )
        assert query.patterns[0].predicate == IRI("http://example.org/knows")

    def test_full_iri_terms(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s <http://example.org/p> <http://example.org/o> . }"
        )
        assert query.patterns[0].object == IRI("http://example.org/o")

    def test_literal_objects(self):
        query = parse_query('SELECT ?s WHERE { ?s y:hasGivenName "Alice" . ?s y:age 30 . }')
        assert query.patterns[0].object == Literal("Alice")
        assert query.patterns[1].object == Literal("30", XSD_INTEGER)

    def test_a_keyword_expands_to_rdf_type(self):
        query = parse_query("SELECT ?s WHERE { ?s a y:Person . }")
        assert query.patterns[0].predicate.value.endswith("#type")

    def test_filter_parsing(self):
        query = parse_query("SELECT ?s WHERE { ?s y:age ?a . FILTER(?a >= 18) }")
        assert len(query.filters) == 1
        assert query.filters[0].operator == ">="

    def test_trailing_dot_is_optional_before_closing_brace(self):
        query = parse_query("SELECT ?s WHERE { ?s y:wasBornIn ?o }")
        assert len(query.patterns) == 1

    def test_example1_from_paper(self, example1_query):
        assert len(example1_query.patterns) == 7
        assert example1_query.projected_names() == ("GivenName", "FamilyName")
        counts = example1_query.variable_occurrences()
        assert counts["p"] == 5  # five triple patterns mention ?p
        assert counts["city"] == 3


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT WHERE { ?s y:wasBornIn ?o . }",
            "SELECT ?s { ?s y:wasBornIn ?o . }",
            "SELECT ?s WHERE { ?s y:wasBornIn ?o .",
            "SELECT ?s WHERE { }",
            "SELECT ?s WHERE { ?s y:wasBornIn ?o . } LIMIT ?x",
            "SELECT ?s WHERE { ?s y:wasBornIn ?o . } extra",
            "SELECT ?s WHERE { ?s y:wasBornIn ?o . FILTER(?o LIKE ?s) }",
        ],
    )
    def test_malformed_queries_raise_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_empty_query_raises(self):
        with pytest.raises(ParseError):
            parse_query("")


class TestQueryAst:
    def test_predicates_returns_concrete_predicates_only(self):
        query = parse_query("SELECT ?s WHERE { ?s y:wasBornIn ?o . ?s ?p ?o2 . }")
        assert query.predicates() == frozenset({YAGO.wasBornIn})

    def test_variables_includes_filter_variables(self):
        query = parse_query("SELECT ?s WHERE { ?s y:age ?a . FILTER(?b > 1) }")
        assert "b" in query.variables()

    def test_with_patterns_keeps_only_applicable_filters(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s y:age ?a . ?s y:hasGivenName ?n . FILTER(?a > 1) }"
        )
        reduced = query.with_patterns([query.patterns[1]])
        assert len(reduced.patterns) == 1
        assert reduced.filters == ()

    def test_to_sparql_round_trips_through_parser(self, example1_query):
        text = example1_query.to_sparql()
        reparsed = parse_query(text)
        assert reparsed.patterns == example1_query.patterns
        assert reparsed.projected_names() == example1_query.projected_names()

    def test_a_query_is_hashed_once_and_compares_by_its_fields(self):
        text = "SELECT ?s WHERE { ?s y:age ?a . ?s y:hasGivenName ?n . FILTER(?a > 1) }"
        query, again = parse_query(text), parse_query(text)
        assert query._hash is None
        assert hash(query) == hash(again) and query == again
        assert query._hash == hash(query)  # kept after the first call
        reduced = query.with_patterns([query.patterns[1]])
        assert reduced != query and reduced._hash is None
        assert hash(reduced) == hash(again.with_patterns([again.patterns[1]]))

    def test_query_requires_at_least_one_pattern(self):
        with pytest.raises(ParseError):
            SelectQuery(projection=(), patterns=())

    def test_filter_evaluation(self):
        flt = Filter(Variable("a"), ">=", Literal("18", XSD_INTEGER))
        assert flt.evaluate({"a": Literal("20", XSD_INTEGER)})
        assert not flt.evaluate({"a": Literal("10", XSD_INTEGER)})
        assert not flt.evaluate({})

    def test_filter_rejects_unknown_operator(self):
        with pytest.raises(ParseError):
            Filter(Variable("a"), "LIKE", Literal("x"))

    def test_pattern_variable_names(self):
        pattern = TriplePattern(Variable("s"), YAGO.wasBornIn, Variable("o"))
        assert pattern.variable_names() == frozenset({"s", "o"})
        assert pattern.has_concrete_predicate
