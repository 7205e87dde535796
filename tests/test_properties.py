"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import string
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ACTION_KEEP, ACTION_MOVE, QMatrix, STATE_GRAPH, STATE_RELATIONAL
from graph_oracle import GraphMatcher, PropertyGraph
from repro.graphstore import GraphStore
from repro.rdf import (
    IRI,
    Literal,
    TermDictionary,
    Triple,
    TripleSet,
    Variable,
    parse_ntriples,
    serialize_ntriples,
)
from repro.rdf.terms import XSD_INTEGER
from repro.relstore import RelationalStore
from repro.sparql import SelectQuery, TriplePattern
from repro.sparql.ast import COMPARISON_OPERATORS, Filter
from repro.sparql.parser import canonical_query_text, parse_query

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
_local_names = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)

iris = st.builds(lambda name: IRI("http://example.org/" + name), _local_names)
predicates = st.builds(lambda name: IRI("http://example.org/p/" + name), st.sampled_from("abcdef"))
literals = st.builds(
    Literal,
    st.text(min_size=0, max_size=12),
    st.just("http://www.w3.org/2001/XMLSchema#string"),
)
subjects = iris
objects = st.one_of(iris, literals)
triples = st.builds(Triple, subjects, predicates, objects)
triple_lists = st.lists(triples, min_size=0, max_size=40)


# --------------------------------------------------------------------------- #
# RDF invariants
# --------------------------------------------------------------------------- #
@given(triple_lists)
def test_tripleset_length_equals_distinct_triples(batch):
    triple_set = TripleSet(batch)
    assert len(triple_set) == len(set(batch))


@given(triple_lists)
def test_tripleset_partitions_cover_exactly_the_set(batch):
    triple_set = TripleSet(batch)
    recovered = [t for p in triple_set.predicates for t in triple_set.partition(p)]
    assert sorted(t.n3() for t in recovered) == sorted(t.n3() for t in set(batch))


@given(triple_lists)
def test_tripleset_add_then_discard_restores_previous_state(batch):
    triple_set = TripleSet(batch)
    probe = Triple(IRI("http://example.org/probe"), IRI("http://example.org/p/probe"), Literal("x"))
    before = len(triple_set)
    triple_set.add(probe)
    triple_set.discard(probe)
    assert len(triple_set) == before
    assert probe not in triple_set


@given(triple_lists)
def test_ntriples_round_trip(batch):
    unique = list(set(batch))
    parsed = list(parse_ntriples(serialize_ntriples(unique)))
    assert sorted(t.n3() for t in parsed) == sorted(t.n3() for t in unique)


@given(st.lists(st.one_of(iris, literals), min_size=0, max_size=60))
def test_dictionary_encoding_is_a_bijection_over_seen_terms(terms):
    dictionary = TermDictionary()
    ids = [dictionary.encode(term) for term in terms]
    # encoding is stable and decoding inverts it
    assert ids == [dictionary.encode(term) for term in terms]
    assert [dictionary.decode(i) for i in ids] == list(terms)
    assert len(dictionary) == len(set(terms))


# --------------------------------------------------------------------------- #
# Store equivalence: the relational executor and the graph matcher must agree
# --------------------------------------------------------------------------- #
def _single_predicate_query(predicate: IRI) -> SelectQuery:
    return SelectQuery(
        projection=(Variable("s"), Variable("o")),
        patterns=(TriplePattern(Variable("s"), predicate, Variable("o")),),
    )


def _join_query(p1: IRI, p2: IRI) -> SelectQuery:
    return SelectQuery(
        projection=(Variable("a"), Variable("c")),
        patterns=(
            TriplePattern(Variable("a"), p1, Variable("b")),
            TriplePattern(Variable("b"), p2, Variable("c")),
        ),
    )


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(triple_lists)
def test_relational_and_graph_store_agree_on_scans_and_joins(batch):
    triple_set = TripleSet(batch)
    relational = RelationalStore()
    relational.load(triple_set)
    graph = GraphStore(storage_budget=None)
    for predicate in triple_set.predicates:
        graph.load_partition(predicate, triple_set.partition(predicate))

    for predicate in triple_set.predicates:
        query = _single_predicate_query(predicate)
        assert relational.execute(query).distinct_rows() == graph.execute(query).distinct_rows()

    predicates = triple_set.predicates
    if len(predicates) >= 2:
        query = _join_query(predicates[0], predicates[1])
        assert relational.execute(query).distinct_rows() == graph.execute(query).distinct_rows()


@settings(max_examples=25, deadline=None)
@given(triple_lists)
def test_graph_matcher_distinct_matches_tripleset_scan(batch):
    triple_set = TripleSet(batch)
    graph = PropertyGraph()
    graph.add_triples(triple_set)
    matcher = GraphMatcher(graph)
    for predicate in triple_set.predicates:
        result = matcher.execute(_single_predicate_query(predicate))
        expected = {(t.subject, t.object) for t in triple_set.partition(predicate)}
        assert result.distinct_rows() == expected


# --------------------------------------------------------------------------- #
# Graph store budget invariant
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(triple_lists, st.integers(min_value=0, max_value=30))
def test_graph_store_never_exceeds_its_budget(batch, budget):
    triple_set = TripleSet(batch)
    store = GraphStore(storage_budget=budget)
    for predicate in triple_set.predicates:
        partition = triple_set.partition(predicate)
        try:
            store.load_partition(predicate, partition)
        except Exception:
            # rejected partitions must leave the store untouched
            assert predicate not in store.loaded_predicates
        assert store.used_capacity() <= budget


# --------------------------------------------------------------------------- #
# Q-learning invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([(STATE_RELATIONAL, ACTION_MOVE), (STATE_GRAPH, ACTION_KEEP)]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=0,
        max_size=30,
    ),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_qmatrix_stays_bounded_for_bounded_rewards(updates, alpha, gamma):
    """With rewards in [0, R], every Q value stays within [0, R / (1 - gamma)]."""
    matrix = QMatrix()
    bound = 100.0 / (1.0 - gamma) + 1e-6
    for (state, action), reward in updates:
        matrix.update(state, action, reward, alpha=alpha, gamma=gamma)
        assert all(0.0 <= value <= bound for row in matrix.values for value in row)
    # the pinned entries never move
    assert matrix.get(STATE_RELATIONAL, ACTION_KEEP) == 0.0
    assert matrix.get(STATE_GRAPH, ACTION_MOVE) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=0.1, max_value=1.0))
def test_qmatrix_single_update_matches_equation_4(reward, alpha):
    matrix = QMatrix()
    value = matrix.update(STATE_RELATIONAL, ACTION_MOVE, reward, alpha=alpha, gamma=0.5)
    assert value == pytest.approx(alpha * reward)


# --------------------------------------------------------------------------- #
# Random SPARQL queries: canonical-text round trips and plan-cache keys
# --------------------------------------------------------------------------- #
_query_variables = st.builds(Variable, st.sampled_from("abcdefg"))
# Lowercase-only, no spaces: the cosmetic-variant test below mangles the
# query *text* (whitespace, keyword case), which must never reach inside a
# quoted literal.
_safe_literals = st.builds(
    Literal,
    st.text(alphabet=string.ascii_lowercase + string.digits, min_size=0, max_size=10),
)
_int_literals = st.builds(Literal, st.integers(min_value=0, max_value=999).map(str), st.just(XSD_INTEGER))
_pattern_subjects = st.one_of(_query_variables, iris)
_pattern_predicates = st.one_of(_query_variables, predicates)
_pattern_objects = st.one_of(_query_variables, iris, _safe_literals, _int_literals)
_query_patterns = st.builds(TriplePattern, _pattern_subjects, _pattern_predicates, _pattern_objects)

#: A fresh IRI that the strategies above can never generate (different path).
_MUTANT_IRI = IRI("http://example.org/mutant/never-generated")


@st.composite
def select_queries(draw) -> SelectQuery:
    """Random SELECT queries over the parser's full supported surface."""
    patterns = tuple(draw(st.lists(_query_patterns, min_size=1, max_size=4)))
    names = sorted({v.name for p in patterns for v in p.variables()})
    projection: tuple = ()
    if names and draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        projection = tuple(Variable(name) for name in chosen)
    filters: tuple = ()
    if names and draw(st.booleans()):
        left = Variable(draw(st.sampled_from(names)))
        operator = draw(st.sampled_from(COMPARISON_OPERATORS))
        right = draw(st.one_of(_int_literals, _safe_literals))
        filters = (Filter(left, operator, right),)
    return SelectQuery(
        projection=projection,
        patterns=patterns,
        filters=filters,
        distinct=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=50))),
    )


@settings(max_examples=100, deadline=None)
@given(select_queries())
def test_canonical_query_text_round_trips(query):
    """canonical(parse(text)) is a fixed point: canonicalizing, reparsing,
    and re-rendering must land on the same cache key (the ISSUE's
    ``c(p(t)) == c(p(c(p(t))))`` property)."""
    text = query.to_sparql()
    first = canonical_query_text(parse_query(text).to_sparql())
    again = canonical_query_text(parse_query(first).to_sparql())
    assert again == first
    # Canonicalization itself is idempotent at the token level too.
    assert canonical_query_text(first) == first


@settings(max_examples=100, deadline=None)
@given(select_queries())
def test_cosmetic_variants_share_one_plan_cache_key(query):
    """Whitespace, comments, and keyword case never split the plan cache."""
    text = query.to_sparql()
    key = canonical_query_text(text)
    spaced = text.replace(" ", "   ").replace("\n", "\n\n")
    commented = "\n".join(line + " # noise" for line in text.splitlines())
    lowered = (
        text.replace("SELECT", "select").replace("WHERE", "wHeRe").replace("FILTER", "filter").replace("LIMIT", "limit")
    )
    for variant in (spaced, commented, lowered):
        assert canonical_query_text(variant) == key


def _semantic_mutants(query: SelectQuery):
    """Queries adversarially close to ``query`` but semantically different.

    Each mutant differs by exactly one semantic ingredient: modifier flags,
    limit, one constant, one predicate, one pattern, or the join structure.
    None of them may collide with the original's plan-cache key — a collision
    would serve one query's cached answer for the other.
    """
    mutants = [replace(query, distinct=not query.distinct)]
    mutants.append(replace(query, limit=(query.limit or 0) + 9))
    first, rest = query.patterns[0], query.patterns[1:]
    mutants.append(replace(query, patterns=(replace(first, object=_MUTANT_IRI),) + rest))
    mutants.append(replace(query, patterns=(replace(first, predicate=_MUTANT_IRI),) + rest))
    mutants.append(
        replace(query, patterns=query.patterns + (TriplePattern(Variable("zz"), _MUTANT_IRI, Variable("zz")),))
    )
    if len(query.patterns) > 1:
        mutants.append(replace(query, patterns=query.patterns[1:]))
    # Breaking one occurrence of a join variable changes the join structure.
    occurrences = query.variable_occurrences()
    join_vars = sorted(name for name, count in occurrences.items() if count > 1)
    if join_vars:
        target = join_vars[0]
        for index, pattern in enumerate(query.patterns):
            if target in pattern.variable_names():
                renamed = TriplePattern(
                    *(
                        Variable("zz") if isinstance(term, Variable) and term.name == target else term
                        for term in (pattern.subject, pattern.predicate, pattern.object)
                    )
                )
                mutated = query.patterns[:index] + (renamed,) + query.patterns[index + 1 :]
                mutants.append(replace(query, patterns=mutated))
                break
    return mutants


@settings(max_examples=100, deadline=None)
@given(select_queries(), st.data())
def test_near_miss_queries_never_collide_in_the_plan_cache(query, data):
    """Adversarial near-misses: one changed constant/predicate/pattern/flag
    must always produce a distinct plan-cache key."""
    key = canonical_query_text(query.to_sparql())
    mutant = data.draw(st.sampled_from(_semantic_mutants(query)), label="mutant")
    assert canonical_query_text(mutant.to_sparql()) != key


@settings(max_examples=50, deadline=None)
@given(select_queries())
def test_equal_keys_imply_equal_parsed_queries(query):
    """The collision-freedom direction: two texts with one canonical key
    parse to the same AST, so a plan-cache hit can never mix semantics."""
    text = query.to_sparql()
    canonical = canonical_query_text(text)
    assert parse_query(canonical) == parse_query(text)
