"""Differential suite: the id-space graph matcher vs the object-space oracle.

The graph store matches queries over resident id-column blocks with the
relational engine's kernels (:mod:`repro.graphstore.matcher`).  It must be
indistinguishable in output from the row-by-row traversal of a property
graph of term objects (``tests/graph_oracle.py``): the same solutions in
the same order, the same ``nodes_expanded``/``edges_traversed``/
``results_produced`` — therefore the same modelled seconds — for every
template family, through every ``QueryProcessor`` route, and for every
subquery DOTIL prices while it tunes.

Tests that take the shared ``writer`` fixture run twice: with the master
copy bulk-loaded, and written in small insert batches, so the blocks a
transfer hands over were maintained write by write.
"""

from __future__ import annotations

import random

import pytest

from graph_oracle import oracle_execute
from relational_oracle import ReferenceStore
from repro import (
    PAPER_TUNED_CONFIG,
    AdaptiveConfig,
    DualStore,
    QueryService,
    RelationalStore,
    ServiceConfig,
    bio2rdf_workload,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    watdiv_workload,
    yago_workload,
)
from repro.core.processor import ROUTE_GRAPH, ROUTE_RELATIONAL, ROUTE_SPLIT


def assert_same(result, expected, context: str) -> None:
    """Ordered rows, every work counter and the modelled seconds."""
    assert result.variables == expected.variables, f"{context}: projected variables diverged"
    assert result.bindings == expected.bindings, f"{context}: rows or their order diverged"
    assert result.counters.as_dict() == expected.counters.as_dict(), f"{context}: work diverged"
    assert result.seconds == expected.seconds, f"{context}: modelled seconds diverged"


@pytest.fixture(scope="module")
def family_workloads():
    """(family label, triples, randomized queries) per template family."""
    rng = random.Random(31)
    watdiv = generate_watdiv(target_triples=2500, seed=23)
    cases = []
    for family in ("linear", "star", "snowflake", "complex"):
        workload = watdiv_workload(watdiv, family=family, seed=rng.randrange(10_000))
        cases.append((f"watdiv-{family}", watdiv.triples, workload.randomized(seed=rng.randrange(10_000))))
    yago = generate_yago(target_triples=2000, seed=11)
    cases.append(("yago-complex", yago.triples, yago_workload(yago, seed=rng.randrange(10_000)).randomized()))
    bio = generate_bio2rdf(target_triples=2000, seed=13)
    cases.append(("bio2rdf-mixed", bio.triples, bio2rdf_workload(bio, seed=rng.randrange(10_000)).randomized()))
    return cases


def _predicates(queries):
    return sorted({p for query in queries for p in query.predicates()}, key=lambda p: p.value)


def test_graph_matcher_matches_the_oracle_for_every_family(writer, family_workloads):
    """Every predicate of the family resident: the whole query in the graph
    store, in the greedy order and in source order (the planner ablation)."""
    for label, triples, queries in family_workloads:
        dual = writer.dual(triples, storage_budget=len(triples))
        for predicate in _predicates(queries):
            dual.transfer_partition(predicate)
        for index, query in enumerate(queries):
            assert_same(dual.graph.execute(query), oracle_execute(dual.graph, query), f"{label}[{index}]")
            source_order = list(query.patterns)
            assert_same(
                dual.graph.execute(query, pattern_order=source_order),
                oracle_execute(dual.graph, query, pattern_order=source_order),
                f"{label}[{index}] source order",
            )


class _OracleGraph:
    """A graph store whose answers come from the object-space oracle."""

    def __init__(self, store):
        self._store = store

    def covers(self, predicates) -> bool:
        return self._store.covers(predicates)

    def execute(self, query, pattern_order=None):
        result = oracle_execute(self._store, query, pattern_order)
        result.store = "graph"
        return result


def test_every_route_matches_the_oracle_under_random_residency(writer, family_workloads):
    """Random residency per family, so queries take all three routes.  The
    oracle stack is the object-space graph over the same residency plus the
    decode-per-row relational reference: the split route's migrated table
    then joins as term rows, the production one as id columns."""
    rng = random.Random(5)
    routes = set()
    for label, triples, queries in family_workloads:
        dual = writer.dual(triples, storage_budget=len(triples))
        oracle = DualStore(storage_budget=len(triples), relational_store=ReferenceStore()).load(
            triples
        )
        oracle.processor.graph = _OracleGraph(oracle.graph)
        for round_ in range(3):
            resident = [p for p in _predicates(queries) if rng.random() < 0.5]
            for store in (dual, oracle):
                store.apply_moves(
                    transfers=resident, evictions=sorted(store.graph.loaded_predicates, key=str)
                )
            for index, query in enumerate(queries):
                served, expected = dual.run_query(query), oracle.run_query(query)
                context = f"{label}[{index}] round {round_}"
                assert served.route == expected.route, context
                assert_same(served.result, expected.result, context)
                assert served.record.seconds == expected.record.seconds, context
                routes.add(served.route)
    assert routes == {ROUTE_GRAPH, ROUTE_SPLIT, ROUTE_RELATIONAL}


def test_every_dotil_window_subquery_prices_like_the_oracle(writer):
    """Serve a workload on the paper's tuned configuration and run DOTIL
    epochs: every subquery the tuner prices in the graph store (its reward's
    ``c1``) gets the oracle's rows, work and seconds."""
    dataset = generate_yago(target_triples=3000, seed=3)
    dual = writer.dual(dataset.triples, config=PAPER_TUNED_CONFIG)
    priced = []
    graph_cost = dual.graph_cost

    def checked_graph_cost(subquery):
        seconds, result = graph_cost(subquery)
        expected = oracle_execute(dual.graph, subquery)
        assert_same(result, expected, f"window subquery {len(priced)}")
        assert seconds == expected.seconds
        priced.append(subquery)
        return seconds, result

    dual.graph_cost = checked_graph_cost
    service = QueryService(dual, ServiceConfig(adaptive=AdaptiveConfig()))
    try:
        batches = yago_workload(dataset, seed=9).batches("random")
        for batch in batches:
            for query in batch:
                service.run_query(query)
            service.tune_now()
    finally:
        service.close()
    assert len(priced) > 50
    assert dual.graph.loaded_predicates, "the epochs moved nothing into the graph store"
