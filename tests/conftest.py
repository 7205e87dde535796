"""Shared fixtures for the test suite.

The fixtures build small, deterministic knowledge graphs and queries that
many test modules reuse: a handful of hand-written YAGO-style triples (so
expected query answers can be enumerated by hand), plus generated synthetic
datasets at test scale.
"""

from __future__ import annotations

import pytest

from repro.core import DualStore
from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.rdf import IRI, Literal, Triple, TripleSet, YAGO
from repro.serve import QueryService, ServiceConfig
from repro.sparql import parse_query
from repro.workload import generate_yago, yago_workload


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: multi-process / wall-clock-heavy tests (deselect with '-m \"not slow\"')",
    )


def _binding_fingerprint(result):
    """Order-insensitive fingerprint of a result's solution multiset.

    The canonical equality notion of the differential/stress suites: two
    results are "binding-identical" iff these fingerprints match.
    """
    return sorted(
        sorted((name, term.n3()) for name, term in binding.items())
        for binding in result.bindings
    )


@pytest.fixture(scope="session")
def fingerprint():
    """The shared binding-multiset fingerprint helper (as a fixture so the
    one definition serves every test module)."""
    return _binding_fingerprint


# --------------------------------------------------------------------------- #
# Hand-written mini knowledge graph (answers verifiable by hand)
# --------------------------------------------------------------------------- #
def _person(name: str) -> IRI:
    return YAGO.term(name)


def _city(name: str) -> IRI:
    return YAGO.term(name)


@pytest.fixture(scope="session")
def mini_kg() -> TripleSet:
    """Seven people, three cities, advisor/marriage/name facts.

    Designed so the paper's Example 1 style queries have small, hand-checkable
    answers:

    * alice was born in berlin, her advisor bob was also born in berlin.
    * carol was born in paris, her advisor dave was born in berlin (no match).
    * eve and frank are married and both born in rome.
    """
    born = YAGO.term("wasBornIn")
    advisor = YAGO.term("hasAcademicAdvisor")
    married = YAGO.term("isMarriedTo")
    given = YAGO.term("hasGivenName")
    family = YAGO.term("hasFamilyName")

    berlin, paris, rome = _city("Berlin"), _city("Paris"), _city("Rome")
    alice, bob, carol, dave, eve, frank, grace = (
        _person("Alice"),
        _person("Bob"),
        _person("Carol"),
        _person("Dave"),
        _person("Eve"),
        _person("Frank"),
        _person("Grace"),
    )

    triples = [
        Triple(alice, born, berlin),
        Triple(bob, born, berlin),
        Triple(carol, born, paris),
        Triple(dave, born, berlin),
        Triple(eve, born, rome),
        Triple(frank, born, rome),
        Triple(grace, born, paris),
        Triple(alice, advisor, bob),
        Triple(carol, advisor, dave),
        Triple(eve, advisor, grace),
        Triple(eve, married, frank),
        Triple(frank, married, eve),
        Triple(alice, given, Literal("Alice")),
        Triple(alice, family, Literal("Smith")),
        Triple(bob, given, Literal("Bob")),
        Triple(carol, given, Literal("Carol")),
        Triple(eve, given, Literal("Eve")),
        Triple(frank, given, Literal("Frank")),
    ]
    return TripleSet(triples)


@pytest.fixture(scope="session")
def advisor_query():
    """The paper's motivating query: people born where their advisor was born."""
    return parse_query(
        "SELECT ?p WHERE { ?p y:wasBornIn ?city . "
        "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }"
    )


@pytest.fixture(scope="session")
def example1_query():
    """The paper's Example 1 query (names + advisor + spouse birthplaces)."""
    return parse_query(
        "SELECT ?GivenName ?FamilyName WHERE { "
        "?p y:hasGivenName ?GivenName . "
        "?p y:hasFamilyName ?FamilyName . "
        "?p y:wasBornIn ?city . "
        "?p y:hasAcademicAdvisor ?a . "
        "?a y:wasBornIn ?city . "
        "?p y:isMarriedTo ?p2 . "
        "?p2 y:wasBornIn ?city . }"
    )


# --------------------------------------------------------------------------- #
# Generated synthetic data at test scale
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def yago_dataset():
    return generate_yago(2500, seed=7)


@pytest.fixture(scope="session")
def yago_queries(yago_dataset):
    return yago_workload(yago_dataset, seed=13)


# --------------------------------------------------------------------------- #
# Live HTTP endpoint (SPARQL protocol suites)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def endpoint_dataset():
    """A smaller dataset than ``yago_dataset`` — endpoint tests pay HTTP
    round-trips per query, so they keep the store cheap to build and probe."""
    return generate_yago(900, seed=11)


@pytest.fixture(scope="session")
def endpoint_workload(endpoint_dataset):
    return yago_workload(endpoint_dataset, seed=17)


@pytest.fixture
def endpoint_factory(endpoint_dataset):
    """Factory for live in-process endpoints on ephemeral ports.

    Each call builds a fresh ``DualStore`` + ``QueryService`` + started
    ``SparqlEndpoint`` and returns the ``(endpoint, service)`` pair; teardown
    stops every endpoint and closes every service even when a test fails
    mid-request.  Pass ``triples=...`` to serve hand-written data instead of
    the shared synthetic dataset, and ``config=...`` to shape admission.
    """
    cleanups = []

    def build(*, triples=None, config=None, service_config=None):
        dual = DualStore().load(
            triples if triples is not None else endpoint_dataset.triples
        )
        service = QueryService(
            dual, service_config or ServiceConfig()
        )
        endpoint = SparqlEndpoint(service, config or EndpointConfig())
        endpoint.start()
        cleanups.append((endpoint, service))
        return endpoint, service

    yield build
    for endpoint, service in reversed(cleanups):
        try:
            endpoint.stop()
        finally:
            service.close()


@pytest.fixture
def live_endpoint(endpoint_factory):
    """A started endpoint over the shared synthetic dataset, with its
    backing service (for pinning wire bytes against direct answers)."""
    return endpoint_factory()


# --------------------------------------------------------------------------- #
# How a store's blocks were written
# --------------------------------------------------------------------------- #
class StoreWriter:
    """Writes a test's triples into the stores it builds, one of two ways.

    ``loaded`` is one bulk ``load``.  ``batched`` inserts the same triples,
    in the same order, :attr:`BATCH_ROWS` at a time: every batch extends the
    blocks it touches, moves their write stamps and ages the statistics and
    bound plans, and a sharded store re-checks its skew limit against a
    smaller store each time, so it may promote other predicates than a bulk
    load would.  Answers, order (unsharded) and work must not tell the two
    apart.
    """

    BATCH_ROWS = 7

    def __init__(self, name: str):
        self.name = name

    def write(self, store, triples):
        """Write ``triples`` into the relational ``store``; returns it."""
        if self.name == "loaded":
            store.load(triples)
            return store
        triples = list(triples)
        for start in range(0, len(triples), self.BATCH_ROWS):
            store.insert(triples[start : start + self.BATCH_ROWS])
        return store

    def dual(self, triples, **options) -> DualStore:
        """A loaded ``DualStore(**options)`` whose master copy was written
        this writer's way (the dual's own load then finds every row there)."""
        dual = DualStore(**options)
        if self.name == "batched":
            self.write(dual.relational, triples)
        return dual.load(triples)


@pytest.fixture(params=["loaded", "batched"])
def writer(request) -> StoreWriter:
    """Run the test once per way of writing the stores it builds."""
    return StoreWriter(request.param)


# --------------------------------------------------------------------------- #
# The columnar result value (repro.execution)
# --------------------------------------------------------------------------- #
@pytest.fixture
def no_row_views(monkeypatch):
    """Fail the test if anything asks a result's columns for per-row dicts or
    tuples — the serving path must not (rule REP008 is the static half)."""
    from repro.execution import ResultColumns

    def refuse(self):
        raise AssertionError("a per-row result view was materialized on the serving path")

    monkeypatch.setattr(ResultColumns, "to_bindings", refuse)
    monkeypatch.setattr(ResultColumns, "rows", refuse)
    return monkeypatch


# --------------------------------------------------------------------------- #
# Lock-order race detection (repro.analysis.lockgraph)
# --------------------------------------------------------------------------- #
@pytest.fixture
def lock_graph():
    """Runtime lock-order detection for concurrency stress tests.

    Project lock construction (``threading.Lock``/``RLock`` created by
    ``repro`` code, plus :class:`~repro.serve.adaptive.ReadWriteLock`) is
    instrumented for the duration of the test; at teardown the observed
    acquisition-order graph must be **acyclic**, or the test fails with a
    potential-deadlock report carrying both witness stacks per edge.  Build
    the objects under test inside the test body — locks created before the
    fixture entered stay untracked.
    """
    from repro.analysis.lockgraph import LockGraph, instrument

    graph = LockGraph()
    with instrument(graph):
        yield graph
    graph.assert_acyclic()
