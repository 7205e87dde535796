"""Differential suite: the SQLite path vs the relational store's engines.

The SQL compiler + SQLiteBackend (``tests/sql_oracle.py``) answer the same
SPARQL subset as the work-accounted Python engines, and that parity needs a
guard: the stored surface forms are TEXT, so a carelessly compiled filter
would compare ``"5"`` and ``"250"`` lexicographically while the executors
compare them numerically.  This suite pins answer-parity across *every*
template family of all three synthetic datasets (YAGO, WatDiv, Bio2RDF), so
any future divergence between the SQL path and the engines names the family
that broke.

SQLite keeps its own storage, so it is the *storage-independent* oracle:
the production engine and its decode-per-row reference both read the
columnar table, and only this suite would notice that table storing or
handing back the wrong rows.  (Only answers are compared, as multisets: the
SQLite path has no work counters, so there is nothing to differentiate on
the accounting side.)
"""

from __future__ import annotations

import pytest

from relational_oracle import ReferenceStore
from sql_oracle import SQLiteBackend
from repro import (
    RelationalStore,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    bio2rdf_workload,
    watdiv_workload,
    yago_workload,
)

_DATASETS = {
    "yago": lambda: (generate_yago(2500, seed=7), yago_workload),
    "watdiv": lambda: (generate_watdiv(2500, seed=7), watdiv_workload),
    "bio2rdf": lambda: (generate_bio2rdf(2500, seed=23), bio2rdf_workload),
}


def _row_fingerprint(rows):
    """Order-insensitive fingerprint of a result-row multiset."""
    return sorted(tuple(term.n3() for term in row) for row in rows)


@pytest.fixture(scope="module", params=sorted(_DATASETS))
def engines(request):
    """(dataset name, its triples, per-family queries, loaded SQLite)."""
    dataset, build_workload = _DATASETS[request.param]()
    workload = build_workload(dataset)
    by_family = {}
    for entry in workload.queries:
        by_family.setdefault(entry.family, []).append((entry.template, entry.query))

    backend = SQLiteBackend()
    backend.insert_triples(dataset.triples)
    yield request.param, dataset.triples, by_family, backend
    backend.close()


def test_sql_answers_match_both_engines_for_every_family(engines, writer):
    name, triples, by_family, backend = engines
    assert by_family, f"{name}: workload has no queries"
    stores = {
        "columnar": writer.write(RelationalStore(), triples),
        "reference": writer.write(ReferenceStore(), triples),
    }
    for family, entries in sorted(by_family.items()):
        for template, query in entries:
            columns, sql_rows = backend.execute_select(query)
            for engine, store in stores.items():
                result = store.execute(query)
                assert columns == tuple(result.variables), (
                    f"{name}/{family}/{template}: projected columns diverged ({engine})"
                )
                assert _row_fingerprint(sql_rows) == _row_fingerprint(result.rows()), (
                    f"{name}/{family}/{template}: SQL answers diverged from {engine}"
                )


def test_sql_filter_comparison_is_typed_not_lexicographic():
    """The regression the suite exists for: multi-digit numeric filters.

    Stored as TEXT, ``"5" <= "250"`` is lexicographically *false*; the typed
    comparison both Python engines use says *true*.  The SQLite path must
    agree with the engines, not with the bytes.
    """
    from repro.rdf.terms import IRI, Literal, Triple
    from repro.sparql import parse_query

    subject_cheap = IRI("http://example.org/cheap")
    subject_dear = IRI("http://example.org/dear")
    price = IRI("http://example.org/price")
    triples = [
        Triple(subject_cheap, price, Literal.from_python(5)),
        Triple(subject_dear, price, Literal.from_python(999)),
    ]
    query = parse_query(
        "SELECT ?p WHERE { ?p <http://example.org/price> ?v . FILTER(?v <= 250) }"
    )

    store = RelationalStore()
    store.load(triples)
    with SQLiteBackend() as backend:
        backend.insert_triples(triples)
        _, sql_rows = backend.execute_select(query)
    python_rows = store.execute(query).rows()
    assert _row_fingerprint(sql_rows) == _row_fingerprint(python_rows)
    assert _row_fingerprint(sql_rows) == [(subject_cheap.n3(),)]


def test_sql_filter_comparison_orders_signed_and_fractional_numbers_by_value():
    """Signs and fractions break byte order too: ``"-20" < "-3"`` and
    ``"12.25" < "5.5"`` as text, the other way round as numbers.  Integers
    and doubles compare with each other by value on both paths."""
    from repro.rdf.terms import IRI, Literal, Triple
    from repro.sparql import parse_query

    price = IRI("http://example.org/price")
    values = [-20, -3, 0, 5.5, 12.25, 250, 1000]
    triples = [
        Triple(IRI(f"http://example.org/item{i}"), price, Literal.from_python(value))
        for i, value in enumerate(values)
    ]
    expected = {
        "?v < -5": [-20],
        "?v >= -3": [-3, 0, 5.5, 12.25, 250, 1000],
        "?v > 5.5": [12.25, 250, 1000],
        "?v <= 12.25": [-20, -3, 0, 5.5, 12.25],
        "?v != 0": [-20, -3, 5.5, 12.25, 250, 1000],
    }
    store = RelationalStore()
    store.load(triples)
    with SQLiteBackend() as backend:
        backend.insert_triples(triples)
        for condition, kept in expected.items():
            query = parse_query(
                "SELECT ?p WHERE { ?p <http://example.org/price> ?v . FILTER(%s) }" % condition
            )
            _, sql_rows = backend.execute_select(query)
            python_rows = store.execute(query).rows()
            assert _row_fingerprint(sql_rows) == _row_fingerprint(python_rows), condition
            assert _row_fingerprint(sql_rows) == sorted(
                (IRI(f"http://example.org/item{values.index(value)}").n3(),) for value in kept
            ), condition
