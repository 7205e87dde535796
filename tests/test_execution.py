"""The result value: shared immutable columns, lazy per-row views.

An engine result is built from :class:`~repro.execution.ResultColumns`;
``len`` and the encoder read the columns and build nothing per row, while
``bindings`` / ``rows()`` / ``column()`` / ``distinct_rows()`` are views for
experiment code, derived on request and equal to what the dict-building
oracle engines produce.  A result built from dicts (the oracles) behaves
exactly as it always did.
"""

from __future__ import annotations

import tracemalloc

import pytest

from relational_oracle import ReferenceStore
from repro import DotilConfig, DualStore
from repro.endpoint import encode_results
from repro.errors import QueryTimeoutError
from repro.execution import ExecutionResult, ResultColumns, ResultTable
from repro.rdf import IRI, Literal, Triple, TripleSet
from repro.relstore import RelationalStore
from repro.resilience.deadline import PROBE_STRIDE, Deadline, deadline_scope
from repro.sparql import parse_query

EX = "http://example.org/"
KNOWS = IRI(EX + "knows")
NAME = IRI(EX + "name")
ROWS = 3000  # the size of a ``result_large`` answer

JOIN = parse_query(f"SELECT ?s ?o ?n WHERE {{ ?s <{KNOWS.value}> ?o . ?o <{NAME.value}> ?n . }}")
SCAN = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{KNOWS.value}> ?o . }}")
UNBOUND = parse_query(f"SELECT ?s ?zz WHERE {{ ?s <{KNOWS.value}> ?o . }}")


def _triples():
    people = [IRI(f"{EX}person/{i}") for i in range(ROWS)]
    triples = [Triple(person, KNOWS, people[(i * 7 + 1) % ROWS]) for i, person in enumerate(people)]
    triples += [Triple(person, NAME, Literal(f"name {i % 50}")) for i, person in enumerate(people)]
    return TripleSet(triples)


@pytest.fixture(scope="module")
def triples():
    return _triples()


@pytest.fixture
def stores(triples, writer):
    """A columnar store, written ``writer``'s way, and its dict-building oracle."""
    columnar = writer.write(RelationalStore(), triples)
    oracle = ReferenceStore()
    oracle.load(triples)
    return columnar, oracle


def _refuse(self):
    raise AssertionError("a solution dict was built")


def test_len_and_encode_build_nothing_per_row(stores, no_row_views):
    columnar, _oracle = stores
    result = columnar.execute(JOIN)
    assert len(result) == ROWS
    assert len(encode_results(result)) > ROWS * 100
    assert len(result.view()) == ROWS


def test_encode_peak_memory_is_a_small_multiple_of_the_body(stores):
    columnar, _oracle = stores
    result = columnar.execute(JOIN)
    encode_results(result)  # fill the fragment table: steady state is what is measured
    tracemalloc.start()
    try:
        body = encode_results(result)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(body), (peak, len(body))


def test_views_equal_their_dict_derived_values(stores):
    columnar, oracle = stores
    for query in (JOIN, SCAN, UNBOUND):
        mine, theirs = columnar.execute(query), oracle.execute(query)
        assert mine.columns.count == len(mine) == len(theirs)
        assert mine.bindings == theirs.bindings
        for name in mine.variables:
            assert mine.column(name) == theirs.column(name) == [b[name] for b in theirs.bindings if name in b]
        assert mine.column("nowhere") == []
    for query in (JOIN, SCAN):
        assert columnar.execute(query).rows() == oracle.execute(query).rows()
        assert columnar.execute(query).distinct_rows() == oracle.execute(query).distinct_rows()
    with pytest.raises(KeyError):  # a projected variable no row binds, as ever
        columnar.execute(UNBOUND).rows()
    with pytest.raises(KeyError):
        oracle.execute(UNBOUND).rows()


def test_bindings_is_one_caller_owned_list_per_result(stores):
    columnar, _oracle = stores
    result = columnar.execute(SCAN)
    first = result.bindings
    assert type(first) is list and type(first[0]) is dict
    assert result.bindings is first  # materialized once per result object
    one, two = result.view(), result.view()
    assert one.columns is two.columns is result.columns  # shared, O(1)
    assert one.bindings == two.bindings == first
    assert one.bindings is not two.bindings and one.bindings is not first
    assert one.counters is not two.counters and one.counters == result.counters
    one.bindings.clear()  # a consumer's edit stays the consumer's
    assert len(two.bindings) == len(first) == len(one) == ROWS
    assert encode_results(one) == encode_results(two)


def test_equality_and_repr_are_the_dataclass_ones(stores):
    columnar, oracle = stores
    query = parse_query(f"SELECT ?o WHERE {{ <{EX}person/0> <{KNOWS.value}> ?o . }}")
    mine, again, theirs = columnar.execute(query), columnar.execute(query), oracle.execute(query)
    assert mine == again == theirs and theirs == mine
    assert mine != columnar.execute(SCAN)
    again.seconds += 1.0
    assert mine != again
    assert repr(mine) == repr(theirs)
    assert repr(mine).startswith("ExecutionResult(bindings=[{'o': IRI(value='http://example.org/person/1')}], variables=('o',), counters=")
    assert "columns" not in repr(mine)


def test_dict_built_results_keep_working():
    rows = [{"x": IRI(EX + "a"), "y": Literal("1")}, {"x": IRI(EX + "b"), "y": Literal("2")}]
    result = ExecutionResult(bindings=rows, variables=("x", "y"))
    assert result.bindings is rows and len(result) == 2
    assert result.rows() == [(IRI(EX + "a"), Literal("1")), (IRI(EX + "b"), Literal("2"))]
    assert result.column("y") == [Literal("1"), Literal("2")]
    columns = result.columns
    assert (columns.names, columns.count, columns.space) == (("x", "y"), 2, None)
    assert columns.to_bindings() == rows
    view = result.view()
    assert view.bindings == rows and view.bindings is not rows
    rows.pop()  # the list is the result: edits show, as before
    assert len(result) == 1 and result.columns.count == 1 and len(view) == 2
    assert ExecutionResult(bindings=[], variables=("x",)).columns.names == ()


def test_result_table_reads_the_columns(stores, monkeypatch):
    columnar, oracle = stores
    monkeypatch.setattr(ResultColumns, "to_bindings", _refuse)  # no tuple -> dict -> tuple
    table = ResultTable.from_result("t", columnar.execute(SCAN))
    assert table.variables == ("s", "o") and len(table) == ROWS
    assert table.rows == ResultTable.from_result("t", oracle.execute(SCAN)).rows


def test_split_route_shares_the_relational_legs_columns(triples, monkeypatch):
    # The migrated table is tuples by definition; no dict may be built anywhere.
    monkeypatch.setattr(ResultColumns, "to_bindings", _refuse)
    dual = DualStore(DotilConfig(r_bg=0.6)).load(triples)  # room for the KNOWS partition
    dual.transfer_partition(KNOWS)
    query = parse_query(
        f"SELECT ?a ?c ?n WHERE {{ ?a <{KNOWS.value}> ?b . ?b <{KNOWS.value}> ?c . "
        f"?a <{NAME.value}> ?n . ?c <{NAME.value}> ?m . }}"
    )
    processed = dual.processor.process(query, dual.identifier.identify(query))
    assert processed.route == "split" and processed.result.store == "dual"
    assert len(processed.result) == processed.record.result_count == ROWS
    assert processed.result.columns.space is not None  # the relational leg's id columns
    assert processed.result.counters.triples_migrated == ROWS


def test_materializing_inside_a_deadline_scope_is_probed(stores):
    columnar, _oracle = stores
    result = columnar.execute(SCAN)
    ticks = iter(range(10**6))
    deadline = Deadline(2.5, clock=lambda: float(next(ticks)))  # expires at the third probe
    with deadline_scope(deadline), pytest.raises(QueryTimeoutError):
        result.bindings
    assert ROWS > 2 * PROBE_STRIDE  # the loop really was cut between strides
    assert len(result.bindings) == ROWS  # outside the scope: no probe, and nothing half-built was kept
