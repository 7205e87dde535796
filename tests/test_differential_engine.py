"""Differential suite: the production engine vs the decode-per-row reference.

The vectorized columnar engine (``RelationalStore()``) must be
*indistinguishable in output* from the decode-per-row oracle
(``ReferenceStore`` of ``tests/relational_oracle.py``): byte-identical result bindings (same solutions,
same order, same dict contents) and bit-identical logical
:class:`~repro.cost.counters.WorkCounters` — therefore identical modelled
seconds — across every template family, unsharded and sharded,
standalone and through ``DualStore.run_query`` with physical-design mutations
interleaved, and across a persist round-trip.  Only wall-clock may differ;
that is the whole point.

Tests that take the shared ``writer`` fixture run twice: with the engine's
store bulk-loaded, and with the same triples written in small insert batches,
so the blocks it reads were maintained write by write.  The oracle is always
bulk-loaded.
"""

from __future__ import annotations

import random

import pytest

from relational_oracle import ReferenceStore
from repro import (
    DualStore,
    RelationalStore,
    ShardedRelationalStore,
    ShardingConfig,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    bio2rdf_workload,
    watdiv_workload,
    yago_workload,
)
from repro.execution import ResultTable
from repro.rdf import IRI, Literal, Triple, YAGO
from repro.relstore.columnar import ColumnarTripleTable
from repro.relstore.executor import relational_work_units
from repro.sparql import parse_query

SHARD_COUNTS = (1, 4)

#: Aggressive skew settings so subject-sharded scatter paths are exercised.
AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)


def assert_identical(warm, cold, context: str) -> None:
    """Byte-identical bindings (content *and* order) plus bit-identical work."""
    assert warm.variables == cold.variables, f"{context}: projected variables diverged"
    assert warm.bindings == cold.bindings, f"{context}: bindings diverged"
    assert warm.counters.as_dict() == cold.counters.as_dict(), f"{context}: work diverged"
    assert relational_work_units(warm.counters) == relational_work_units(cold.counters)


# --------------------------------------------------------------------------- #
# Workloads covering every template family
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def watdiv_dataset():
    return generate_watdiv(target_triples=2500, seed=23)


@pytest.fixture(scope="module")
def family_workloads(watdiv_dataset):
    """(family label, dataset, randomized queries) per template family."""
    rng = random.Random(99)
    cases = []
    for family in ("linear", "star", "snowflake", "complex"):
        workload = watdiv_workload(watdiv_dataset, family=family, seed=rng.randrange(10_000))
        cases.append((f"watdiv-{family}", watdiv_dataset.triples, workload.randomized(seed=rng.randrange(10_000))))
    yago = generate_yago(target_triples=2000, seed=11)
    cases.append(("yago-complex", yago.triples, yago_workload(yago, seed=rng.randrange(10_000)).randomized()))
    bio = generate_bio2rdf(target_triples=2000, seed=13)
    cases.append(("bio2rdf-mixed", bio.triples, bio2rdf_workload(bio, seed=rng.randrange(10_000)).randomized()))
    return cases


@pytest.fixture(scope="module")
def reference_runs(family_workloads):
    """Reference-executor results of every workload, computed once."""
    out = {}
    for label, triples, queries in family_workloads:
        store = ReferenceStore()
        store.load(triples)
        out[label] = [store.execute(query) for query in queries]
    return out


# --------------------------------------------------------------------------- #
# Every template family, unsharded and sharded: byte-identical to the oracle
# --------------------------------------------------------------------------- #
def test_columnar_engine_matches_reference_for_every_family(
    writer, family_workloads, reference_runs
):
    """Full family matrix: batch hash joins + mask selection + decode-once
    projection must reproduce the reference byte-for-byte, bit-for-bit."""
    for label, triples, queries in family_workloads:
        store = writer.write(RelationalStore(engine="columnar"), triples)
        for index, (query, cold) in enumerate(zip(queries, reference_runs[label])):
            warm = store.execute(query)
            assert_identical(warm, cold, f"columnar {label}[{index}]")
            assert warm.seconds == pytest.approx(cold.seconds, rel=0, abs=0)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_columnar_matches_reference_for_every_family(
    shards, writer, family_workloads, reference_runs
):
    """Sharded columnar: the same table and loop, so the same bindings in
    the same order, and identical work."""
    for label, triples, queries in family_workloads:
        store = writer.write(ShardedRelationalStore(shards=shards, config=AGGRESSIVE), triples)
        for index, (query, cold) in enumerate(zip(queries, reference_runs[label])):
            warm = store.execute(query)
            assert warm.bindings == cold.bindings, (
                f"columnar {label}[{index}]: bindings diverged at N={shards}"
            )
            assert warm.counters.as_dict() == cold.counters.as_dict(), (
                f"columnar {label}[{index}]: work diverged at N={shards}"
            )


def test_repeated_execution_through_the_bound_plan_memo_stays_identical(
    writer, family_workloads, reference_runs
):
    """The second execution takes the memoized (plan, compiled) path; answers
    and counters must not depend on which path bound the plan."""
    label, triples, queries = family_workloads[3]  # watdiv-complex
    store = writer.write(RelationalStore(), triples)
    first = [store.execute(q) for q in queries[:10]]
    for index, query in enumerate(queries[:10]):
        again = store.execute(query)
        assert_identical(again, first[index], f"memoized re-run [{index}]")
        assert_identical(again, reference_runs[label][index], f"memoized vs reference [{index}]")


# --------------------------------------------------------------------------- #
# Work budgets: engine and oracle must abort at the same step boundaries
# --------------------------------------------------------------------------- #
def test_capped_execution_parity(writer, watdiv_dataset):
    reference = ReferenceStore()
    reference.load(watdiv_dataset.triples)
    columnar = writer.write(RelationalStore(), watdiv_dataset.triples)
    queries = watdiv_workload(watdiv_dataset, family="complex", seed=5).ordered()[:8]
    for query in queries:
        for budget in (1.0, 50.0, 1e9):
            cold_result, cold_seconds = reference.execute_capped(query, work_budget=budget)
            warm_result, warm_seconds = columnar.execute_capped(query, work_budget=budget)
            assert (warm_result is None) == (cold_result is None)
            assert warm_seconds == pytest.approx(cold_seconds, rel=0, abs=0)
            if warm_result is not None:
                assert_identical(warm_result, cold_result, f"capped {budget}")


# --------------------------------------------------------------------------- #
# Filters: the equal-id fast path must not change value-comparison semantics
# --------------------------------------------------------------------------- #
@pytest.fixture
def filter_store_pair(writer, mini_kg):
    reference = ReferenceStore()
    reference.load(mini_kg)
    columnar = writer.write(RelationalStore(), mini_kg)
    return columnar, reference


FILTER_QUERIES = [
    # id fast path: equality/inequality on same-term operands
    'SELECT ?p ?n WHERE { ?p y:hasGivenName ?n . FILTER(?n = "Frank") }',
    'SELECT ?p ?n WHERE { ?p y:hasGivenName ?n . FILTER(?n != "Frank") }',
    # constant absent from the dictionary (local-id + decode fallback)
    'SELECT ?p WHERE { ?p y:hasGivenName ?n . FILTER(?n = "Zelda") }',
    'SELECT ?p WHERE { ?p y:hasGivenName ?n . FILTER(?n != "Zelda") }',
    # var-var comparison across two patterns
    "SELECT ?a ?b WHERE { ?a y:wasBornIn ?c1 . ?b y:wasBornIn ?c2 . FILTER(?c1 = ?c2) }",
    "SELECT ?a ?b WHERE { ?a y:wasBornIn ?c1 . ?b y:wasBornIn ?c2 . FILTER(?c1 != ?c2) }",
    # ordering comparisons force the decode fallback on unequal ids
    'SELECT ?p ?n WHERE { ?p y:hasGivenName ?n . FILTER(?n < "Carol") }',
    'SELECT ?p ?n WHERE { ?p y:hasGivenName ?n . FILTER(?n >= "Carol") }',
    # unbound filter variable: every solution must fail
    "SELECT ?p WHERE { ?p y:wasBornIn ?c . FILTER(?nope = ?c) }",
    # reflexive comparisons exercise the equal-id operator table
    "SELECT ?p WHERE { ?p y:wasBornIn ?c . FILTER(?c <= ?c) }",
    "SELECT ?p WHERE { ?p y:wasBornIn ?c . FILTER(?c < ?c) }",
]


@pytest.mark.parametrize("text", FILTER_QUERIES)
def test_filter_semantics_match_reference(filter_store_pair, text):
    columnar, reference = filter_store_pair
    query = parse_query(text)
    assert_identical(columnar.execute(query), reference.execute(query), text)


def test_nan_literals_defeat_the_equal_id_fast_path():
    """``"NaN"^^xsd:double`` compares unequal even to itself, so equal ids
    must NOT settle ``=``/``<=``/``>=``/``!=`` for doubles — the fast path
    has to hand them to the value comparison like the reference does."""
    age = YAGO.term("hasAge")
    nan = Literal("nan", "http://www.w3.org/2001/XMLSchema#double")
    triples = [
        Triple(YAGO.term("Ann"), age, nan),
        Triple(YAGO.term("Ben"), age, Literal.from_python(30.0)),
    ]
    reference = ReferenceStore()
    reference.load(triples)
    columnar = RelationalStore()
    columnar.load(triples)
    for operator in ("=", "!=", "<", "<=", ">", ">="):
        query = parse_query(
            "SELECT ?p WHERE { ?p y:hasAge ?x . FILTER(?x %s ?x) }" % operator
        )
        cold = reference.execute(query)
        warm = columnar.execute(query)
        assert_identical(warm, cold, f"NaN reflexive {operator}")
        people = {b["p"] for b in warm.bindings}
        # NaN fails every reflexive comparison except `!=` (NaN != NaN is
        # true); Ben's 30.0 satisfies exactly the reflexive-true operators.
        assert (YAGO.term("Ann") in people) == (operator == "!=")
        assert (YAGO.term("Ben") in people) == (operator in ("=", "<=", ">="))


def test_malformed_integer_literal_raises_in_both_engines():
    """``int("abc")`` raises during ``Literal.to_python``; the equal-id fast
    path must not silently swallow what the reference engine surfaces."""
    age = YAGO.term("hasAge")
    broken = Literal("abc", "http://www.w3.org/2001/XMLSchema#integer")
    triples = [Triple(YAGO.term("Ann"), age, broken)]
    query = parse_query("SELECT ?p WHERE { ?p y:hasAge ?x . FILTER(?x = ?x) }")
    for store in (ReferenceStore(), RelationalStore()):
        store.load(triples)
        with pytest.raises(ValueError):
            store.execute(query)


def test_numeric_value_equality_across_datatypes_still_matches():
    """``"30"^^xsd:integer`` and ``"30.0"^^xsd:double`` are *different terms*
    (different ids) but equal *values* — the exact case the ID fast path must
    hand to the decode fallback instead of deciding by id inequality."""
    age = YAGO.term("hasAge")
    store_triples = [
        Triple(YAGO.term("Ann"), age, Literal.from_python(30)),
        Triple(YAGO.term("Ben"), age, Literal.from_python(30.0)),
        Triple(YAGO.term("Cleo"), age, Literal.from_python(31)),
    ]
    query = parse_query("SELECT ?a ?b WHERE { ?a y:hasAge ?x . ?b y:hasAge ?y . FILTER(?x = ?y) }")
    reference = ReferenceStore()
    reference.load(store_triples)
    columnar = RelationalStore()
    columnar.load(store_triples)
    cold = reference.execute(query)
    warm = columnar.execute(query)
    assert_identical(warm, cold, "cross-datatype equality")
    pairs = {(b["a"], b["b"]) for b in warm.bindings}
    # Ann's integer 30 and Ben's double 30.0 must match each other by value.
    assert (YAGO.term("Ann"), YAGO.term("Ben")) in pairs


# --------------------------------------------------------------------------- #
# Migrated tables (Case 2 plans): hash join + execution-local term ids
# --------------------------------------------------------------------------- #
def test_extra_table_with_shared_variables_matches_reference(writer, mini_kg):
    reference = ReferenceStore()
    reference.load(mini_kg)
    columnar = writer.write(RelationalStore(), mini_kg)
    table = ResultTable.from_rows(
        name="tmp",
        variables=("p", "tag"),
        rows=[
            (YAGO.term("Alice"), Literal("known")),
            (YAGO.term("Eve"), Literal("known")),
            # A subject that exists nowhere in the store: joins with nothing,
            # and its terms only live in the execution-local id space.
            (IRI("http://example.org/ghost"), Literal("phantom")),
        ],
    )
    query = parse_query("SELECT ?p ?n ?tag WHERE { ?p y:hasGivenName ?n . }")
    for tables_are_views in (False, True):
        cold = reference.execute(query, extra_tables=[table], tables_are_views=tables_are_views)
        warm = columnar.execute(query, extra_tables=[table], tables_are_views=tables_are_views)
        assert_identical(warm, cold, f"extra table (views={tables_are_views})")
        assert len(warm) == 2


def test_disjoint_extra_table_still_cartesian(writer, mini_kg):
    reference = ReferenceStore()
    reference.load(mini_kg)
    columnar = writer.write(RelationalStore(), mini_kg)
    table = ResultTable.from_rows(name="tmp", variables=("x",), rows=[(Literal("a"),), (Literal("b"),)])
    query = parse_query("SELECT ?p ?x WHERE { ?p y:isMarriedTo ?q . }")
    cold = reference.execute(query, extra_tables=[table])
    warm = columnar.execute(query, extra_tables=[table])
    assert_identical(warm, cold, "disjoint extra table")
    assert len(warm) == 2 * 2  # two marriages x two tags


# --------------------------------------------------------------------------- #
# Edge pattern shapes (dup-slot masks, table scans, unmatchable consts)
# --------------------------------------------------------------------------- #
@pytest.fixture
def edge_store_pair(writer, mini_kg):
    narcissus = YAGO.term("Narcissus")
    extra = [Triple(narcissus, YAGO.term("isMarriedTo"), narcissus)]
    reference = ReferenceStore()
    reference.load(mini_kg)
    reference.insert(extra)
    columnar = writer.write(RelationalStore(), mini_kg)
    columnar.insert(extra)
    return columnar, reference


EDGE_QUERIES = [
    # repeated variable within one pattern (dup-slot check; one self-loop)
    "SELECT ?x WHERE { ?x y:isMarriedTo ?x . }",
    # full scan binding all three positions
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }",
    # table scan with a constant subject that is in the dictionary
    "SELECT ?p ?o WHERE { <http://yago-knowledge.org/resource/Alice> ?p ?o . }",
    # table scan with a subject the dictionary has never seen: the pattern is
    # unmatchable, but the scan still charges every row
    "SELECT ?p ?o WHERE { <http://example.org/ghost> ?p ?o . }",
    # projected variable that no pattern binds
    "SELECT ?p ?nothing WHERE { ?p y:wasBornIn ?c . }",
    # a three-variable pattern joining on one shared variable (two fresh
    # columns enter the pipeline at once)
    "SELECT ?p ?r ?o WHERE { ?p y:hasAcademicAdvisor ?a . ?p ?r ?o . }",
    # DISTINCT + LIMIT on id columns
    "SELECT DISTINCT ?city WHERE { ?p y:wasBornIn ?city . } LIMIT 2",
]


@pytest.mark.parametrize("text", EDGE_QUERIES)
def test_edge_pattern_shapes_match_reference(edge_store_pair, text):
    columnar, reference = edge_store_pair
    query = parse_query(text)
    assert_identical(columnar.execute(query), reference.execute(query), text)


def test_empty_extra_table_short_circuits_identically(edge_store_pair):
    """Once an extra table empties the pipeline, later tables must charge
    nothing — in both engines."""
    columnar, reference = edge_store_pair
    empty = ResultTable.from_rows(name="empty", variables=("p",), rows=[])
    follow = ResultTable.from_rows(name="follow", variables=("q",), rows=[(YAGO.term("Alice"),)])
    query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . }")
    cold = reference.execute(query, extra_tables=[empty, follow])
    warm = columnar.execute(query, extra_tables=[empty, follow])
    assert_identical(warm, cold, "empty extra table")
    assert warm.counters.rows_scanned == len(empty)  # the second table never charged


# --------------------------------------------------------------------------- #
# DualStore differential with interleaved physical-design mutations
# --------------------------------------------------------------------------- #
def _fresh_triples(dataset, count: int, salt: str):
    predicate = sorted(dataset.triples.predicates, key=lambda p: p.value)[0]
    return [
        Triple(IRI(f"http://example.org/fresh/{salt}/{i}"), predicate, IRI(f"http://example.org/val/{i}"))
        for i in range(count)
    ]


def test_dualstore_runs_identically_with_interleaved_mutations(writer, watdiv_dataset):
    workload = watdiv_workload(watdiv_dataset, seed=41)
    queries = workload.randomized(seed=3)[:40]

    cold_dual = DualStore(relational_store=ReferenceStore()).load(
        watdiv_dataset.triples
    )
    warm_dual = writer.dual(watdiv_dataset.triples)

    rng = random.Random(7)
    transferable = sorted({p for q in queries for p in q.predicates()}, key=lambda p: p.value)
    transferred: list = []

    for index, query in enumerate(queries):
        cold = cold_dual.run_query(query)
        warm = warm_dual.run_query(query)
        assert warm.record.route == cold.record.route, f"route diverged at query {index}"
        assert_identical(warm.result, cold.result, f"query {index} on route {cold.record.route}")

        # Interleave physical-design changes and inserts between queries; the
        # inserts also age out the store's bound-plan memo, so stale
        # compiled constants would be caught here.
        action = index % 5
        if action == 1 and transferable:
            predicate = transferable.pop(rng.randrange(len(transferable)))
            cold_dual.transfer_partition(predicate)
            warm_dual.transfer_partition(predicate)
            transferred.append(predicate)
        elif action == 3 and transferred:
            predicate = transferred.pop(0)
            cold_dual.evict_partition(predicate)
            warm_dual.evict_partition(predicate)
        elif action == 4:
            fresh = _fresh_triples(watdiv_dataset, 5, salt=str(index))
            cold_dual.insert(fresh)
            warm_dual.insert(fresh)
            assert len(cold_dual.relational) == len(warm_dual.relational)

    assert cold_dual.graph.loaded_predicates == warm_dual.graph.loaded_predicates
    assert cold_dual.partition_sizes() == warm_dual.partition_sizes()


def test_sharded_dualstore_with_mutations_matches_reference(writer, watdiv_dataset):
    """The full stack: reference unsharded vs the engine sharded (N=4), with
    transfers and inserts between queries."""
    workload = watdiv_workload(watdiv_dataset, seed=17)
    queries = workload.randomized(seed=29)[:25]
    cold_dual = DualStore(relational_store=ReferenceStore()).load(
        watdiv_dataset.triples
    )
    warm_dual = writer.dual(watdiv_dataset.triples, shards=4, sharding=AGGRESSIVE)
    transferable = sorted({p for q in queries for p in q.predicates()}, key=lambda p: p.value)

    for index, query in enumerate(queries):
        cold = cold_dual.run_query(query)
        warm = warm_dual.run_query(query)
        assert warm.record.route == cold.record.route, f"route diverged at query {index}"
        assert warm.result.bindings == cold.result.bindings, f"bindings diverged at {index}"
        assert warm.result.counters.as_dict() == cold.result.counters.as_dict(), (
            f"work diverged at query {index}"
        )
        if index % 4 == 1 and transferable:
            predicate = transferable.pop(0)
            if cold_dual.graph.fits(cold_dual.relational.partition_size(predicate)):
                cold_dual.transfer_partition(predicate)
                warm_dual.transfer_partition(predicate)
        elif index % 4 == 3:
            fresh = _fresh_triples(watdiv_dataset, 3, salt=f"s{index}")
            cold_dual.insert(fresh)
            warm_dual.insert(fresh)


# --------------------------------------------------------------------------- #
# Persist round-trip
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", (None, 4))
def test_columnar_engine_survives_a_persist_round_trip(
    tmp_path, shards, writer, watdiv_dataset
):
    """Snapshot/restore lands on columnar tables and the restored store's
    answers and logical work stay identical to the pre-snapshot store."""
    from repro.persist import load_snapshot, write_snapshot

    kwargs = {} if shards is None else {"shards": shards, "sharding": AGGRESSIVE}
    dual = writer.dual(watdiv_dataset.triples, **kwargs)
    queries = watdiv_workload(watdiv_dataset, seed=61).randomized(seed=67)[:10]
    before = [dual.run_query(q).result for q in queries]

    write_snapshot(dual, tmp_path / "snap")
    restored = load_snapshot(tmp_path / "snap").dual
    relational = restored.relational
    assert type(relational.table) is ColumnarTripleTable

    for index, query in enumerate(queries):
        after = restored.run_query(query).result
        assert after.bindings == before[index].bindings, f"bindings diverged at {index}"
        assert after.counters.as_dict() == before[index].counters.as_dict(), (
            f"work diverged at query {index}"
        )
