"""Differential suite: the sharded store must be indistinguishable from the
unsharded oracle in *answers*, their *order* and *total work*, for every
shard count.

For randomized workloads drawn from every template family (WatDiv L/S/F/C,
YAGO, Bio2RDF) and N ∈ {1, 2, 4, 7}, ``ShardedRelationalStore(N)`` must
return the same bindings in the same order, and identical work counters, as
the single-table reference oracle (``ReferenceStore()``) — both standalone and through ``DualStore.run_query`` with transfers,
evictions, and inserts interleaved.  Only the *parallel wall-clock* pricing
may differ; that is the whole point of sharding (and
``tests/test_sharded_pricing.py`` pins it).
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
from repro.rdf.terms import IRI, Triple
from repro.relstore.executor import relational_work_units

SHARD_COUNTS = (1, 2, 4, 7)

#: Aggressive skew settings so that subject-sharding (the trickier placement)
#: is actually exercised, not just the one-shard-per-predicate fast path.
AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)

# Sharding must be invisible however the store was written: every test takes
# the shared ``writer`` fixture, so its sharded store is bulk-loaded once and
# written in small insert batches once — batches re-check the skew limit
# against a smaller store, so they may promote other predicates.


def oracle_dual(triples) -> DualStore:
    return DualStore(relational_store=ReferenceStore()).load(triples)


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
def baselines(family_workloads):
    """The unsharded oracle's execution of every workload, computed once."""
    out = {}
    for label, triples, queries in family_workloads:
        store = ReferenceStore()
        store.load(triples)
        out[label] = [store.execute(query) for query in queries]
    return out


# --------------------------------------------------------------------------- #
# Standalone store differential
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_store_matches_unsharded_for_every_family(shards, writer, family_workloads, baselines, fingerprint):
    for label, triples, queries in family_workloads:
        store = writer.write(ShardedRelationalStore(shards=shards, config=AGGRESSIVE), triples)
        for query, cold in zip(queries, baselines[label]):
            warm = store.execute(query)
            assert fingerprint(warm) == fingerprint(cold), f"{label}: bindings diverged at N={shards}"
            assert warm.bindings == cold.bindings, f"{label}: row order diverged at N={shards}"
            assert warm.counters.as_dict() == cold.counters.as_dict(), (
                f"{label}: work counters diverged at N={shards}"
            )
            assert relational_work_units(warm.counters) == relational_work_units(cold.counters)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_limit_queries_match_unsharded_rows_and_order(shards, writer, watdiv_dataset):
    """LIMIT without ORDER BY is an arbitrary subset under SPARQL semantics;
    both stores truncate the one table's insertion order, so they choose the
    same subset, in the same order, for the same work."""
    from dataclasses import replace

    base = ReferenceStore()
    base.load(watdiv_dataset.triples)
    store = writer.write(ShardedRelationalStore(shards=shards, config=AGGRESSIVE), watdiv_dataset.triples)
    workload = watdiv_workload(watdiv_dataset, family="linear", seed=9)
    for query in workload.ordered()[:8]:
        limited = replace(query, limit=3)
        cold = base.execute(limited)
        warm = store.execute(limited)
        assert warm.bindings == cold.bindings
        assert warm.counters.as_dict() == cold.counters.as_dict()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_metadata_matches_unsharded(shards, writer, watdiv_dataset):
    base = ReferenceStore()
    base.load(watdiv_dataset.triples)
    store = writer.write(ShardedRelationalStore(shards=shards, config=AGGRESSIVE), watdiv_dataset.triples)
    assert len(store) == len(base)
    assert store.predicates() == base.predicates()
    assert store.partition_sizes() == base.partition_sizes()
    for predicate in base.predicates():
        assert sorted(t.n3() for t in store.partition(predicate)) == sorted(
            t.n3() for t in base.partition(predicate)
        )
    # Statistics drive planning; identical statistics -> identical plans.
    cold = base.statistics()
    warm = store.statistics()
    assert warm.total_rows == cold.total_rows
    assert warm.per_predicate == cold.per_predicate


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_estimates_match_unsharded(shards, writer, watdiv_dataset, family_workloads):
    base = ReferenceStore()
    base.load(watdiv_dataset.triples)
    store = writer.write(ShardedRelationalStore(shards=shards, config=AGGRESSIVE), watdiv_dataset.triples)
    _, _, queries = family_workloads[0]
    for query in queries[:10]:
        assert store.estimate_query_seconds(query) == pytest.approx(
            base.estimate_query_seconds(query)
        )


# --------------------------------------------------------------------------- #
# Dual-store differential with interleaved physical-design changes
# --------------------------------------------------------------------------- #
def _fresh_triples(dataset, count: int, salt: str):
    """New triples on an existing predicate, so inserts change answers."""
    predicate = sorted(dataset.triples.predicates, key=lambda p: p.value)[0]
    return [
        Triple(IRI(f"http://example.org/fresh/{salt}/{i}"), predicate, IRI(f"http://example.org/val/{i}"))
        for i in range(count)
    ]


@pytest.mark.parametrize("shards", (2, 7))
def test_dualstore_runs_identically_with_interleaved_mutations(shards, writer, watdiv_dataset, fingerprint):
    workload = watdiv_workload(watdiv_dataset, seed=41)
    queries = workload.randomized(seed=3)[:40]

    base = oracle_dual(watdiv_dataset.triples)
    sharded = writer.dual(watdiv_dataset.triples, shards=shards, sharding=AGGRESSIVE)

    rng = random.Random(7)
    transferable = sorted(
        {p for q in queries for p in q.predicates()}, key=lambda p: p.value
    )
    transferred: list = []

    for index, query in enumerate(queries):
        cold = base.run_query(query)
        warm = sharded.run_query(query)
        assert warm.record.route == cold.record.route, f"route diverged at query {index}"
        assert fingerprint(warm.result) == fingerprint(cold.result), f"bindings diverged at query {index}"
        assert warm.result.bindings == cold.result.bindings, f"row order diverged at query {index}"
        assert warm.result.counters.as_dict() == cold.result.counters.as_dict(), (
            f"work diverged at query {index} on route {cold.record.route}"
        )

        # Interleave physical-design changes and inserts between queries.
        action = index % 5
        if action == 1 and transferable:
            predicate = transferable.pop(rng.randrange(len(transferable)))
            base.transfer_partition(predicate)
            sharded.transfer_partition(predicate)
            transferred.append(predicate)
        elif action == 3 and transferred:
            predicate = transferred.pop(0)
            base.evict_partition(predicate)
            sharded.evict_partition(predicate)
        elif action == 4:
            fresh = _fresh_triples(watdiv_dataset, 5, salt=str(index))
            base.insert(fresh)
            sharded.insert(fresh)
            assert len(base.relational) == len(sharded.relational)

    # The two structures end in the same physical design.
    assert base.graph.loaded_predicates == sharded.graph.loaded_predicates
    assert base.partition_sizes() == sharded.partition_sizes()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_total_work_through_dualstore_is_shard_invariant(shards, writer, watdiv_dataset):
    """`relational_work_for` — the tuner's currency — must not depend on N."""
    workload = watdiv_workload(watdiv_dataset, family="complex", seed=5)
    base = oracle_dual(watdiv_dataset.triples)
    sharded = writer.dual(watdiv_dataset.triples, shards=shards, sharding=AGGRESSIVE)
    for query in workload.ordered()[:10]:
        assert sharded.relational_work_for(query) == base.relational_work_for(query)
