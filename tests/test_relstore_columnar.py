"""Columnar engine internals: the batch kernels, cached column blocks,
engine names and legacy snapshot tags, the sharded store's use of the one
execute loop, and the planner's skew guard.

The differential suite (``test_differential_engine.py``) proves the columnar
engine indistinguishable from the reference oracle end to end; this module
pins down the pieces that make that hold — kernel output *order* against the
oracle's own join and DISTINCT, how blocks follow writes, and the skew-aware
planner regression the skew guard exists to prevent.  That a maintained
block always equals a rebuilt one under arbitrary write sequences is
``test_relstore_maintained.py``'s job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relational_oracle import ReferenceStore, _merge_join, distinct_bindings, scan, scan_predicate
import repro
from repro import DualStore, RelationalStore, ShardedRelationalStore
from repro.cost.counters import WorkCounters
from repro.rdf import IRI, Triple
from repro.relstore import columnar
from repro.relstore.columnar import ColumnarTripleTable
from repro.relstore.executor import relational_work_units
from repro.relstore import planner
from repro.relstore.planner import plan_query
from repro.serve import QueryService, ServiceConfig
from repro.sparql import parse_query


def ex(name: str) -> IRI:
    return IRI(f"http://example.org/{name}")


# --------------------------------------------------------------------------- #
# Kernels: the numpy join and DISTINCT emit the oracle's order
# --------------------------------------------------------------------------- #
def _gathered(matches_and_total):
    """Both phases of a join at once: ``(left, right, output rows)``."""
    matches, total = matches_and_total
    left, right = columnar.gather(matches)
    return left.tolist(), right.tolist(), total


def _oracle_join(probe_keys, build_keys):
    """The oracle's hash join of the same rows, as ``(left, right)``
    positions: each key is a tuple of join-variable values (empty for the
    cartesian merge)."""
    width = len(probe_keys[0])
    shared = [f"k{i}" for i in range(width)]
    probe = [{**dict(zip(shared, key)), "left": i} for i, key in enumerate(probe_keys)]
    build = [{**dict(zip(shared, key)), "right": i} for i, key in enumerate(build_keys)]
    counters = WorkCounters()
    joined = _merge_join(probe, build, shared, counters)
    assert counters.rows_joined == len(joined)
    return [row["left"] for row in joined], [row["right"] for row in joined]


def test_hash_join_gathers_in_the_oracles_order():
    probe = [5, 3, 5, 9, 1, 3]
    build = [3, 5, 3, 7, 5, 3]
    left, right, total = _gathered(columnar.join_matches(np.array(probe), np.array(build)))
    assert (left, right) == _oracle_join([(key,) for key in probe], [(key,) for key in build])
    assert total == len(left)
    # Probe rows in pipeline order; within a key, build rows in block order.
    assert right[:2] == [1, 4]  # probe[0]=5 matches build rows 1 then 4


def test_composite_key_join_gathers_in_the_oracles_order():
    probe = [(1, 1), (1, 2), (2, 1), (1, 1), (3, 3)]
    build = [(1, 1), (2, 1), (1, 1), (1, 3), (2, 1)]
    keys = columnar.composite_keys(
        [np.array(column) for column in zip(*probe)], [np.array(column) for column in zip(*build)]
    )
    left, right, total = _gathered(columnar.join_matches(*keys))
    assert (left, right) == _oracle_join(probe, build)
    assert total == len(left) == 6


def test_a_join_on_a_memoized_group_index_gathers_in_the_oracles_order():
    """A join whose build side is a stored column reuses the block's memoized
    group index; handed it, the join gathers exactly as when it builds its
    own — probe keys below, between and above every build key included."""
    probe = [4, 0, 9, 2, 4, 11, 7]
    build = [2, 4, 9, 4, 2, 7, 4]
    block = columnar.ColumnBlock.of(np.array(build), np.arange(len(build)), len(build))
    index = block.group_index(block.subjects)
    assert block.group_index(block.subjects) is index
    memoized = _gathered(columnar.join_matches(np.array(probe), block.subjects, index))
    assert memoized == _gathered(columnar.join_matches(np.array(probe), block.subjects))
    left, right, total = memoized
    assert (left, right) == _oracle_join([(key,) for key in probe], [(key,) for key in build])
    assert total == len(left) == 3 + 1 + 2 + 3 + 1


def test_cartesian_gathers_in_the_oracles_order():
    left, right, total = _gathered(columnar.cartesian_matches(2, 3))
    assert (left, right) == _oracle_join([()] * 2, [()] * 3)
    assert total == 6


def test_distinct_selection_keeps_the_oracles_first_occurrences():
    def oracle(*columns):
        names = tuple(f"k{i}" for i in range(len(columns)))
        rows = [{**dict(zip(names, row)), "at": at} for at, row in enumerate(zip(*columns))]
        return [row["at"] for row in distinct_bindings(rows, names)]

    keys = [7, 2, 7, 5, 2, 7, 5]
    assert columnar.distinct_selection([np.array(keys)], len(keys)).tolist() == oracle(keys) == [0, 1, 3]
    # Multi-column keys: (1,1) repeats, (1,2) is new.
    a, b = [1, 1, 1], [1, 2, 1]
    assert columnar.distinct_selection([np.array(a), np.array(b)], 3).tolist() == oracle(a, b) == [0, 1]


# --------------------------------------------------------------------------- #
# Column blocks are the table: writes maintain them
# --------------------------------------------------------------------------- #
def _columnar_store() -> RelationalStore:
    store = RelationalStore(engine="columnar")
    store.load(
        [
            Triple(ex("a"), ex("p"), ex("x")),
            Triple(ex("b"), ex("p"), ex("y")),
            Triple(ex("c"), ex("q"), ex("z")),
        ]
    )
    return store

def _block_lists(table, predicate_id):
    block = table.partition_columns(predicate_id)
    return list(block.subjects), list(block.objects), block.count


def _rebuilt_lists(table, predicate_id):
    rows = list(scan_predicate(table, predicate_id))
    return [row[0] for row in rows], [row[2] for row in rows], len(rows)


def test_a_write_replaces_exactly_the_touched_predicates_blocks():
    """An insert batch extends each touched block once and a delete removes
    the row's one position, at write time; every other block — and its
    group-index memo — is the very same object afterwards, and a reader
    changes nothing."""
    store = _columnar_store()
    table = store.table
    assert isinstance(table, ColumnarTripleTable)
    p_id = table.dictionary.lookup(ex("p"))
    q_id = table.dictionary.lookup(ex("q"))
    q_block = table.partition_columns(q_id)
    q_memo = q_block.group_index(q_block.objects)
    assert table.full_columns()[3] == 3

    store.insert([Triple(ex("d"), ex("p"), ex("w")), Triple(ex("e"), ex("p"), ex("v"))])
    p_block = table._partition_columns[p_id]
    assert p_block.count == 4 and table._full_columns is None
    assert _block_lists(table, p_id) == _rebuilt_lists(table, p_id)
    assert list(p_block.subjects) == [
        table.dictionary.lookup(ex(name)) for name in ("a", "b", "d", "e")
    ]
    assert table.partition_columns(q_id) is q_block
    assert q_block.group_index(q_block.objects) is q_memo

    store.delete(Triple(ex("b"), ex("p"), ex("y")))
    assert table._partition_columns[p_id].count == 3
    assert _block_lists(table, p_id) == _rebuilt_lists(table, p_id)
    assert table.partition_columns(q_id) is q_block

    # Readers build nothing but the lazy full-table columns.
    blocks = dict(table._partition_columns)
    list(scan(table)), table.predicate_statistics(p_id), table.partition(ex("p"))
    assert table._partition_columns.keys() == blocks.keys()
    assert all(table._partition_columns[pid] is block for pid, block in blocks.items())
    assert table.full_columns()[3] == 4


def test_a_write_replaces_the_block_and_with_it_the_group_index_memo():
    store = _columnar_store()
    table = store.table
    p_id = table.dictionary.lookup(ex("p"))
    block = table.partition_columns(p_id)
    index = block.group_index(block.objects)
    assert index is not None and block.group_index(block.objects) is index
    assert block.group_index(list(block.objects)) is None  # not its own column
    store.insert([Triple(ex("d"), ex("p"), ex("w"))])
    assert table.partition_columns(p_id).group_indexes == [None, None]
    assert not hasattr(columnar, "_GROUP_INDEX_CACHE")


# --------------------------------------------------------------------------- #
# Group-index memo lifetime: on the block, never in a module global
# --------------------------------------------------------------------------- #
def test_group_index_memos_are_bounded_by_the_blocks_and_die_with_them():
    """Several hundred join executions from four reader threads memoize at
    most one group index per cached block column — temporaries are never
    memoized — and the memos are released by a write to their predicate and by
    dropping the store.  (The module-global, ``id()``-keyed dict this replaces
    kept an entry per build side ever seen and was swept with ``.items()``
    while other reader threads inserted.)"""
    import gc
    import sys
    import threading
    import weakref

    from repro import generate_watdiv, watdiv_workload

    dataset = generate_watdiv(target_triples=1500, seed=5)
    dual = DualStore().load(dataset.triples)
    table = dual.relational.table
    queries = [
        query
        for family in ("linear", "star", "snowflake", "complex")
        for query in watdiv_workload(dataset, family=family, seed=3).randomized(seed=4)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryService(dual, ServiceConfig(cache_results=False)) as service:

            def reader():
                while service.metrics.counters.executions < 300:
                    service.run_batch(queries)

            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in readers)
            assert service.metrics.counters.executions >= 300
    finally:
        sys.setswitchinterval(switch_interval)

    def memos():
        return [
            index
            for block in table._partition_columns.values()
            for index in block.group_indexes
            if index is not None
        ]

    assert 0 < len(memos()) <= 2 * len(table._partition_columns)
    assert not hasattr(columnar, "_GROUP_INDEX_CACHE")

    # A write to the predicate replaces its block: the old memo is released.
    predicate_id, block = next(
        (pid, block) for pid, block in table._partition_columns.items() if any(block.group_indexes)
    )
    released = [weakref.ref(part) for index in block.group_indexes if index for part in index]
    subject_id, object_id = int(block.subjects[0]), int(block.objects[0])
    decode = table.dictionary.decode
    dual.delete([Triple(decode(subject_id), decode(predicate_id), decode(object_id))])
    del block
    gc.collect()
    assert released and all(ref() is None for ref in released)

    # Dropping the store releases every remaining memo.
    remaining = [weakref.ref(part) for index in memos() for part in index]
    del dual, table, service
    gc.collect()
    assert all(ref() is None for ref in remaining)


# --------------------------------------------------------------------------- #
# One production engine: names, and what snapshots of the others restore to
# --------------------------------------------------------------------------- #
def test_unknown_engine_names_are_rejected_everywhere():
    with pytest.raises(ValueError):
        RelationalStore(engine="columnarr")
    with pytest.raises(ValueError):
        RelationalStore(engine="idspace")  # the deleted row engine is not a name any more
    assert type(RelationalStore(engine="columnar").table) is ColumnarTripleTable
    with pytest.raises(ValueError):
        RelationalStore(engine="reference")  # the oracle is a tests-side store, not an engine
    assert type(ReferenceStore().table) is ColumnarTripleTable  # one table class
    assert type(DualStore().relational.table) is ColumnarTripleTable


def test_the_shipped_package_loads_no_oracle():
    """``import repro`` loads the system only: no SQLite driver and none of
    the oracle modules, which live in tests/."""
    banned = (
        "sqlite3",
        "repro.relstore.reference",
        "repro.relstore.sqlite_backend",
        "repro.relstore.sql_compiler",
    )
    code = f"import sys, repro; print(*[m for m in {banned!r} if m in sys.modules])"
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert loaded.stdout.split() == []


@pytest.mark.parametrize("tag", ["idspace", "reference", "columnar", None])
@pytest.mark.parametrize("shards", [None, 4])
def test_legacy_engine_tags_restore_onto_the_production_engine(tag, shards, writer):
    """A snapshot written by any engine this repo ever had — tagged
    ``idspace``, ``reference``, ``columnar``, or (pre-columnar sharded
    stores) carrying no tag at all — restores onto columnar tables that
    answer exactly like the live store.  The key is no longer written."""
    from repro import ShardingConfig, generate_watdiv, watdiv_workload
    from repro.rdf.dictionary import TermDictionary

    dataset = generate_watdiv(target_triples=1200, seed=5)
    if shards is None:
        live = RelationalStore()
        live_dictionary = live.table.dictionary
    else:
        aggressive = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)
        live = ShardedRelationalStore(shards=shards, config=aggressive)
        live_dictionary = live.dictionary
    writer.write(live, dataset.triples)
    payload = live.snapshot_state()
    assert "engine" not in payload
    if tag is not None:
        payload["engine"] = tag

    dictionary = TermDictionary.from_payload(live_dictionary.to_payload())
    restored = type(live).restore_state(payload, dictionary)
    assert type(restored.table) is ColumnarTripleTable
    assert restored.snapshot_state() == live.snapshot_state()
    for family in ("star", "snowflake"):
        for query in watdiv_workload(dataset, family=family, seed=3).randomized(seed=4):
            ours, theirs = restored.execute(query), live.execute(query)
            assert ours.bindings == theirs.bindings
            assert ours.counters == theirs.counters
            assert ours.seconds == theirs.seconds


# --------------------------------------------------------------------------- #
# The sharded store runs the engine's one execute loop
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("promoted", [False, True], ids=["placed", "subject-sharded"])
def test_sharded_join_memoizes_on_the_table_block(promoted, writer):
    """The sharded store answers from its table's stored blocks, uncopied,
    and the block rides along into the join — so the join's group index is
    memoized on the block exactly as the unsharded store memoizes it, for a
    predicate placed on one shard and for a subject-sharded one alike."""
    from repro import ShardingConfig

    triples = [Triple(ex(f"s{i}"), ex("p"), ex(f"m{i % 7}")) for i in range(40)]
    triples += [Triple(ex(f"m{i}"), ex("q"), ex(f"t{i}")) for i in range(7)]
    query = parse_query(
        "SELECT ?s ?t WHERE { ?s <http://example.org/p> ?m . ?m <http://example.org/q> ?t . }"
    )
    config = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16) if promoted else None
    sharded = writer.write(ShardedRelationalStore(shards=3, config=config), triples)
    assert sharded.subject_sharded_predicates() == ([ex("p")] if promoted else [])
    plain = writer.write(RelationalStore(), triples)

    def memoized(table):
        """Per predicate id: which of (subjects, objects) carry a memo."""
        return {
            predicate_id: [index is not None for index in block.group_indexes]
            for predicate_id, block in table._partition_columns.items()
        }

    sharded_run, plain_run = sharded.execute(query), plain.execute(query)
    assert len(sharded_run) == 40
    assert sharded_run.bindings == plain_run.bindings
    assert sharded_run.counters == plain_run.counters
    # Same triples in the same order: both dictionaries assign the same ids.
    assert any(any(flags) for flags in memoized(plain.table).values())
    assert memoized(sharded.table) == memoized(plain.table)


# --------------------------------------------------------------------------- #
# The planner's skew guard
# --------------------------------------------------------------------------- #
def _skewed_triples():
    """A hot-key predicate the average-based estimate wildly underprices.

    ``hasTag``: 60 subjects share the ``Popular`` tag (the hot key) while 60
    more carry singleton tags, so the average object lookup is ~2 rows but
    the one lookup queries actually issue touches 60.  ``hasRole`` is the
    honest competitor: 12 rows, all ``Admin``.  ``knows`` connects them with
    deliberately asymmetric selectivity: only half the Popular subjects know
    an Admin, plus ten unpopular subjects who do.
    """
    triples = []
    for i in range(60):
        triples.append(Triple(ex(f"a{i}"), ex("hasTag"), ex("Popular")))
        triples.append(Triple(ex(f"b{i}"), ex("hasTag"), ex(f"unique{i}")))
    for i in range(12):
        triples.append(Triple(ex(f"d{i}"), ex("hasRole"), ex("Admin")))
    for i in range(30):
        triples.append(Triple(ex(f"a{i}"), ex("knows"), ex(f"d{i % 12}")))
    for i in range(30, 60):
        triples.append(Triple(ex(f"a{i}"), ex("knows"), ex(f"e{i}")))
    for i in range(10):
        triples.append(Triple(ex(f"b{i}"), ex("knows"), ex("d0")))
    return triples


SKEW_QUERY = """
SELECT ?x ?y WHERE {
  ?x <http://example.org/hasTag> <http://example.org/Popular> .
  ?y <http://example.org/hasRole> <http://example.org/Admin> .
  ?x <http://example.org/knows> ?y .
}
"""


def test_skew_guard_demotes_the_hot_key_lookup(monkeypatch):
    """With skew statistics the plan leads with the honest 12-row lookup;
    pricing lookups at the average (skew guard disabled) front-loads the
    hot-key lookup instead — the regression the guard exists to prevent."""
    store = RelationalStore(engine="columnar")
    store.load(_skewed_triples())
    query = parse_query(SKEW_QUERY)

    plan = store.plan(query)
    assert plan.steps[0].pattern.predicate == ex("hasRole")
    assert plan.steps[2].pattern.predicate == ex("hasTag")

    monkeypatch.setattr(planner, "SKEW_GUARD", 1e18)
    old_plan = plan_query(query, store.statistics())
    monkeypatch.undo()
    assert old_plan.steps[0].pattern.predicate == ex("hasTag")

    # Engine invariance: the oracle plans the same join order.
    oracle = ReferenceStore()
    oracle.load(_skewed_triples())
    assert [s.pattern for s in oracle.plan(query)] == [s.pattern for s in plan]

    # The reordering is not cosmetic: executing the old ordering joins
    # through the 60-row hot-key pipeline and does strictly more work.
    new_run = store.execute(query)
    old_run = store.execute(query, pattern_order=[s.pattern for s in old_plan])
    assert {tuple(sorted(b.items())) for b in new_run.bindings} == {
        tuple(sorted(b.items())) for b in old_run.bindings
    }
    assert new_run.counters.rows_joined < old_run.counters.rows_joined
    assert relational_work_units(new_run.counters) < relational_work_units(old_run.counters)

    # And both engines execute the skew-aware plan identically.
    cold = oracle.execute(query)
    assert cold.bindings == new_run.bindings
    assert cold.counters.as_dict() == new_run.counters.as_dict()


def test_skew_statistics_survive_the_payload_round_trip():
    """The skew statistics are not persisted: a store restored from its
    snapshot payload recomputes them from the rows, hot key included."""
    from repro.rdf.dictionary import TermDictionary

    store = RelationalStore(engine="columnar")
    store.load(_skewed_triples())
    stats = store.statistics()
    hot = stats.per_predicate[ex("hasTag")]
    assert hot.max_object_rows == 60

    payload = store.snapshot_state()
    assert "statistics" not in payload
    dictionary = TermDictionary.from_payload(store.dictionary.to_payload())
    restored = RelationalStore.restore_state(payload, dictionary).statistics()
    assert restored.per_predicate[ex("hasTag")].max_object_rows == 60
    assert restored == stats
    assert list(restored.per_predicate) == list(stats.per_predicate)
