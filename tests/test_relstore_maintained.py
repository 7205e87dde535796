"""The table's storage and the state derived from it, against plain models.

The columnar table stores each predicate's rows as one id-column block and
maintains the blocks, the per-predicate write stamps and (through the store)
the statistics at write time.  After any sequence of inserts, deletes,
batched deletes, re-inserts, deletes of absent rows, removal of a
predicate's last row and new predicates,

* the oracle's row views over the blocks (``scan_predicate``,
  ``lookup_subject``, ``lookup_object``),
  ``partition_sizes()`` and the order of ``dump_rows()`` equal a plain-Python
  model — the list of live rows in insertion order,
* a predicate's write stamp moved exactly when one of its rows was written,
  and it only ever goes up,
* ``statistics()`` equals ``collect_statistics(table)``, predicate order
  included, and
* query answers (content *and* order) and work counters equal those of a
  ``ReferenceStore`` fed the same operations.

A sharded store fed the same operations is held to the same statistics,
partition sizes, answers (content and order) and work counters: it keeps
its rows in the same kind of table, and its placement is aggressive enough
that predicates of this small domain are promoted to subject-sharding
mid-sequence.

A hypothesis state machine draws the sequences, once from empty stores and
once over a bulk-loaded base; the shrunk counterexamples it (or the reasoning
behind the design) produced are replayed by name below, on both starts, so
they keep running whatever the random draw does.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Set

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from relational_oracle import (
    ReferenceStore,
    collect_statistics,
    lookup_object,
    lookup_subject,
    scan,
    scan_predicate,
)
from repro.rdf import IRI, Triple
from repro.relstore import RelationalStore, ShardedRelationalStore, ShardingConfig
from repro.sparql import parse_query

ENTITIES = [IRI(f"http://example.org/e{i}") for i in range(5)]
PREDICATES = [IRI(f"http://example.org/p{i}") for i in range(4)]

_P = [p.value for p in PREDICATES]
_E = [e.value for e in ENTITIES]
#: Every access path and join shape the blocks serve: partition scan, both
#: point lookups, a hash join on a cached build side, a star with a
#: two-variable join, a table scan, DISTINCT and LIMIT over a join.
QUERIES = [
    parse_query(text)
    for text in (
        f"SELECT ?s ?o WHERE {{ ?s <{_P[0]}> ?o . }}",
        f"SELECT ?o WHERE {{ <{_E[1]}> <{_P[0]}> ?o . }}",
        f"SELECT ?s WHERE {{ ?s <{_P[1]}> <{_E[2]}> . }}",
        f"SELECT ?s ?o ?x WHERE {{ ?s <{_P[0]}> ?o . ?o <{_P[1]}> ?x . }}",
        f"SELECT ?s ?o WHERE {{ ?s <{_P[0]}> ?o . ?s <{_P[2]}> ?o . }}",
        f"SELECT ?s ?x WHERE {{ ?s <{_P[2]}> ?o . ?s <{_P[3]}> ?x . }}",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }",
        f"SELECT DISTINCT ?o WHERE {{ ?s <{_P[0]}> ?o . ?o <{_P[1]}> ?x . }} LIMIT 3",
    )
]

triples = st.builds(
    Triple, st.sampled_from(ENTITIES), st.sampled_from(PREDICATES), st.sampled_from(ENTITIES)
)
#: One write: ("insert", [triples]) / ("delete", triple) / ("delete_all",
#: [triples]) — a batched delete, which may repeat a triple or name absent ones.
writes = st.one_of(
    st.tuples(st.just("insert"), st.lists(triples, min_size=1, max_size=4)),
    st.tuples(st.just("delete"), triples),
    st.tuples(st.just("delete_all"), st.lists(triples, min_size=1, max_size=5)),
)


#: The usual aggressive skew threshold with the row floor lowered to the scale
#: of this domain (at most 25 rows per predicate), so that promotions to
#: subject-sharding happen between reads.
AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=2)


class Pair:
    """A columnar store, a sharded one, their ``ReferenceStore`` oracle, and
    the storage model: the live rows in insertion order.  All three start
    with ``base`` bulk-loaded."""

    def __init__(self, base=()):
        self.columnar = RelationalStore(engine="columnar")
        self.sharded = ShardedRelationalStore(shards=3, config=AGGRESSIVE)
        self.oracle = ReferenceStore()
        for store in (self.columnar, self.sharded, self.oracle):
            store.load(base)
        self.model: List[Triple] = list(base)
        # predicates written since the last check
        self.written: Set[IRI] = {triple.predicate for triple in base}
        self.stamps: Dict[IRI, int] = {}

    def apply(self, kind: str, arg) -> None:
        removed = []
        for store in (self.columnar, self.sharded, self.oracle):
            if kind == "insert":
                store.insert(arg)
            elif kind == "delete":
                store.delete(arg)
            else:
                removed.append(store.delete_all(arg))
        changed = 0
        for triple in [arg] if kind == "delete" else arg:
            present = triple in self.model
            if kind == "insert" and not present:
                self.model.append(triple)
            elif kind != "insert" and present:
                self.model.remove(triple)
            else:
                continue
            changed += 1
            self.written.add(triple.predicate)
        if kind == "delete_all":
            assert removed == [changed] * 3

    def check_storage(self) -> None:
        store, table = self.columnar, self.columnar.table
        encode = table.dictionary.lookup
        rows = [(encode(t.subject), encode(t.predicate), encode(t.object)) for t in self.model]
        blocks = dict(table._partition_columns)
        for predicate in PREDICATES:
            predicate_id = encode(predicate)
            stamp = table.write_stamp(predicate_id) if predicate_id is not None else 0
            moved = stamp != self.stamps.get(predicate, 0)
            assert moved == (predicate in self.written), predicate
            assert stamp >= self.stamps.get(predicate, 0)
            self.stamps[predicate] = stamp
            if predicate_id is None:
                continue
            partition = [row for row in rows if row[1] == predicate_id]
            assert list(scan_predicate(table, predicate_id)) == partition
            for entity in ENTITIES:
                key = encode(entity)
                if key is None:
                    continue
                assert list(lookup_subject(table, predicate_id, key)) == [
                    row for row in partition if row[0] == key
                ]
                assert list(lookup_object(table, predicate_id, key)) == [
                    row for row in partition if row[2] == key
                ]
        self.written.clear()
        sizes = Counter(t.predicate for t in self.model)
        assert store.partition_sizes() == dict(sorted(sizes.items(), key=lambda kv: kv[0].value))
        assert list(store.partition_sizes()) == sorted(sizes, key=lambda p: p.value)
        by_predicate = sorted(rows, key=lambda row: row[1])  # stable: insertion order within
        assert table.dump_rows() == [value for row in by_predicate for value in row]
        assert list(scan(table)) == by_predicate
        # Readers replaced no block.
        assert table._partition_columns.keys() == blocks.keys()
        assert all(table._partition_columns[pid] is block for pid, block in blocks.items())

    def check(self) -> None:
        self.check_storage()
        store, table = self.columnar, self.columnar.table
        rebuilt = collect_statistics(table)
        assert store.statistics() == rebuilt
        assert list(store.statistics().per_predicate) == list(rebuilt.per_predicate)
        sharded = self.sharded
        assert sharded.statistics() == rebuilt
        assert list(sharded.statistics().per_predicate) == list(rebuilt.per_predicate)
        assert sharded.partition_sizes() == store.partition_sizes()
        for query in QUERIES:
            mine, theirs = store.execute(query), self.oracle.execute(query)
            assert mine.bindings == theirs.bindings
            assert mine.counters.as_dict() == theirs.counters.as_dict()
            scattered = sharded.execute(query)
            assert scattered.bindings == theirs.bindings
            assert scattered.counters.as_dict() == theirs.counters.as_dict()


class MaintainedEqualsRebuilt(RuleBasedStateMachine):
    base = ()  # what the stores hold before the first write

    def __init__(self):
        super().__init__()
        self.pair = Pair(self.base)

    # Several writes per step: statistics and blocks are only consulted by the
    # invariant, so a step is what accumulates between two reads.
    @rule(batch=st.lists(writes, min_size=1, max_size=4))
    def write(self, batch):
        for kind, arg in batch:
            self.pair.apply(kind, arg)

    @invariant()
    def maintained_equals_rebuilt(self):
        self.pair.check()


def _t(s: int, p: int, o: int) -> Triple:
    return Triple(ENTITIES[s], PREDICATES[p], ENTITIES[o])


#: A bulk load the writes then land on: two of the four predicates hold a row
#: per subject (interleaved, as a load meets them), the other two start
#: empty, and the sharded store promotes the loaded ones at load time.
LOADED_BASE = tuple(_t(s, p, (s + 1 + p) % 5) for s in range(5) for p in range(2))


class MaintainedOverALoadedBase(MaintainedEqualsRebuilt):
    base = LOADED_BASE


_SETTINGS = settings(max_examples=40, stateful_step_count=12, deadline=None, derandomize=True)

TestMaintained = MaintainedEqualsRebuilt.TestCase
TestMaintained.settings = _SETTINGS
TestMaintainedOverALoadedBase = MaintainedOverALoadedBase.TestCase
TestMaintainedOverALoadedBase.settings = _SETTINGS


# --------------------------------------------------------------------------- #
# Checked-in counterexamples: each is a write sequence with reads in between
# --------------------------------------------------------------------------- #


#: ``None`` = read everything (the invariant).
COUNTEREXAMPLES = {
    # Delete then re-insert between two reads: the row moves to the end of
    # scan order; a block patched "in place" would keep it where it was.
    "reinsert_moves_the_row_to_the_end": [
        ("insert", [_t(0, 0, 1), _t(1, 0, 2), _t(2, 0, 3)]), None,
        ("delete", _t(0, 0, 1)), ("insert", [_t(0, 0, 1)]), None,
    ],
    # The last row of a predicate goes: it leaves statistics, partition sizes
    # and predicates(); its (empty) block stays valid and refills on re-insert.
    "last_row_of_a_predicate": [
        ("insert", [_t(0, 0, 1), _t(0, 1, 1)]), None,
        ("delete", _t(0, 1, 1)), None,
        ("insert", [_t(3, 1, 4)]), None,
    ],
    # Deleting a row that is absent (never stored / already deleted) is a
    # no-op for every piece of derived state.
    "delete_of_an_absent_row": [
        ("insert", [_t(0, 0, 1)]), None,
        ("delete", _t(4, 0, 4)), ("delete", _t(0, 0, 1)), ("delete", _t(0, 0, 1)), None,
    ],
    # A predicate outgrows its shard between two reads and is promoted to
    # subject-sharding: placement changes, its rows and statistics do not.
    "promotion_between_reads": [
        ("insert", [_t(0, 0, 1), _t(1, 0, 2), _t(0, 1, 1)]), None,
        ("insert", [_t(2, 0, 3), _t(3, 0, 4), _t(4, 0, 0), _t(1, 0, 3)]), None,
        ("delete", _t(2, 0, 3)), None,
    ],
    # One batched delete over two predicates: several rows of one block, a
    # repeated triple and an absent one.  Each touched block is replaced
    # once, the survivors keep their order, and the count is of rows removed.
    "batched_delete_across_blocks": [
        ("insert", [_t(0, 0, 1), _t(1, 0, 2), _t(2, 0, 3), _t(3, 0, 4), _t(0, 1, 1)]), None,
        ("delete_all", [_t(1, 0, 2), _t(3, 0, 4), _t(1, 0, 2), _t(4, 1, 4), _t(0, 1, 1)]), None,
        ("delete_all", [_t(0, 0, 1), _t(2, 0, 3)]), ("insert", [_t(1, 0, 2)]), None,
    ],
    # Equal (subject, object) pairs under two predicates: the delete must find
    # the position in the right predicate's block only.
    "same_pair_in_two_predicates": [
        ("insert", [_t(0, 0, 1), _t(0, 1, 1), _t(2, 0, 1)]), None,
        ("delete", _t(0, 1, 1)), None,
    ],
}


@pytest.mark.parametrize("base", [(), LOADED_BASE], ids=["empty", "loaded"])
@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
def test_checked_in_counterexample(name, base):
    """Each sequence on an empty store, and over :data:`LOADED_BASE`, where
    its writes re-insert, delete and extend rows a bulk load wrote."""
    pair = Pair(base)
    for step in COUNTEREXAMPLES[name]:
        if step is None:
            pair.check()
        else:
            pair.apply(*step)
    pair.check()


def test_sharded_statistics_recompute_only_the_written_predicates():
    """The sharded store's statistics follow writes like the unsharded
    store's: an entry is kept — the very object — until its predicate is
    written or promoted, wherever its rows live."""
    from repro.relstore.sharded import SUBJECT_SHARDED

    store = ShardedRelationalStore(shards=3, config=AGGRESSIVE)
    store.insert([_t(0, 0, 1), _t(1, 0, 2), _t(0, 1, 1), _t(0, 2, 2)])
    before = store.statistics()
    assert store.statistics() is before  # no mutation: one comparison

    store.insert([_t(2, 1, 3)])
    after = store.statistics()
    assert after.per_predicate[PREDICATES[0]] is before.per_predicate[PREDICATES[0]]
    assert after.per_predicate[PREDICATES[2]] is before.per_predicate[PREDICATES[2]]
    assert after.per_predicate[PREDICATES[1]].cardinality == 2

    store.insert([_t(2, 0, 3), _t(3, 0, 4), _t(4, 0, 0), _t(1, 0, 3)])
    assert store.placement(PREDICATES[0]) == SUBJECT_SHARDED
    promoted = store.statistics()
    assert promoted.per_predicate[PREDICATES[0]].cardinality == 6
    store.delete(_t(0, 2, 2))
    assert store.statistics().per_predicate[PREDICATES[0]] is promoted.per_predicate[PREDICATES[0]]
    assert PREDICATES[2] not in store.statistics().per_predicate
