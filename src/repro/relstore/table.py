"""The relational triple table and its secondary indexes.

The relational store keeps the *entire* knowledge graph in a single
dictionary-encoded triple table (the classic ``(subject, predicate, object)``
layout the paper describes as the most commonly used relational layout),
plus secondary indexes:

* predicate → row ids (the per-partition index used for partition extraction
  and predicate-bound scans),
* (predicate, subject) → row ids,
* (predicate, object) → row ids.

Rows are identified by dense integer row ids; deletions leave tombstones so
row ids stay stable (the store compacts on demand).  Tombstones are also
counted per predicate, so a partition's live-row count — and the *write
stamp* that a statistics entry compares to tell whether the partition was
written since it was computed — is O(1) and costs the insert path nothing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import StorageError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Triple
from repro.relstore.stats import PredicateStatistics, predicate_statistics

__all__ = ["TripleTable", "Row"]

#: One stored row: (subject_id, predicate_id, object_id)
Row = Tuple[int, int, int]


class TripleTable:
    """A dictionary-encoded triple table with secondary indexes."""

    def __init__(self, dictionary: TermDictionary | None = None):
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._rows: List[Optional[Row]] = []
        self._row_set: Set[Row] = set()
        self._by_predicate: Dict[int, List[int]] = defaultdict(list)
        self._by_predicate_subject: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._by_predicate_object: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._tombstones = 0
        #: predicate id -> tombstoned entries of its ``_by_predicate`` list.
        self._dead_rows: Dict[int, int] = defaultdict(int)
        #: Bumped when index lists are rebuilt or dropped wholesale
        #: (``compact``/``extract_predicate``), which resets the two counts
        #: above; part of every write stamp so stamps never repeat.
        self._index_epoch = 0

    # ------------------------------------------------------------------ #
    # Loading and mutation
    # ------------------------------------------------------------------ #
    def insert(self, triple: Triple) -> bool:
        """Insert a triple; return ``True`` when it was new."""
        return self.insert_row(self.dictionary.encode_triple(triple))

    def insert_row(self, row: Row) -> bool:
        """Insert an already-encoded row (sharded routing encodes first)."""
        if row in self._row_set:
            return False
        row_id = len(self._rows)
        self._rows.append(row)
        self._row_set.add(row)
        subject_id, predicate_id, object_id = row
        self._by_predicate[predicate_id].append(row_id)
        self._by_predicate_subject[(predicate_id, subject_id)].append(row_id)
        self._by_predicate_object[(predicate_id, object_id)].append(row_id)
        return True

    def insert_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for triple in triples if self.insert(triple))

    def delete(self, triple: Triple) -> bool:
        """Delete a triple; return ``True`` when it was present."""
        subject_id = self.dictionary.lookup(triple.subject)
        predicate_id = self.dictionary.lookup(triple.predicate)
        object_id = self.dictionary.lookup(triple.object)
        if subject_id is None or predicate_id is None or object_id is None:
            return False
        return self.delete_row((subject_id, predicate_id, object_id))

    def delete_row(self, row: Row) -> bool:
        """Delete an already-encoded row; return ``True`` when it was present."""
        if row not in self._row_set:
            return False
        self._row_set.remove(row)
        subject_id, predicate_id, _ = row
        # Tombstone the slot; index entries are filtered lazily on read.  The
        # (predicate, subject) bucket holds a handful of rows where the
        # partition holds thousands.
        for row_id in self._by_predicate_subject[(predicate_id, subject_id)]:
            if self._rows[row_id] == row:
                self._rows[row_id] = None
                self._tombstones += 1
                self._dead_rows[predicate_id] += 1
                break
        return True

    # ------------------------------------------------------------------ #
    # Size and statistics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._row_set)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    def predicates(self) -> List[IRI]:
        """All predicates present, decoded, sorted by IRI value."""
        out: List[IRI] = []
        for predicate_id in self._by_predicate:
            if self.live_row_count(predicate_id):
                term = self.dictionary.decode(predicate_id)
                if isinstance(term, IRI):
                    out.append(term)
        return sorted(out, key=lambda p: p.value)

    def predicate_cardinality(self, predicate: IRI) -> int:
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return 0
        return self.live_row_count(predicate_id)

    def live_row_count(self, predicate_id: int) -> int:
        """Live rows of one predicate: index entries minus tombstones, O(1)."""
        return len(self._by_predicate.get(predicate_id, ())) - self._dead_rows.get(predicate_id, 0)

    def write_stamp(self, predicate_id: int) -> Tuple[int, int, int]:
        """A value that differs after any insert into or delete from the
        predicate's partition: what a statistics entry records when it is
        computed and compares before reuse.  (Column blocks do not use it:
        a delete patches them, and they are dropped together with the row-id
        list whose entries they count.)"""
        return (
            self._index_epoch,
            len(self._by_predicate.get(predicate_id, ())),
            self._dead_rows.get(predicate_id, 0),
        )

    def cardinalities(self) -> Dict[IRI, int]:
        return {p: self.predicate_cardinality(p) for p in self.predicates()}

    def predicate_statistics(self, predicate_id: int) -> PredicateStatistics:
        """One predicate's statistics, from a scan of its partition."""
        return predicate_statistics(self.scan_predicate(predicate_id))

    # ------------------------------------------------------------------ #
    # Access paths (the physical operators call these)
    # ------------------------------------------------------------------ #
    def scan(self) -> Iterator[Row]:
        """Full table scan over live rows."""
        for row in self._rows:
            if row is not None:
                yield row

    def scan_predicate(self, predicate_id: int) -> Iterator[Row]:
        """Index range scan over one predicate partition."""
        for row_id in self._by_predicate.get(predicate_id, ()):
            row = self._rows[row_id]
            if row is not None:
                yield row

    def lookup_subject(self, predicate_id: int, subject_id: int) -> Iterator[Row]:
        """Point lookup on the (predicate, subject) index."""
        for row_id in self._by_predicate_subject.get((predicate_id, subject_id), ()):
            row = self._rows[row_id]
            if row is not None:
                yield row

    def lookup_object(self, predicate_id: int, object_id: int) -> Iterator[Row]:
        """Point lookup on the (predicate, object) index."""
        for row_id in self._by_predicate_object.get((predicate_id, object_id), ()):
            row = self._rows[row_id]
            if row is not None:
                yield row

    def contains(self, triple: Triple) -> bool:
        subject_id = self.dictionary.lookup(triple.subject)
        predicate_id = self.dictionary.lookup(triple.predicate)
        object_id = self.dictionary.lookup(triple.object)
        if subject_id is None or predicate_id is None or object_id is None:
            return False
        return (subject_id, predicate_id, object_id) in self._row_set

    # ------------------------------------------------------------------ #
    # Partition extraction (data shipped to the graph store)
    # ------------------------------------------------------------------ #
    def partition(self, predicate: IRI) -> List[Triple]:
        """Decode every live triple of one predicate."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return []
        return [self.dictionary.decode_triple(row) for row in self.scan_predicate(predicate_id)]

    def extract_predicate(self, predicate_id: int) -> List[Row]:
        """Remove and return every live row of one predicate.

        Used by the sharded store when a mega-predicate is promoted from
        predicate-sharding to subject-sharding and its rows must move to
        other shards.  Removed slots become tombstones; the secondary-index
        entries are filtered lazily on read like every other deletion.
        """
        removed: List[Row] = []
        for row_id in self._by_predicate.get(predicate_id, ()):
            row = self._rows[row_id]
            if row is not None:
                self._rows[row_id] = None
                self._row_set.remove(row)
                self._tombstones += 1
                removed.append(row)
        self._by_predicate.pop(predicate_id, None)
        self._dead_rows.pop(predicate_id, None)
        self._index_epoch += 1
        return removed

    def compact(self) -> int:
        """Rebuild the table without tombstones; return rows reclaimed."""
        if self._tombstones == 0:
            return 0
        live = [row for row in self._rows if row is not None]
        reclaimed = self._tombstones
        self._rows = []
        self._row_set = set()
        self._by_predicate = defaultdict(list)
        self._by_predicate_subject = defaultdict(list)
        self._by_predicate_object = defaultdict(list)
        self._tombstones = 0
        self._dead_rows = defaultdict(int)
        self._index_epoch += 1
        for row in live:
            row_id = len(self._rows)
            self._rows.append(row)
            self._row_set.add(row)
            subject_id, predicate_id, object_id = row
            self._by_predicate[predicate_id].append(row_id)
            self._by_predicate_subject[(predicate_id, subject_id)].append(row_id)
            self._by_predicate_object[(predicate_id, object_id)].append(row_id)
        return reclaimed

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def dump_rows(self) -> List[int]:
        """Live rows flattened to ``[s0, p0, o0, s1, p1, o1, ...]``.

        Rows appear in row-id order with tombstones skipped — the compacted
        equivalent of the table.  Re-inserting them in this order rebuilds
        every secondary index with the same per-predicate entry order, so
        scans (and therefore query results and work counters) are identical
        to the snapshotted table's.
        """
        flat: List[int] = []
        extend = flat.extend
        for row in self._rows:
            if row is not None:
                extend(row)
        return flat

    def load_rows(self, flat: List[int]) -> int:
        """Insert rows previously produced by :meth:`dump_rows`; returns the
        number inserted.  The dictionary must already contain every id."""
        if len(flat) % 3:
            raise StorageError(f"flat row payload length {len(flat)} is not a multiple of 3")
        inserted = 0
        for offset in range(0, len(flat), 3):
            if self.insert_row((flat[offset], flat[offset + 1], flat[offset + 2])):
                inserted += 1
        return inserted

    def require_term_id(self, term) -> int:
        """Encode a concrete term, failing loudly if it was never stored."""
        term_id = self.dictionary.lookup(term)
        if term_id is None:
            raise StorageError(f"term {term!r} does not occur in the relational store")
        return term_id
