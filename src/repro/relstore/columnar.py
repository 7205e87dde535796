"""The relational store's storage and its production engine: id columns
end to end, one execute loop.

Every relational store — :class:`~repro.relstore.store.RelationalStore` and
its sharded subclass :class:`~repro.relstore.sharded.ShardedRelationalStore`
— keeps its rows in one :class:`ColumnarTripleTable` and answers queries
through :func:`execute_compiled`.  The engine stores and pipelines **term-id
columns**, ``int64`` numpy vectors:

* :class:`ColumnarTripleTable` stores each predicate's rows as one
  :class:`ColumnBlock` — subject and object id columns in insertion order —
  and nothing else holds a triple.  Writes maintain the blocks when they
  happen: an insert batch extends each touched block once, a delete removes
  the row's one position.
* Pattern access is mask selection over those blocks: constants arrive
  pre-resolved on the :class:`~repro.relstore.executor.CompiledStep` (bound
  once per read-set stamp through the store's bound-plan memo), so a
  partition scan with no residual checks is a zero-copy handover of the
  stored columns.
* Hash joins are a sort/searchsorted merge on the join column producing
  gather index vectors, so the pipeline state is a list of columns, never
  row tuples.
* DISTINCT/LIMIT/FILTER run on id vectors and the projected id columns leave
  as the result (:class:`~repro.execution.ResultColumns`); a term is decoded
  only when a caller asks for one, in batch via
  :meth:`QueryTermSpace.decode_map`.  Rule REP007 lints this module for stray
  per-row ``decode``/``lookup`` calls inside loops.

**Work-accounting contract.**  The logical
:class:`~repro.cost.counters.WorkCounters` are bit-identical to the
decode-per-row oracle (``tests/relational_oracle.py``): ``rows_scanned`` is
charged per row a block covers (the block length — matching or not, exactly
what a row loop over the access path visits), ``rows_joined`` per produced
join tuple (the gather length), ``index_lookups`` once per index step, and
``results_produced`` after LIMIT.  Output order is also identical: selections
preserve block order (stable masks), join gathers emit probe rows in pipeline
order with build rows in block order (the merge uses a stable argsort), and
DISTINCT keeps first occurrences.  The differential suite
(``tests/test_differential_engine.py``) asserts byte-equal bindings and
counter equality against the oracle.
"""

from __future__ import annotations

from array import array
from itertools import count as counter, repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError, StorageError
from repro.execution import ExecutionResult, ResultColumns, ResultTable
from repro.rdf.dictionary import EncodedTriple as Row, TermDictionary
from repro.rdf.terms import IRI, XSD_DOUBLE, XSD_INTEGER, Literal, TermLike, Triple, Variable
from repro.resilience.deadline import PROBE_STRIDE, current_deadline
from repro.sparql.ast import Binding, SelectQuery

from repro.relstore.executor import (
    CompiledPattern,
    CompiledPlan,
    CompiledStep,
    QueryTermSpace,
    check_work_budget,
)
from repro.relstore.stats import PredicateStatistics

__all__ = [
    "ColumnarTripleTable",
    "execute_compiled",
    "ColumnBlock",
]


# ---------------------------------------------------------------------- #
# Batch kernels over int64 id vectors
# ---------------------------------------------------------------------- #
def _empty():
    return np.empty(0, dtype=np.int64)


def _view(buffer: array):
    """An ``int64`` column over an ``array('q')`` write buffer."""
    if len(buffer) == 0:
        return _empty()
    return np.frombuffer(buffer, dtype=np.int64)


def _ids(values):
    return np.asarray(values, dtype=np.int64)


def concat(parts, between=None):
    """One column from its parts; ``between`` (a deadline probe) is called
    before each part is copied."""
    if len(parts) == 1:
        return parts[0]
    if between is None:
        return np.concatenate(parts)
    # Part by part, so the page faults of a large output are taken
    # between probes instead of inside one uninterruptible copy.
    out = np.empty(sum(map(len, parts)), dtype=np.int64)
    offset = 0
    for part in parts:
        between()
        out[offset : offset + len(part)] = part
        offset += len(part)
    return out


def equal_selection(const_pairs, dup_pairs):
    """Indices passing every ``col == id`` / ``col == col`` check.

    ``None`` means "every row" (no checks at all) so the caller can hand
    stored columns over without copying.
    """
    mask = None
    for col, required in const_pairs:
        check = col == required
        mask = check if mask is None else (mask & check)
    for left_col, right_col in dup_pairs:
        check = left_col == right_col
        mask = check if mask is None else (mask & check)
    if mask is None:
        return None
    return np.nonzero(mask)[0]


# -- the two-phase join ------------------------------------------------- #
# A join's output size is known — and can be charged, budget-checked and
# deadline-probed — before any output-sized array exists: ``join_matches`` /
# ``cartesian_matches`` pair probe rows with build rows (every array sized by
# an input), ``gather`` expands a run of those pairs into the two gather
# index vectors (sized by the output).  Output order is that of the oracle's
# hash join: probe rows in pipeline order, and within one key the build rows
# in block order — a *stable* argsort of the build keys groups equal keys
# while preserving block order inside each group.
def group_index(build_col):
    """``(order, unique_keys, group_starts, group_counts)`` of a join's build
    side — the O(n log n) part of the merge, which
    :meth:`ColumnBlock.group_index` memoizes for stored columns."""
    build = np.asarray(build_col, dtype=np.int64)
    order = np.argsort(build, kind="stable")
    sorted_keys = build[order]
    unique_keys, group_starts = np.unique(sorted_keys, return_index=True)
    group_counts = np.diff(np.append(group_starts, len(sorted_keys)))
    return order, unique_keys, group_starts, group_counts


def composite_keys(probe_cols, build_cols):
    """Several shared variables: dense-rank the composite keys.

    Both sides' key rows are ranked together by one ``np.unique(axis=0)``
    pass, so equal tuples — and only equal tuples — share a dense id, and the
    single-key merge produces the same gather as a join on the key tuples.
    """
    probe = np.stack([np.asarray(col, dtype=np.int64) for col in probe_cols], axis=1)
    build = np.stack([np.asarray(col, dtype=np.int64) for col in build_cols], axis=1)
    _, inverse = np.unique(np.concatenate([probe, build], axis=0), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy<2.3 returns an (n, 1) inverse for axis=0
    return inverse[: len(probe)], inverse[len(probe) :]


def join_matches(probe_col, build_col, index=None):
    """``((probe positions, their group starts, their group sizes, the build
    order), output rows)``; ``index`` is the build side's
    :func:`group_index` when one is already at hand."""
    probe = np.asarray(probe_col, dtype=np.int64)
    if index is None:
        index = group_index(build_col)
    order, unique_keys, group_starts, group_counts = index
    slot = np.searchsorted(unique_keys, probe)
    clamped = np.minimum(slot, len(unique_keys) - 1)
    matched = (slot < len(unique_keys)) & (unique_keys[clamped] == probe)
    positions = np.nonzero(matched)[0]
    groups = slot[positions]
    counts = group_counts[groups]
    return (positions, group_starts[groups], counts, order), int(counts.sum())


def cartesian_matches(left_count: int, right_count: int):
    matches = (
        np.arange(left_count, dtype=np.int64),
        np.zeros(left_count, dtype=np.int64),
        np.full(left_count, right_count, dtype=np.int64),
        np.arange(right_count, dtype=np.int64),
    )
    return matches, left_count * right_count


def gather(matches, start: int = 0, stop: Optional[int] = None):
    """The ``(left, right)`` gather index vectors of matched probe rows
    ``start:stop``."""
    positions, starts, counts, order = matches
    if start or stop is not None:
        positions, starts, counts = positions[start:stop], starts[start:stop], counts[start:stop]
    out_ends = np.cumsum(counts)
    total = int(out_ends[-1]) if len(out_ends) else 0
    left = np.repeat(positions, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_ends - counts, counts)
    right = order[np.repeat(starts, counts) + within]
    return left, right


def chunk_bounds(matches, rows: int) -> List[int]:
    """Cut points over the matched probe rows, about ``rows`` output rows (at
    most ``rows`` plus one group) between neighbours."""
    out_ends = np.cumsum(matches[2])
    cuts = np.searchsorted(out_ends, np.arange(rows, int(out_ends[-1]), rows)) + 1
    return np.unique(np.concatenate([[0], cuts, [len(out_ends)]])).tolist()


def distinct_selection(key_cols, count: int):
    """First-occurrence indices of each distinct key, ascending.

    With no key columns every row carries the same (empty) key — only the
    first survives, like the oracle's all-``None`` DISTINCT key.
    """
    if count == 0:
        return _empty()
    if not key_cols:
        return np.zeros(1, dtype=np.int64)
    if len(key_cols) == 1:
        _, first = np.unique(key_cols[0], return_index=True)
    else:
        _, first = np.unique(np.stack(key_cols, axis=1), axis=0, return_index=True)
    return np.sort(first)


# ---------------------------------------------------------------------- #
# Columnar storage: one id-column block per predicate
# ---------------------------------------------------------------------- #
#: Serials of :class:`ColumnBlock`: process-wide, so no two blocks share one.
_block_serials = counter(1)


class ColumnBlock(NamedTuple):
    """One predicate's ``(subjects, objects)`` id columns, insertion order.

    ``group_indexes`` memoizes the join group index of each column — for the
    graph store's matcher, the out and in adjacency.  A write replaces the
    block and never changes one in place (its arrays are read-only), so the
    memo lives and dies with the arrays it describes, and a holder of an old
    block — a graph replica lagging the master copy — keeps exact contents.
    ``serial`` names those contents: every block made by :meth:`of` gets one
    that no other block in the process has, so two equal serials mean the
    same rows in the same order.
    """

    subjects: object
    objects: object
    count: int
    group_indexes: List[object]  # [of subjects, of objects], None until needed
    serial: int

    @classmethod
    def of(cls, subjects, objects, count: int) -> "ColumnBlock":
        subjects.flags.writeable = False
        objects.flags.writeable = False
        return cls(subjects, objects, count, [None, None], next(_block_serials))

    def group_index(self, column):
        """The memoized group index of one of this block's own columns, or
        ``None`` for any other array: a temporary dies with its query, so an
        index kept for it could never be hit."""
        slot = 0 if column is self.subjects else 1 if column is self.objects else None
        if slot is None:
            return None
        index = self.group_indexes[slot]
        if index is None:
            # Concurrent readers may both build it; the results are equal
            # and the slot assignment is atomic, so last write wins.
            index = self.group_indexes[slot] = group_index(column)
        return index


class ColumnarTripleTable:
    """The relational store's triple table: one :class:`ColumnBlock` per
    predicate, and nothing else that holds a triple.

    Beside the blocks the table keeps a set of encoded rows (duplicate
    detection).  A predicate's *write stamp* is its block's serial: a
    statistics entry records the stamp when it is computed and is reused
    while the stamp stands.

    Blocks follow writes when the write happens.  Every insert path groups
    its new rows by predicate and extends each touched block with one
    concatenation; a delete removes the row's one position.  A write replaces
    the touched predicates' blocks and leaves every other block — and its
    group-index memo — as it was.  Readers change nothing but the two lazy
    memos: a block's group indexes and the full-table columns of
    unbound-predicate scans.

    **Scan order.**  A predicate's rows are in insertion order (a deleted and
    re-inserted row moves to the end).  A table scan — and :meth:`dump_rows`
    — visits the predicates in ascending predicate id, each in insertion
    order, so re-inserting a dump rebuilds the same blocks.
    """

    def __init__(self, dictionary: Optional[TermDictionary] = None):
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._row_set: Set[Row] = set()
        self._partition_columns: Dict[int, ColumnBlock] = {}
        self._full_columns: Optional[Tuple[object, object, object, int]] = None
        self._newest_serial = 0

    # -- writes --------------------------------------------------------- #
    def _replace_block(self, predicate_id: int, subjects, objects) -> None:
        block = self._partition_columns[predicate_id] = ColumnBlock.of(subjects, objects, len(subjects))
        self._newest_serial = block.serial
        self._full_columns = None

    def insert(self, triple: Triple) -> bool:
        """Insert a triple; return ``True`` when it was new."""
        return self.insert_all((triple,)) == 1

    def insert_all(self, triples: Iterable[Triple]) -> int:
        """Insert triples; returns how many were new."""
        return sum(self.insert_rows(self.dictionary.encode_triples(triples)).values())

    def insert_rows(self, rows: Iterable[Row]) -> Dict[int, int]:
        """Insert encoded rows; returns ``{predicate id: rows added}``.

        New rows are grouped by predicate, and each touched block is extended
        once, however many rows it gains.
        """
        row_set = self._row_set
        tails: Dict[int, Tuple[array, array]] = {}
        for row in rows:
            if row in row_set:
                continue
            row_set.add(row)
            tail = tails.get(row[1])
            if tail is None:
                tail = tails[row[1]] = (array("q"), array("q"))
            tail[0].append(row[0])
            tail[1].append(row[2])
        for predicate_id, (subjects, objects) in tails.items():
            block = self.partition_columns(predicate_id)
            self._replace_block(
                predicate_id,
                np.concatenate([block.subjects, _view(subjects)]),
                np.concatenate([block.objects, _view(objects)]),
            )
        return {predicate_id: len(subjects) for predicate_id, (subjects, _) in tails.items()}

    def delete(self, triple: Triple) -> bool:
        """Delete a triple; return ``True`` when it was present."""
        return self.delete_all((triple,)) == 1

    def delete_all(self, triples: Iterable[Triple]) -> int:
        """Delete triples; returns how many were present."""
        lookup_many = self.dictionary.lookup_many
        rows = (tuple(lookup_many((t.subject, t.predicate, t.object))) for t in triples)
        return sum(self.delete_rows(rows).values())

    def delete_rows(self, rows: Iterable[Row]) -> Dict[int, int]:
        """Delete encoded rows; returns ``{predicate id: rows removed}``.

        Present rows are grouped by predicate, and each touched block is
        replaced once, by one mask, however many rows it loses; the
        survivors keep their order.
        """
        row_set = self._row_set
        doomed: Dict[int, Tuple[List[int], List[int]]] = {}
        for row in rows:
            if row not in row_set:
                continue
            row_set.remove(row)
            pairs = doomed.get(row[1])
            if pairs is None:
                pairs = doomed[row[1]] = ([], [])
            pairs[0].append(row[0])
            pairs[1].append(row[2])
        for predicate_id, (subjects, objects) in doomed.items():
            block = self._partition_columns[predicate_id]
            keep = np.ones(block.count, dtype=bool)
            for subject_id, object_id in zip(subjects, objects):
                # The row's one position: among its subject's rows, the one
                # with its object.
                candidates = np.flatnonzero(block.subjects == subject_id)
                keep[candidates[block.objects[candidates] == object_id]] = False
            self._replace_block(predicate_id, block.subjects[keep], block.objects[keep])
        return {predicate_id: len(subjects) for predicate_id, (subjects, _) in doomed.items()}

    # -- size and statistics -------------------------------------------- #
    def __len__(self) -> int:
        return len(self._row_set)

    def predicates(self) -> List[IRI]:
        """All predicates present, decoded, sorted by IRI value."""
        live = [pid for pid, block in self._partition_columns.items() if block.count]
        terms = self.dictionary.decode_many(live)
        return sorted((term for term in terms if isinstance(term, IRI)), key=lambda p: p.value)

    def predicate_cardinality(self, predicate: IRI) -> int:
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return 0
        return self.live_row_count(predicate_id)

    def live_row_count(self, predicate_id: int) -> int:
        block = self._partition_columns.get(predicate_id)
        return block.count if block is not None else 0

    def cardinalities(self) -> Dict[IRI, int]:
        return {p: self.predicate_cardinality(p) for p in self.predicates()}

    def write_stamp(self, predicate_id: Optional[int]) -> int:
        """A value that differs after any write to the predicate's rows and
        never repeats — its block's serial: what a statistics entry records
        when it is computed and compares before reuse.  ``0`` means never
        written."""
        block = self._partition_columns.get(predicate_id)  # type: ignore[arg-type]
        return block.serial if block is not None else 0

    def table_stamp(self) -> int:
        """A value that differs after any write to the table and never
        repeats: the newest block's serial (a write's block is newer than
        every block before it).  ``0`` means never written."""
        return self._newest_serial

    def predicate_statistics(self, predicate_id: int) -> PredicateStatistics:
        """One predicate's statistics, from one value count per column."""
        block = self.partition_columns(predicate_id)
        subject_rows = np.unique(block.subjects, return_counts=True)[1]
        object_rows = np.unique(block.objects, return_counts=True)[1]
        return PredicateStatistics(
            cardinality=block.count,
            distinct_subjects=len(subject_rows),
            distinct_objects=len(object_rows),
            max_subject_rows=int(subject_rows.max()) if len(subject_rows) else 0,
            max_object_rows=int(object_rows.max()) if len(object_rows) else 0,
        )

    # -- blocks ---------------------------------------------------------- #
    def partition_columns(self, predicate_id: int) -> ColumnBlock:
        """The block of one predicate (an empty one when it has no rows)."""
        block = self._partition_columns.get(predicate_id)
        if block is None:
            empty = _empty()
            block = ColumnBlock.of(empty, empty, 0)
        return block

    def full_columns(self) -> Tuple[object, object, object, int]:
        """The whole table as ``(s, p, o, count)`` columns in scan order:
        predicates ascending by id, each in insertion order."""
        if self._full_columns is None:
            blocks = sorted(self._partition_columns.items())
            predicates = array("q")
            for predicate_id, block in blocks:
                predicates.extend(repeat(predicate_id, block.count))
            empty = _empty()
            self._full_columns = (
                concat([empty] + [block.subjects for _, block in blocks]),
                _view(predicates),
                concat([empty] + [block.objects for _, block in blocks]),
                len(predicates),
            )
        return self._full_columns

    def contains(self, triple: Triple) -> bool:
        row = tuple(self.dictionary.lookup_many((triple.subject, triple.predicate, triple.object)))
        return row in self._row_set

    def partition(self, predicate: IRI) -> List[Triple]:
        """Decode every triple of one predicate, in insertion order."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return []
        block = self.partition_columns(predicate_id)
        decode_many = self.dictionary.decode_many
        term = self.dictionary.decode(predicate_id)
        return [
            Triple(subject, term, obj)  # type: ignore[arg-type]
            for subject, obj in zip(
                decode_many(block.subjects.tolist()), decode_many(block.objects.tolist())
            )
        ]

    # -- durable snapshots (repro.persist) ------------------------------ #
    def dump_rows(self) -> List[int]:
        """Every row flattened to ``[s0, p0, o0, s1, p1, o1, ...]`` (Python
        ints), in table-scan order; :meth:`load_rows` of it rebuilds the same
        blocks."""
        flat: List[int] = []
        for predicate_id, block in sorted(self._partition_columns.items()):
            count = block.count
            rows = [predicate_id] * (3 * count)
            rows[0::3] = block.subjects.tolist()
            rows[2::3] = block.objects.tolist()
            flat += rows
        return flat

    def load_rows(self, flat: List[int]) -> int:
        """Insert rows flattened like :meth:`dump_rows` (any row order: each
        predicate keeps the order its rows appear in); returns the number
        inserted.  The dictionary must already contain every id."""
        if len(flat) % 3:
            raise StorageError(f"flat row payload length {len(flat)} is not a multiple of 3")
        return sum(self.insert_rows(zip(flat[0::3], flat[1::3], flat[2::3])).values())

    # -- the access paths ----------------------------------------------- #
    def step_block(self, step: CompiledStep, counters: WorkCounters):
        """One plan step's pattern block and the stored block behind it:
        ``((names, columns, count), source)``.

        Charges the step's access path like the oracle's row loop: scans
        cover the column blocks, a point lookup charges its one index
        lookup and masks the partition block down to the key.  ``source`` is
        the :class:`ColumnBlock` a partition scan read (the join reuses its
        memoized group index when the columns were handed over uncopied),
        ``None`` for every other path.
        """
        matcher = step.matcher
        if step.access_path == "table_scan":
            subjects, predicates, objects, count = self.full_columns()
            columns_at = {0: subjects, 1: predicates, 2: objects}
            return match_block(matcher, columns_at, {}, count, counters), None

        predicate_id = step.predicate_id
        if predicate_id is None:
            return _empty_block(matcher.var_names), None

        if step.access_path == "partition_scan":
            block = self.partition_columns(predicate_id)
            columns_at = {0: block.subjects, 2: block.objects}
            fixed = {1: predicate_id}
            return match_block(matcher, columns_at, fixed, block.count, counters), block

        if step.access_path == "index_subject":
            position, bound_id = 0, step.subject_id
        elif step.access_path == "index_object":
            position, bound_id = 2, step.object_id
        else:  # pragma: no cover - defensive
            raise QueryExecutionError(f"unknown access path {step.access_path!r}")
        counters.index_lookups += 1
        if bound_id is None:
            return _empty_block(matcher.var_names), None
        block = self.partition_columns(predicate_id)
        matched = match_index_block(
            matcher, block.subjects, block.objects, predicate_id, position, bound_id, counters
        )
        return matched, None


# ---------------------------------------------------------------------- #
# Columnar evaluation primitives
# ---------------------------------------------------------------------- #
def _empty_block(names: Tuple[str, ...]):
    return names, [_empty() for _ in names], 0


def match_block(
    matcher: CompiledPattern,
    columns_at: Dict[int, object],
    fixed: Dict[int, int],
    count: int,
    counters: WorkCounters,
):
    """Mask-select a column block against a compiled pattern.

    Charges ``rows_scanned`` for every row the block covers — matching or
    not — exactly like the oracle's per-row loop over the same access path.
    ``columns_at`` maps row positions to columns; ``fixed`` carries positions
    the block holds as a constant (a partition block's predicate), which
    const checks compare against directly.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    counters.rows_scanned += count
    names = matcher.var_names
    if not matcher.matchable or count == 0:
        return _empty_block(names)

    const_pairs = []
    for position, required in matcher.const_checks:
        column = columns_at.get(position)
        if column is None:
            if fixed[position] != required:
                return _empty_block(names)
        else:
            const_pairs.append((column, required))
    dup_pairs = [
        (columns_at[position], columns_at[first]) for position, first in matcher.dup_checks
    ]
    selection = equal_selection(const_pairs, dup_pairs)
    out_cols = []
    for position in matcher.var_positions:
        column = columns_at[position]
        out_cols.append(column if selection is None else column[selection])
    out_count = count if selection is None else len(selection)
    return names, out_cols, out_count


def match_index_block(
    matcher: CompiledPattern,
    subjects,
    objects,
    predicate_id: int,
    position: int,
    bound_id: int,
    counters: WorkCounters,
):
    """A point lookup served as a mask over the partition block.

    Emits the same rows — in the same order — and charges the same
    ``rows_scanned`` as the oracle's walk of the ``(predicate, key)``
    bucket: its rows in insertion order, so ``rows_scanned`` is the bucket
    length.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    columns_at = {0: subjects, 2: objects}
    base = equal_selection([(columns_at[position], bound_id)], [])
    matched = len(base)
    # The oracle charges every row the lookup yields, matching or not
    # (residual const checks come after the charge); `matched` is that
    # bucket's length.
    counters.rows_scanned += matched
    names = matcher.var_names
    if not matcher.matchable or not matched:
        return _empty_block(names)
    sub = {pos: column[base] for pos, column in columns_at.items()}
    const_pairs = []
    for pos, required in matcher.const_checks:
        if pos == position:
            continue  # the index key itself — every selected row passes
        column = sub.get(pos)
        if column is None:  # the predicate slot, fixed by the partition
            if predicate_id != required:
                return _empty_block(names)
        else:
            const_pairs.append((column, required))
    dup_pairs = [(sub[pos], sub[first]) for pos, first in matcher.dup_checks]
    selection = equal_selection(const_pairs, dup_pairs)
    out_cols = []
    for pos in matcher.var_positions:
        column = sub[pos]
        out_cols.append(column if selection is None else column[selection])
    return names, out_cols, matched if selection is None else len(selection)


#: Output rows one gather kernel may emit while a deadline is active.  A
#: chunk this size costs a few hundred microseconds — far inside the
#: 2x-budget bound of a 50 ms deadline — and the per-chunk overhead stays in
#: the noise.
GATHER_CHUNK_ROWS = 1 << 15


def join_block(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    names: Tuple[str, ...],
    block_cols: List[object],
    block_count: int,
    counters: WorkCounters,
    work_budget: Optional[float] = None,
    source: Optional[ColumnBlock] = None,
) -> Tuple[Tuple[str, ...], List[object], int]:
    """Hash-join a pattern block into the columnar pipeline.

    Mirrors the oracle's ``join_pattern_rows`` decision for decision — the
    empty guard, the pipeline-seed handover, shared-key probing versus the
    cartesian fallback — and charges
    ``rows_joined`` per produced tuple, so counters and output order are
    bit-identical.

    The output size is known once probe rows are paired with build rows, and
    nothing output-sized exists yet at that point: the join is charged, the
    work budget (the same step-level check the execute loop runs after this
    call) and the deadline are consulted, and only then is the gather emitted —
    in one kernel, or while a deadline is active in bounded chunks with a probe
    between them.  ``source`` is the stored block ``block_cols`` was handed
    over from, if any; its memoized group index spares the build-side sort.
    """
    new_names = tuple(name for name in names if name not in schema)
    if count == 0 or block_count == 0:
        merged = schema + new_names
        return merged, [_empty() for _ in merged], 0

    if not schema and count == 1:
        # The pipeline seed [()]: the pattern block becomes the pipeline.
        counters.rows_joined += block_count
        return tuple(names), list(block_cols), block_count

    shared = [name for name in names if name in schema]
    name_position = {name: i for i, name in enumerate(names)}
    if not shared:
        matches, total = cartesian_matches(count, block_count)
    elif len(shared) == 1:
        build_col = block_cols[name_position[shared[0]]]
        matches, total = join_matches(
            cols[schema.index(shared[0])],
            build_col,
            source.group_index(build_col) if source is not None else None,
        )
    else:
        matches, total = join_matches(
            *composite_keys(
                [cols[schema.index(name)] for name in shared],
                [block_cols[name_position[name]] for name in shared],
            )
        )
    counters.rows_joined += total
    check_work_budget(counters, work_budget)
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)

    new_cols = [block_cols[name_position[name]] for name in new_names]

    def gathered(left, right) -> List[object]:
        return [column[left] for column in cols] + [column[right] for column in new_cols]

    return schema + new_names, gather_columns(matches, total, gathered, counters), total


def gather_columns(matches, total: int, produce, counters: WorkCounters) -> List[object]:
    """``produce(left, right)`` — output columns from gather index vectors —
    over every matched row: in one kernel, or while a deadline is active and
    ``total`` exceeds :data:`GATHER_CHUNK_ROWS`, in chunks of about that many
    output rows with a probe before each, the parts concatenated between
    probes."""
    deadline = current_deadline()
    if deadline is None or total <= GATHER_CHUNK_ROWS:
        return produce(*gather(matches))
    bounds = chunk_bounds(matches, GATHER_CHUNK_ROWS)
    chunks = []
    for start, stop in zip(bounds, bounds[1:]):
        deadline.check(counters)
        chunks.append(produce(*gather(matches, start, stop)))
    return [concat(parts, lambda: deadline.check(counters)) for parts in zip(*chunks)]


def table_id_columns(table: ResultTable, space: QueryTermSpace) -> List[object]:
    """A migrated table's columns as ids of ``space``.  An engine's id
    columns over the same dictionary (the graph leg of a split plan) are
    handed over as they are; other columns are encoded term by term, and
    terms the dictionary has never seen get execution-local ids."""
    columns = table.columns
    own = columns.space
    if own is not None and own.dictionary is space.dictionary and not own.has_local_ids:
        return [_ids(column) for column in columns.columns]
    encode = space.encode
    return [
        np.fromiter(map(encode, columns.terms(index)), dtype=np.int64, count=columns.count)
        for index in range(len(columns.names))
    ]


def join_columnar_table(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    table: ResultTable,
    space: QueryTermSpace,
    counters: WorkCounters,
    as_view: bool = False,
    work_budget: Optional[float] = None,
) -> Tuple[Tuple[str, ...], List[object], int]:
    """Join a migrated intermediate-result table into the columnar pipeline.

    Charging mirrors the oracle's ``join_result_table``: the table's rows are
    charged (as view rows when ``as_view``) only when the pipeline is
    non-empty, then the join itself runs through :func:`join_block` (whose
    seed/cartesian branches reproduce the oracle's output order and
    ``rows_joined`` exactly) over :func:`table_id_columns`.
    """
    table_vars = tuple(table.variables)
    new_names = tuple(name for name in table_vars if name not in schema)
    if count == 0:
        merged = schema + new_names
        return merged, [_empty() for _ in merged], 0
    if as_view:
        counters.view_rows_scanned += len(table)
    else:
        counters.rows_scanned += len(table)
    block_cols = table_id_columns(table, space)
    return join_block(schema, cols, count, table_vars, block_cols, len(table), counters, work_budget)


# ---------------------------------------------------------------------- #
# FILTER on id columns
# ---------------------------------------------------------------------- #
#: Filter operand lowered to ID space: ('var', schema position, name),
#: ('const', id, term), or ('unbound', 0, None).
_FilterSide = Tuple[str, int, Optional[TermLike]]

#: Operators that hold between a term and itself.
_TRUE_ON_EQUAL = frozenset({"=", "<=", ">="})

#: Literal datatypes whose ``to_python`` conversion can misbehave — a double
#: may be NaN (fails even reflexive comparison) and a malformed integer
#: lexical raises ``ValueError`` — so equal ids settle nothing for them and
#: the filter must delegate to :meth:`Filter.evaluate` like the oracle.
_UNSAFE_EQUAL_DATATYPES = frozenset({XSD_DOUBLE, XSD_INTEGER})


def _compile_filter_side(
    term: TermLike, schema: Tuple[str, ...], space: QueryTermSpace
) -> _FilterSide:
    if isinstance(term, Variable):
        if term.name in schema:
            return ("var", schema.index(term.name), None)
        return ("unbound", 0, None)
    return ("const", space.encode(term), term)


def _filter_selection(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    filters,
    space: QueryTermSpace,
):
    """Surviving row indices under the query's filters, or ``None`` for all.

    Semantics are byte-for-byte those of the oracle's per-row
    :meth:`Filter.evaluate`.  Equal ids mean equal terms, which settles every
    operator without evaluating a comparison — except for the numeric
    datatypes of ``_UNSAFE_EQUAL_DATATYPES``, which take the fallback.
    *Different* ids settle nothing for value comparisons (distinct terms may
    be equal by value, e.g. across numeric datatypes), so those pairs fall
    back to decoding just the filter's operands and delegating to
    :meth:`Filter.evaluate`.  Every operand id is decoded **once, in batch,
    before the loop** via :meth:`QueryTermSpace.decode_map` (decoding is
    side-effect-free, so pre-decoding ids a per-row loop would skip cannot
    diverge), which is the REP007 discipline: no per-row decode calls inside
    the loop.
    """
    compiled = []
    for flt in filters:
        left = _compile_filter_side(flt.left, schema, space)
        right = _compile_filter_side(flt.right, schema, space)
        if left[0] == "unbound" or right[0] == "unbound":
            # An unbound operand fails the filter for every row.
            return _empty(), 0
        compiled.append((flt, left, right))

    operand_ids = set()
    positions = set()
    for _flt, (left_kind, left_value, _), (right_kind, right_value, _) in compiled:
        if left_kind == "const":
            operand_ids.add(left_value)
        else:
            positions.add(left_value)
        if right_kind == "const":
            operand_ids.add(right_value)
        else:
            positions.add(right_value)
    operand_cols = {position: cols[position].tolist() for position in positions}
    for column in operand_cols.values():
        operand_ids.update(column)
    id_to_term = space.decode_map(operand_ids)

    def verdict_for(flt, left_kind, left_id, right_kind, right_id) -> bool:
        if left_id == right_id:
            term = id_to_term[left_id]
            if not (isinstance(term, Literal) and term.datatype in _UNSAFE_EQUAL_DATATYPES):
                return flt.operator in _TRUE_ON_EQUAL
            # Numeric literals fall through to Filter.evaluate: a double
            # may be NaN (no comparison holds, even reflexively) and a
            # malformed integer lexical must raise like the reference.
        fallback: Binding = {}
        if left_kind == "var":
            fallback[flt.left.name] = id_to_term[left_id]  # type: ignore[union-attr]
        if right_kind == "var":
            fallback[flt.right.name] = id_to_term[right_id]  # type: ignore[union-attr]
        return bool(flt.evaluate(fallback))

    # Verdicts are a pure function of the operand-id pair, so each distinct
    # (filter, left, right) triple is evaluated once — at its first occurrence
    # in row order, which keeps malformed-lexical ValueErrors surfacing at
    # exactly the row the per-row loop would raise them.
    verdicts: Dict[Tuple[int, int, int], bool] = {}
    get_verdict = verdicts.get
    deadline = current_deadline()
    keep: List[int] = []
    append = keep.append
    for i in range(count):
        if deadline is not None and not i % PROBE_STRIDE:
            deadline.check()
        keep_row = True
        for index, (flt, (left_kind, left_value, _), (right_kind, right_value, _)) in enumerate(
            compiled
        ):
            left_id = operand_cols[left_value][i] if left_kind == "var" else left_value
            right_id = operand_cols[right_value][i] if right_kind == "var" else right_value
            key = (index, left_id, right_id)
            verdict = get_verdict(key)
            if verdict is None:
                verdict = verdict_for(flt, left_kind, left_id, right_kind, right_id)
                verdicts[key] = verdict
            if not verdict:
                keep_row = False
                break
        if keep_row:
            append(i)
    if len(keep) == count:
        return None, count
    return _ids(keep), len(keep)


def finish_columnar_pipeline(
    schema: Tuple[str, ...],
    cols: List[object],
    count: int,
    query: SelectQuery,
    counters: WorkCounters,
    space: QueryTermSpace,
) -> ExecutionResult:
    """The columnar epilogue: filters, projection to the bound columns,
    DISTINCT on id vectors, LIMIT by slicing.  The surviving projected id
    columns *are* the result (:class:`~repro.execution.ResultColumns`);
    nothing is decoded here.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    selection = None
    if query.filters and count:
        selection, count = _filter_selection(schema, cols, count, query.filters, space)

    names = query.projected_names()
    bound = [(name, schema.index(name)) for name in names if name in schema]
    projected = []
    for _name, position in bound:
        column = cols[position]
        projected.append(column if selection is None else column[selection])

    if query.distinct:
        distinct = distinct_selection(projected, count)
        projected = [column[distinct] for column in projected]
        count = len(distinct)
    if query.limit is not None and count > query.limit:
        projected = [column[: query.limit] for column in projected]
        count = query.limit

    counters.results_produced += count
    return ExecutionResult(
        bindings=None,
        variables=tuple(names),
        counters=counters,
        store="relational",
        columns=ResultColumns(
            tuple(name for name, _ in bound), projected, count, space, np.ndarray.tolist
        ),
    )


# ---------------------------------------------------------------------- #
# The execute loop
# ---------------------------------------------------------------------- #
def execute_compiled(
    query: SelectQuery,
    compiled: CompiledPlan,
    dictionary,
    step_block,
    work_budget: Optional[float] = None,
    extra_tables: Optional[Iterable[ResultTable]] = None,
    tables_are_views: bool = False,
) -> ExecutionResult:
    """Run a compiled plan: the one execute loop of the production engine.

    ``step_block(step, counters)`` is where a step's block comes from.  It
    returns ``((names, columns, count), source)`` and charges the access to
    ``counters``: :meth:`ColumnarTripleTable.step_block` reads the table; the
    sharded store wraps it to price the step per shard.

    ``extra_tables`` are temporary tables (migrated intermediate results)
    joined into the pipeline before the base-table patterns; when
    ``tables_are_views`` their rows are charged as ``view_rows_scanned``.
    Raises :class:`~repro.errors.WorkBudgetExceeded` once the accumulated
    work exceeds ``work_budget``.
    """
    counters = WorkCounters(queries_issued=1)
    space = QueryTermSpace(dictionary)
    schema: Tuple[str, ...] = ()
    cols: List[object] = []
    count = 1  # the pipeline seed: one zero-width row, exactly [()]
    for table in extra_tables or ():
        schema, cols, count = join_columnar_table(
            schema, cols, count, table, space, counters, tables_are_views, work_budget
        )
        check_work_budget(counters, work_budget)

    for step in compiled.steps:
        # Guard before scanning: once the pipeline is empty (e.g. a migrated
        # table had no rows), later steps must charge zero work, exactly like
        # the oracle.
        if count == 0:
            break
        (names, block_cols, block_count), source = step_block(step, counters)
        schema, cols, count = join_block(
            schema, cols, count, names, block_cols, block_count, counters, work_budget, source
        )
        check_work_budget(counters, work_budget)

    return finish_columnar_pipeline(schema, cols, count, query, counters, space)
