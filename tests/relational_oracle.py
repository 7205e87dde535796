"""The decode-per-row relational oracle: the production engine's reference.

:class:`ReferenceStore` is a :class:`~repro.relstore.store.RelationalStore`
whose queries never touch the columnar engine.  It decodes every column of
every scanned row into term objects and joins dictionaries of those terms —
the plainest possible reading of the plan, sharing no join kernel, no id
arithmetic and no cached plan state with :mod:`repro.relstore.columnar`: it
plans again on every execution and re-resolves every constant.  Storage is
shared: it reads the store's one
:class:`~repro.relstore.columnar.ColumnarTripleTable` through the row views
below (``(s, p, o)`` tuples of Python ints over the ``partition_columns``
blocks); the SQLite oracle (``tests/sql_oracle.py``) is the
storage-independent check.  It serves two callers:

* the **differential suites** — ``tests/test_differential_engine.py`` pits
  the columnar engine (unsharded and sharded) against it and asserts
  byte-identical result bindings and bit-identical logical
  :class:`~repro.cost.counters.WorkCounters` across every template family;
* the **kernel benchmark** — ``benchmarks/bench_hotpath.py`` times the
  columnar engine against it and records the ratio in ``BENCH_hotpath.json``.

The row pipeline (``bind_pattern_row``, ``join_pattern_rows``,
``finish_pipeline``, ...) defines the filter/projection/DISTINCT/LIMIT
semantics and the charging points the production engine is held to:
``rows_scanned`` per row an access path yields, ``rows_joined`` per tuple a
join produces, ``index_lookups`` per index step, ``results_produced`` after
LIMIT.  :func:`collect_statistics` is the from-scratch statistics the
store's maintained ones must equal.  ``tests/graph_oracle.py`` plays the
same part for the graph store.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult, ResultTable
from repro.rdf.dictionary import EncodedTriple as Row, TermDictionary
from repro.rdf.terms import IRI, TermLike, Variable
from repro.relstore import RelationalStore
from repro.relstore.columnar import ColumnarTripleTable
from repro.relstore.executor import check_work_budget
from repro.relstore.planner import PatternAccess
from repro.relstore.stats import PredicateStatistics, TableStatistics
from repro.relstore.views import MaterializedView
from repro.sparql.algebra import merge_bindings
from repro.sparql.ast import Binding, Filter, SelectQuery, TriplePattern

__all__ = [
    "ReferenceStore",
    "scan",
    "scan_predicate",
    "lookup_subject",
    "lookup_object",
    "predicate_statistics",
    "collect_statistics",
    "bind_pattern_row",
    "join_pattern_rows",
    "join_result_table",
    "join_extra_tables",
    "finish_pipeline",
    "apply_filters",
    "project_bindings",
    "distinct_bindings",
]


# ---------------------------------------------------------------------- #
# Row views over the table's blocks
# ---------------------------------------------------------------------- #
def _block_rows(predicate_id: int, subjects, objects) -> Iterator[Row]:
    return zip(subjects.tolist(), repeat(predicate_id), objects.tolist())


def scan_predicate(table: ColumnarTripleTable, predicate_id: int) -> Iterator[Row]:
    """One predicate's rows in insertion order."""
    block = table.partition_columns(predicate_id)
    return _block_rows(predicate_id, block.subjects, block.objects)


def scan(table: ColumnarTripleTable) -> Iterator[Row]:
    """Every row, in table-scan order: predicates by ascending id, each in
    insertion order."""
    lookup = table.dictionary.lookup
    for predicate_id in sorted(lookup(predicate) for predicate in table.predicates()):
        yield from scan_predicate(table, predicate_id)


def lookup_subject(table: ColumnarTripleTable, predicate_id: int, subject_id: int) -> Iterator[Row]:
    """The rows of one ``(predicate, subject)`` key, in insertion order."""
    return _lookup(table, predicate_id, 0, subject_id)


def lookup_object(table: ColumnarTripleTable, predicate_id: int, object_id: int) -> Iterator[Row]:
    """The rows of one ``(predicate, object)`` key, in insertion order."""
    return _lookup(table, predicate_id, 1, object_id)


def _lookup(table: ColumnarTripleTable, predicate_id: int, column: int, key: int) -> Iterator[Row]:
    block = table.partition_columns(predicate_id)
    keep = block[column] == key
    return _block_rows(predicate_id, block.subjects[keep], block.objects[keep])


# ---------------------------------------------------------------------- #
# Statistics from scratch
# ---------------------------------------------------------------------- #
def predicate_statistics(rows: Iterable[Row]) -> PredicateStatistics:
    """Accumulate one predicate's statistics from its rows."""
    subject_counts: Dict[int, int] = {}
    object_counts: Dict[int, int] = {}
    cardinality = 0
    for subject_id, _, object_id in rows:
        cardinality += 1
        subject_counts[subject_id] = subject_counts.get(subject_id, 0) + 1
        object_counts[object_id] = object_counts.get(object_id, 0) + 1
    return PredicateStatistics(
        cardinality=cardinality,
        distinct_subjects=len(subject_counts),
        distinct_objects=len(object_counts),
        max_subject_rows=max(subject_counts.values(), default=0),
        max_object_rows=max(object_counts.values(), default=0),
    )


def collect_statistics(table: ColumnarTripleTable) -> TableStatistics:
    """Compute fresh statistics by scanning each predicate's rows."""
    per_predicate: Dict[IRI, PredicateStatistics] = {}
    for predicate in table.predicates():
        predicate_id = table.dictionary.lookup(predicate)
        per_predicate[predicate] = predicate_statistics(scan_predicate(table, predicate_id))
    return TableStatistics(total_rows=len(table), per_predicate=per_predicate)


# ---------------------------------------------------------------------- #
# The term-space pipeline
# ---------------------------------------------------------------------- #
def bind_pattern_row(
    dictionary: TermDictionary, pattern: TriplePattern, row: Row
) -> Optional[Binding]:
    """Match one stored row against a pattern, producing a decoded binding
    (three decodes per row)."""
    binding: Binding = {}
    for term, term_id in zip((pattern.subject, pattern.predicate, pattern.object), row):
        if isinstance(term, Variable):
            value = dictionary.decode(term_id)
            existing = binding.get(term.name)
            if existing is not None and existing != value:
                return None
            binding[term.name] = value
        else:
            stored: TermLike = dictionary.decode(term_id)
            if stored != term:
                return None
    return binding


def join_pattern_rows(
    bindings: List[Binding],
    pattern: TriplePattern,
    pattern_rows: List[Binding],
    counters: WorkCounters,
) -> List[Binding]:
    """Hash-join already-materialized pattern bindings into the pipeline.

    Charges ``rows_joined`` per produced tuple.
    """
    if not bindings or not pattern_rows:
        return []

    if bindings == [{}]:
        counters.rows_joined += len(pattern_rows)
        return pattern_rows
    shared = sorted(set(bindings[0]) & pattern.variable_names())
    return _merge_join(bindings, pattern_rows, shared, counters)


def join_result_table(
    bindings: List[Binding],
    table: ResultTable,
    counters: WorkCounters,
    as_view: bool = False,
) -> List[Binding]:
    """Join a migrated intermediate-result table into the pipeline.

    Like :func:`join_pattern_rows`, the join runs on a hash index over the
    variables the table shares with the pipeline; the nested-loop cartesian
    merge only remains for tables sharing no variable at all.
    """
    if not bindings:
        return []
    if as_view:
        counters.view_rows_scanned += len(table)
    else:
        counters.rows_scanned += len(table)
    table_bindings = table.to_bindings()
    if bindings == [{}]:
        counters.rows_joined += len(table_bindings)
        return table_bindings
    shared = sorted(set(bindings[0]) & set(table.variables))
    return _merge_join(bindings, table_bindings, shared, counters)


def _merge_join(
    bindings: List[Binding], rows: List[Binding], shared: List[str], counters: WorkCounters
) -> List[Binding]:
    """Hash-join ``rows`` into ``bindings`` on the ``shared`` variables — a
    cartesian merge when there are none — charging ``rows_joined`` per
    produced tuple."""
    output: List[Binding] = []
    if shared:
        index: Dict[tuple, List[Binding]] = {}
        for row in rows:
            index.setdefault(tuple(row[name] for name in shared), []).append(row)
        for binding in bindings:
            for row in index.get(tuple(binding[name] for name in shared), ()):
                merged = merge_bindings(binding, row)
                if merged is not None:
                    output.append(merged)
    else:
        for binding in bindings:
            for row in rows:
                merged = merge_bindings(binding, row)
                if merged is not None:
                    output.append(merged)
    counters.rows_joined += len(output)
    return output


def apply_filters(bindings: List[Binding], filters: tuple[Filter, ...]) -> List[Binding]:
    if not filters:
        return bindings
    return [b for b in bindings if all(f.evaluate(b) for f in filters)]


def project_bindings(bindings: List[Binding], query: SelectQuery) -> List[Binding]:
    names = query.projected_names()
    return [{name: binding[name] for name in names if name in binding} for binding in bindings]


def distinct_bindings(bindings: List[Binding], names: tuple[str, ...]) -> List[Binding]:
    seen: set[tuple] = set()
    unique: List[Binding] = []
    for binding in bindings:
        key = tuple(binding.get(name) for name in names)
        if key not in seen:
            seen.add(key)
            unique.append(binding)
    return unique


def join_extra_tables(
    bindings: List[Binding],
    extra_tables: Optional[Iterable[ResultTable]],
    counters: WorkCounters,
    tables_are_views: bool,
    work_budget: Optional[float],
) -> List[Binding]:
    """The pipeline prologue: join migrated tables, budget-checked per table."""
    for table in extra_tables or ():
        bindings = join_result_table(bindings, table, counters, as_view=tables_are_views)
        check_work_budget(counters, work_budget)
    return bindings


def finish_pipeline(
    bindings: List[Binding], query: SelectQuery, counters: WorkCounters
) -> ExecutionResult:
    """The pipeline epilogue: filters, projection, DISTINCT, LIMIT, result
    accounting."""
    bindings = apply_filters(bindings, query.filters)
    bindings = project_bindings(bindings, query)
    if query.distinct:
        bindings = distinct_bindings(bindings, query.projected_names())
    if query.limit is not None:
        bindings = bindings[: query.limit]
    counters.results_produced += len(bindings)
    return ExecutionResult(
        bindings=bindings,
        variables=tuple(query.projected_names()),
        counters=counters,
        store="relational",
    )


# ---------------------------------------------------------------------- #
# The oracle store
# ---------------------------------------------------------------------- #
class ReferenceStore(RelationalStore):
    """A relational store that evaluates every query decode-per-row.

    Loading, updates, statistics, planning and pricing are the store's own;
    only execution differs.  Drop it in wherever a relational store goes,
    e.g. ``DualStore(relational_store=ReferenceStore())``.
    """

    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        plan = self.plan(query, pattern_order=pattern_order)  # no memo: planned afresh
        counters = WorkCounters(queries_issued=1)
        bindings = join_extra_tables([{}], extra_tables, counters, tables_are_views, work_budget)
        for step in plan:
            # Guard before scanning: once the pipeline is empty, later steps
            # must charge zero work.
            if not bindings:
                break
            pattern_rows = list(self._pattern_bindings(step, counters))
            bindings = join_pattern_rows(bindings, step.pattern, pattern_rows, counters)
            check_work_budget(counters, work_budget)
        return self._priced(finish_pipeline(bindings, query, counters))

    def execute_with_view(self, query: SelectQuery, view: MaterializedView) -> ExecutionResult:
        """A residual query runs through :meth:`execute` (the store's own
        method joins the view in); a fully covered one finishes on the view
        rows alone."""
        if any(pattern not in view.patterns for pattern in query.patterns):
            return super().execute_with_view(query, view)
        counters = WorkCounters(view_rows_scanned=len(view.table), queries_issued=1)
        return self._priced(finish_pipeline(view.table.to_bindings(), query, counters))

    def _pattern_bindings(self, step: PatternAccess, counters: WorkCounters) -> Iterator[Binding]:
        pattern = step.pattern
        table = self.table
        dictionary = self.dictionary

        if step.access_path == "table_scan":
            rows: Iterable[Row] = scan(table)
        else:
            predicate_id = dictionary.lookup(pattern.predicate)
            if predicate_id is None:
                return
            if step.access_path == "index_subject":
                counters.index_lookups += 1
                subject_id = dictionary.lookup(pattern.subject)
                if subject_id is None:
                    return
                rows = lookup_subject(table, predicate_id, subject_id)
            elif step.access_path == "index_object":
                counters.index_lookups += 1
                object_id = dictionary.lookup(pattern.object)
                if object_id is None:
                    return
                rows = lookup_object(table, predicate_id, object_id)
            elif step.access_path == "partition_scan":
                rows = scan_predicate(table, predicate_id)
            else:
                raise QueryExecutionError(f"unknown access path {step.access_path!r}")

        for row in rows:
            counters.rows_scanned += 1
            binding = bind_pattern_row(dictionary, pattern, row)
            if binding is not None:
                yield binding
