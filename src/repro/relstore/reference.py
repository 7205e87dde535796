"""The decode-per-row reference executor: the production engine's oracle.

This executor decodes every column of every scanned row into term objects
and joins dictionaries of those terms — the plainest possible reading of the
plan, sharing no join kernel, no id arithmetic and no cached plan state with
:mod:`repro.relstore.columnar`.  It reads the one table class,
:class:`~repro.relstore.columnar.ColumnarTripleTable`, through its row
views (``scan``, ``scan_predicate``, ``lookup_subject``, ``lookup_object``:
``(s, p, o)`` tuples of Python ints over the blocks), so the storage is
shared; the SQLite backend (``tests/test_differential_sql.py``) is the
storage-independent oracle.  It is kept for two reasons:

* it is the **differential oracle**: ``tests/test_differential_engine.py``
  pits the columnar engine (unsharded and sharded) against it and asserts
  byte-identical result bindings and bit-identical logical
  :class:`~repro.cost.counters.WorkCounters` across every template family;
* it is the **benchmark baseline**: ``benchmarks/bench_hotpath.py`` measures
  the kernel-level wall-clock speedup of the columnar engine against it and
  records the result in ``BENCH_hotpath.json``.

Construct it via ``RelationalStore(engine="reference")``; its pipeline is
the term-space helpers of :mod:`repro.relstore.executor`
(``bind_pattern_row``, ``join_pattern_rows``, ``finish_pipeline``, ...),
which define the filter/projection/DISTINCT/LIMIT semantics and the
work-charging points the production engine is held to.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult, ResultTable
from repro.sparql.ast import Binding, SelectQuery

from repro.relstore.executor import (
    CompiledPlan,
    bind_pattern_row,
    check_work_budget,
    finish_pipeline,
    join_extra_tables,
    join_pattern_rows,
)
from repro.relstore.planner import PatternAccess, RelationalPlan
from repro.relstore.columnar import ColumnarTripleTable, Row

__all__ = ["ReferenceExecutor"]


class ReferenceExecutor:
    """Evaluates plans by decoding every scanned row into term bindings."""

    def __init__(self, table: ColumnarTripleTable):
        self._table = table

    # ------------------------------------------------------------------ #
    # Public entry point (signature-compatible with ColumnarExecutor)
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SelectQuery,
        plan: RelationalPlan,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        compiled: Optional[CompiledPlan] = None,
    ) -> ExecutionResult:
        """Run ``plan`` decode-per-row; ``compiled`` is accepted and ignored
        (the reference path re-resolves constants on every execution — that
        per-execution cost is part of what the benchmark measures)."""
        counters = WorkCounters(queries_issued=1)
        bindings: List[Binding] = [{}]
        bindings = join_extra_tables(bindings, extra_tables, counters, tables_are_views, work_budget)

        for step in plan:
            # Guard before scanning: once the pipeline is empty, later steps
            # must charge zero work.
            if not bindings:
                break
            pattern_rows = list(self._pattern_bindings(step, counters))
            bindings = join_pattern_rows(bindings, step.pattern, pattern_rows, counters)
            check_work_budget(counters, work_budget)

        return finish_pipeline(bindings, query, counters)

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def _pattern_bindings(self, step: PatternAccess, counters: WorkCounters) -> Iterator[Binding]:
        pattern = step.pattern
        dictionary = self._table.dictionary

        if step.access_path == "table_scan":
            rows: Iterable[Row] = self._table.scan()
            for row in rows:
                counters.rows_scanned += 1
                binding = bind_pattern_row(dictionary, pattern, row)
                if binding is not None:
                    yield binding
            return

        predicate_id = dictionary.lookup(pattern.predicate)
        if predicate_id is None:
            return

        if step.access_path == "index_subject":
            counters.index_lookups += 1
            subject_id = dictionary.lookup(pattern.subject)
            if subject_id is None:
                return
            rows = self._table.lookup_subject(predicate_id, subject_id)
        elif step.access_path == "index_object":
            counters.index_lookups += 1
            object_id = dictionary.lookup(pattern.object)
            if object_id is None:
                return
            rows = self._table.lookup_object(predicate_id, object_id)
        elif step.access_path == "partition_scan":
            rows = self._table.scan_predicate(predicate_id)
        else:  # pragma: no cover - defensive
            raise QueryExecutionError(f"unknown access path {step.access_path!r}")

        for row in rows:
            counters.rows_scanned += 1
            binding = bind_pattern_row(dictionary, pattern, row)
            if binding is not None:
                yield binding
