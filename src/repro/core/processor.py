"""Query processor of the dual-store structure (Section 5, Algorithm 3).

Given a query ``q`` and its complex subquery ``q_c`` (identified by the
complex subquery identifier), the processor routes execution according to
which predicates currently live in the graph store:

* **Case 1** — the graph store covers every predicate of ``q``: run the whole
  query in the graph store.
* **Case 2** — the graph store covers the predicates of ``q_c`` but not all of
  ``q``: run ``q_c`` in the graph store, migrate its intermediate results
  into the relational store's temporary table space, and finish the remaining
  part of ``q`` there.
* **Case 3** — the graph store does not cover ``q_c`` (or there is no complex
  subquery): run ``q`` in the relational store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import count
from typing import Optional

from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.execution import ExecutionResult, ResultTable
from repro.graphstore.store import GraphStore
from repro.relstore.store import RelationalStore
from repro.sparql.ast import SelectQuery

from repro.core.identifier import ComplexSubquery
from repro.core.metrics import QueryRecord

__all__ = ["QueryProcessor", "ProcessedQuery", "ROUTE_GRAPH", "ROUTE_RELATIONAL", "ROUTE_SPLIT"]

ROUTE_GRAPH = "graph"
ROUTE_RELATIONAL = "relational"
ROUTE_SPLIT = "split"


@dataclass
class ProcessedQuery:
    """The routed execution of one query.

    ``generation`` is the store generation the answer reflects, stamped by
    the serving layer from the sample it took under its read gate
    (``None`` straight from the processor)."""

    result: ExecutionResult
    record: QueryRecord
    generation: Optional[int] = None

    @property
    def route(self) -> str:
        return self.record.route

    @property
    def seconds(self) -> float:
        return self.record.seconds


class QueryProcessor:
    """Routes queries across the two stores based on the current design.

    Concurrency contract: ``process`` only *reads* store state, so several
    threads may process queries at once (the serving layer's concurrent
    callers rely on this) provided no physical-design mutation — ``insert``,
    ``transfer_partition``, ``evict_partition`` — runs concurrently (the
    serving layer's read/write gate enforces that).  The only
    processor-owned mutable state is the temporary-table name counter, which
    is guarded by a lock.

    The relational side is a :class:`~repro.relstore.store.RelationalStore`;
    with a sharded store, Case 2/3 executions are priced as a scatter-gather
    transparently (the migrated intermediate table joins centrally at the
    coordinator, so split plans need no shard awareness here).
    """

    def __init__(
        self,
        relational: RelationalStore,
        graph: GraphStore,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        self.relational = relational
        self.graph = graph
        self.cost_model = cost_model
        self._temp_table_ids = count(1)
        self._temp_table_lock = threading.Lock()

    def _next_temp_table_name(self) -> str:
        with self._temp_table_lock:
            return f"temp_complex_{next(self._temp_table_ids)}"

    def process(self, query: SelectQuery, complex_subquery: Optional[ComplexSubquery]) -> ProcessedQuery:
        """Execute ``query`` using Algorithm 3's three cases."""
        if complex_subquery is None:
            return self._run_relational(query, had_complex=False)

        query_predicates = query.predicates()
        subquery_predicates = complex_subquery.predicates

        # The graph store can only evaluate patterns with concrete predicates;
        # queries using predicate variables always take the relational path.
        whole_query_graph_safe = all(p.has_concrete_predicate for p in query.patterns)
        subquery_graph_safe = all(p.has_concrete_predicate for p in complex_subquery.patterns)

        if whole_query_graph_safe and self.graph.covers(query_predicates):
            return self._run_graph(query, complex_subquery)
        if subquery_graph_safe and complex_subquery.remainder and self.graph.covers(subquery_predicates):
            return self._run_split(query, complex_subquery)
        return self._run_relational(query, had_complex=True)

    # ------------------------------------------------------------------ #
    # Case 3 (and the no-complex-subquery case)
    # ------------------------------------------------------------------ #
    def _run_relational(self, query: SelectQuery, had_complex: bool) -> ProcessedQuery:
        result = self.relational.execute(query)
        record = QueryRecord(
            query=query,
            seconds=result.seconds,
            route=ROUTE_RELATIONAL,
            result_count=len(result),
            counters=result.counters,
            relational_seconds=result.seconds,
            had_complex_subquery=had_complex,
        )
        return ProcessedQuery(result=result, record=record)

    # ------------------------------------------------------------------ #
    # Case 1
    # ------------------------------------------------------------------ #
    def _run_graph(self, query: SelectQuery, complex_subquery: ComplexSubquery) -> ProcessedQuery:
        result = self.graph.execute(query)
        record = QueryRecord(
            query=query,
            seconds=result.seconds,
            route=ROUTE_GRAPH,
            result_count=len(result),
            counters=result.counters,
            graph_seconds=result.seconds,
            had_complex_subquery=True,
        )
        return ProcessedQuery(result=result, record=record)

    # ------------------------------------------------------------------ #
    # Case 2
    # ------------------------------------------------------------------ #
    def _run_split(self, query: SelectQuery, complex_subquery: ComplexSubquery) -> ProcessedQuery:
        graph_result = self.graph.execute(complex_subquery.query)

        table = ResultTable.from_result(
            name=self._next_temp_table_name(),
            result=graph_result,
        )
        migration_seconds = self.cost_model.migration_seconds(len(table))

        remainder_query = query.with_patterns(complex_subquery.remainder, projection=query.projection)
        relational_result = self.relational.execute(remainder_query, extra_tables=[table])

        total_seconds = graph_result.seconds + migration_seconds + relational_result.seconds
        combined_counters = graph_result.counters.merge(relational_result.counters)
        combined_counters.triples_migrated += len(table)

        # The relational leg's columns (and its per-shard scatter view) under
        # the combined accounting.
        final = relational_result.view(combined_counters)
        final.seconds, final.store = total_seconds, "dual"
        record = QueryRecord(
            query=query,
            seconds=total_seconds,
            route=ROUTE_SPLIT,
            result_count=len(final),
            counters=combined_counters,
            graph_seconds=graph_result.seconds,
            relational_seconds=relational_result.seconds,
            migration_seconds=migration_seconds,
            had_complex_subquery=True,
        )
        return ProcessedQuery(result=final, record=record)
