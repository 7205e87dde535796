"""Relational store facade (the MySQL stand-in of the dual-store structure).

The relational store holds the *entire* knowledge graph at all times.  It is
cheap to update (plain row inserts) but its complex-query latency grows with
the data size because every triple pattern turns into a partition scan that
feeds a join pipeline.

The facade wires together the triple table, statistics, planner, executor,
optional materialized views, and the cost model that converts work counters
into seconds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cost.counters import WorkCounters
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.errors import SnapshotError, WorkBudgetExceeded
from repro.execution import ExecutionResult, ResultTable
from repro.lru import LRUCache
from repro.rdf.graph import TripleSet
from repro.rdf.terms import IRI, Triple, Variable
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.relstore.columnar import (
    ColumnBlock,
    ColumnarTripleTable,
    execute_compiled,
    finish_columnar_pipeline,
    table_id_columns,
)
from repro.relstore.executor import (
    CompiledPlan,
    QueryTermSpace,
    compile_plan,
    relational_work_units,
)
from repro.relstore.planner import RelationalPlan, plan_query
from repro.relstore.stats import MaintainedStatistics, TableStatistics
from repro.relstore.views import MaterializedView, MaterializedViewManager

__all__ = ["RelationalStore", "relational_work_units"]


class RelationalStore:
    """A work-accounted relational triple store.

    :class:`~repro.relstore.sharded.ShardedRelationalStore` is this store
    with a shard placement map and a scatter-gather price on top: same
    table, same planning, same execute loop.

    Parameters
    ----------
    cost_model:
        Converts work counters into latency seconds on every execution.
    view_row_budget:
        When given, a :class:`MaterializedViewManager` is attached with that
        row budget (used by the RDB-views baseline).
    engine:
        Only ``"columnar"``, the one engine (term-id columns, mask
        selection, batched numpy hash joins, a bound-plan memo); any other
        name raises :class:`ValueError`.
    dictionary:
        An existing term dictionary to encode against (the snapshot-restore
        path rebuilds the dictionary first so persisted integer rows keep
        their meaning); ``None`` starts an empty one.
    """

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        view_row_budget: Optional[int] = None,
        engine: str = "columnar",
        dictionary=None,
    ):
        if engine != "columnar":
            raise ValueError(f"unknown relational engine {engine!r}")
        self.cost_model = cost_model
        table = self.table = ColumnarTripleTable(dictionary)
        self.dictionary = table.dictionary
        self._statistics = MaintainedStatistics(table)
        #: query → compiled plan, kept under the query's read stamp.
        self._bound_plans: LRUCache[SelectQuery, CompiledPlan] = LRUCache(512, "bound-plan memo")
        self.total_insert_seconds = 0.0
        self.view_manager: Optional[MaterializedViewManager] = (
            MaterializedViewManager(row_budget=view_row_budget) if view_row_budget is not None else None
        )

    # ------------------------------------------------------------------ #
    # Loading and updates
    # ------------------------------------------------------------------ #
    def load(self, triples: Iterable[Triple] | TripleSet) -> float:
        """Bulk-load triples; returns the modelled insert latency."""
        inserted = self.table.insert_all(triples)
        seconds = self.cost_model.relational_insert_seconds(inserted)
        self.total_insert_seconds += seconds
        return seconds

    def insert(self, triples: Iterable[Triple]) -> float:
        """Insert new knowledge (the cheap-update property of the store)."""
        return self.load(triples)

    def delete(self, triple: Triple) -> bool:
        return self.delete_all((triple,)) == 1

    def delete_all(self, triples: Iterable[Triple]) -> int:
        """Delete a batch of triples; returns how many were present.  Each
        touched block is replaced once."""
        return self.table.delete_all(triples)

    def __len__(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #
    def predicates(self) -> List[IRI]:
        return self.table.predicates()

    def partition(self, predicate: IRI) -> List[Triple]:
        """The triple partition for ``predicate``, decoded, in block order."""
        return self.table.partition(predicate)

    def partition_block(self, predicate: IRI) -> ColumnBlock:
        """The stored block of ``predicate`` (what gets shipped to the graph
        store): blocks are replaced on write, never changed, so the holder
        keeps the partition as it is now."""
        predicate_id = self.dictionary.lookup(predicate)
        return self.table.partition_columns(-1 if predicate_id is None else predicate_id)

    def partition_size(self, predicate: IRI) -> int:
        return self.table.predicate_cardinality(predicate)

    def predicate_stamp(self, predicate_id: Optional[int]) -> object:
        """Everything an execution reads of one predicate's rows, as one
        comparable value: equal stamps price a pattern on it equally."""
        return self.table.write_stamp(predicate_id)

    def table_stamp(self) -> object:
        """Like :meth:`predicate_stamp` for a scan of the whole table (an
        unbound predicate, whose plan also reads the table's size)."""
        return self.table.table_stamp()

    def read_stamp(self, query: SelectQuery, rows: bool = True) -> tuple:
        """Everything an execution of ``query`` reads of this store, as one
        comparable value: equal stamps give an equal plan, answer and price.

        Per pattern, the dictionary id of each constant (``None`` while the
        dictionary lacks the term: an insert to another predicate can add
        it) and, for a concrete predicate, its :meth:`predicate_stamp`; a
        pattern with an unbound predicate reads the whole table
        (:meth:`table_stamp`); a FILTER reads the ids of its constants.
        ``rows=False`` leaves the rows out: the ids alone are what the graph
        store reads of the dictionary it shares with this one.
        """
        lookup = self.dictionary.lookup
        stamp: list = []
        append = stamp.append
        whole_table = False
        for pattern in query.patterns:
            subject, predicate, obj = pattern.subject, pattern.predicate, pattern.object
            if not isinstance(subject, Variable):
                append(lookup(subject))
            if not isinstance(obj, Variable):
                append(lookup(obj))
            if isinstance(predicate, Variable):
                whole_table = True
                continue
            predicate_id = lookup(predicate)
            append(predicate_id)
            if rows:
                append(self.predicate_stamp(predicate_id))
        for flt in query.filters:
            stamp += [lookup(t) for t in (flt.left, flt.right) if not isinstance(t, Variable)]
        if whole_table and rows:
            append(self.table_stamp())
        return tuple(stamp)

    def partition_sizes(self) -> Dict[IRI, int]:
        return self.table.cardinalities()

    # ------------------------------------------------------------------ #
    # Planning and pricing
    # ------------------------------------------------------------------ #
    def statistics(self) -> TableStatistics:
        """Current statistics, brought up to date lazily after mutations:
        only the predicates whose write stamp moved are recomputed."""
        return self._statistics.current()

    def plan(
        self, query: SelectQuery, pattern_order: Sequence[TriplePattern] | None = None
    ) -> RelationalPlan:
        return plan_query(query, self.statistics(), pattern_order=pattern_order)

    def execute_capped(
        self, query: SelectQuery, work_budget: float
    ) -> Tuple[Optional[ExecutionResult], float]:
        """Run with a cap; return ``(result_or_None, seconds)``.

        The paper's counterfactual thread, stopped once it has run for
        ``λ·c₁``: on budget exhaustion the result is ``None`` and the partial
        work is priced as plain row scans.
        """
        try:
            result = self.execute(query, work_budget=work_budget)
            return result, result.seconds
        except WorkBudgetExceeded as exc:
            partial = WorkCounters(rows_scanned=int(exc.partial_work), queries_issued=1)
            return None, self.cost_model.relational_query_seconds(partial)

    def estimate_query_seconds(self, query: SelectQuery) -> float:
        """Price a query from statistics only (the ideal/one-off tuners' path)."""
        work = self.statistics().estimate_query_work(query)
        counters = WorkCounters(rows_scanned=int(work), queries_issued=1)
        return self.cost_model.relational_query_seconds(counters)

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """Execute a query entirely in the relational store.

        Raises
        ------
        WorkBudgetExceeded
            When ``work_budget`` (in relational work units) is exhausted; the
            exception carries the partial work so the caller can price it.
        """
        result = execute_compiled(
            query, self._compiled(query, pattern_order), self.dictionary, self.table.step_block,
            work_budget, extra_tables, tables_are_views,
        )
        return self._priced(result)

    def _compiled(
        self, query: SelectQuery, pattern_order: Sequence[TriplePattern] | None
    ) -> CompiledPlan:
        """The query's plan with constants pre-resolved, memoized under the
        query's :meth:`read_stamp` — the plan reads the statistics of the
        rows the stamp names, the compile the ids it names — so a replay
        skips planning *and* every per-pattern constant lookup.  Concurrent
        readers may bind the same query twice, which is benign.  A forced
        ``pattern_order`` is planned and compiled afresh, past the memo."""
        if pattern_order is not None:
            return compile_plan(self.plan(query, pattern_order=pattern_order), self.dictionary)
        return self._bound_plans.memo(
            query, self.read_stamp(query), lambda: compile_plan(self.plan(query), self.dictionary)
        )

    def _priced(self, result: ExecutionResult) -> ExecutionResult:
        result.seconds = self.cost_model.relational_query_seconds(result.counters)
        result.store = "relational"
        return result

    def execute_with_view(self, query: SelectQuery, view: MaterializedView) -> ExecutionResult:
        """Answer ``query`` using a materialized view for part of its pattern.

        The view's defining patterns are removed from the WHERE clause and the
        view rows are joined back in as a temporary table (charged as view
        rows).  Patterns not covered by the view run against the base table;
        a query the view covers entirely runs the engine's epilogue (FILTER,
        projection, DISTINCT, LIMIT) over the view rows alone.
        """
        covered = set(view.patterns)
        remaining = [p for p in query.patterns if p not in covered]
        if remaining:
            residual = query.with_patterns(remaining, projection=query.projection)
            return self.execute(residual, extra_tables=[view.table], tables_are_views=True)
        table = view.table
        counters = WorkCounters(view_rows_scanned=len(table), queries_issued=1)
        space = QueryTermSpace(self.dictionary)
        result = finish_columnar_pipeline(
            tuple(table.variables), table_id_columns(table, space), len(table), query, counters, space
        )
        return self._priced(result)

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """JSON-serializable store state: the rows (the dictionary is
        persisted separately since the graph/dual layers share it; the
        statistics are derived from the rows and not persisted)."""
        if self.view_manager is not None:
            raise SnapshotError(
                "snapshotting a store with materialized views is not supported; "
                "drop the view manager or snapshot the base store"
            )
        return {
            "kind": "relational",
            "rows": self.table.dump_rows(),
            "total_insert_seconds": self.total_insert_seconds,
        }

    @classmethod
    def restore_state(
        cls, state: dict, dictionary, cost_model: CostModel = DEFAULT_COST_MODEL
    ) -> "RelationalStore":
        """Rebuild a store from :meth:`snapshot_state` against a restored
        dictionary.  Each predicate's row order (and therefore scan order,
        query results, and work counters) matches the snapshotted store
        exactly — also for payloads written in global row order, which
        older builds wrote.  Statistics are computed from the rows on first
        use.

        Older builds also wrote ``"engine"`` and ``"statistics"`` keys; they
        are not read."""
        store = cls._for_state(state, dictionary, cost_model)
        if "rows" in state:
            rows = state["rows"]
        else:  # a sharded store of a build that kept one table per shard:
            # shard by shard, so each predicate keeps the order it answered in
            rows = [value for shard in state["shard_rows"] for value in shard]
        store.table.load_rows(rows)
        store.total_insert_seconds = float(state["total_insert_seconds"])
        return store

    @classmethod
    def _for_state(cls, state: dict, dictionary, cost_model: CostModel) -> "RelationalStore":
        """The empty store :meth:`restore_state` loads the rows into."""
        return cls(cost_model=cost_model, dictionary=dictionary)
