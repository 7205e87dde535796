"""Sharded relational master copy with a scatter-gather executor.

:class:`ShardedRelationalStore` hash-partitions the triple table across N
in-process shards and answers queries by scattering per-shard sub-scans,
gathering their bindings, and joining centrally.  It is a drop-in
:class:`~repro.relstore.backend.RelationalBackend`, so the dual store, the
query processor, and the serving layer run unchanged on top of it.

**Shard key.** Rows are placed by predicate (a stable CRC32 hash of the
predicate term, modulo N), matching the paper's partition-per-predicate world
view: a partition transfer or a ``partition_scan`` touches exactly one shard.
A *mega-predicate* whose partition outgrows its fair share of a shard (the
configurable skew threshold) is *promoted* to subject-sharding: its rows are
re-placed by the subject term's stable hash so the partition's scans split
evenly across every shard.  Promotion is sticky — partitions never demote,
so placement stays stable for concurrent readers.

**Work accounting.** Queries run through the production engine's one execute
loop (:func:`~repro.relstore.columnar.execute_compiled`); this store only
supplies where a plan step's block comes from: it scatters the step over the
shards holding the predicate (each a
:class:`~repro.relstore.columnar.ColumnarTripleTable` answering with id
*columns*), concatenates the fragments per column in shard order, and keeps
the per-shard probe work for pricing.  Joins, filters, DISTINCT and LIMIT run
centrally on the gathered columns and nothing is decoded per shard, so the
*logical* work counters are exactly those of
:class:`~repro.relstore.store.RelationalStore`:
shard sub-scans sum to the same ``rows_scanned``, the central hash join
produces the same ``rows_joined``, and one logical pattern access charges one
``index_lookups`` no matter how many shards were probed.  The differential
suite (``tests/test_differential_sharding.py``) asserts this identity for
N ∈ {1, 2, 4, 7}.  On top of the logical counters the executor tracks the
*physical* per-shard probe work, which prices two distinct quantities:

* **total work** — the sum over shards, identical to the unsharded store and
  unchanged by N (there is no free lunch, only parallelism);
* **parallel wall-clock** — per plan step the slowest shard probe, plus the
  coordinator's serial merge work (:meth:`CostModel.scatter_gather_seconds`).
  This is what :attr:`ExecutionResult.seconds` reports; the full breakdown
  rides along in :attr:`ExecutionResult.scatter`.

Shard probes are pure reads and may run on a thread pool
(:meth:`ShardedRelationalStore.attach_scatter_pool`; the serving layer
attaches one it owns).  The usual concurrency contract applies: no mutation
(``load``/``insert``/``delete``/promotion) may run concurrently with reads.

**LIMIT caveat.** Results are binding-identical to the unsharded store as a
*multiset*.  A ``LIMIT`` query without ``ORDER BY`` returns an arbitrary
subset under SPARQL semantics, and the two stores make different (each
deterministic) choices: the unsharded store truncates in insertion order,
the sharded store in shard-gather order.  Result *count* and work counters
still match exactly (``tests/test_differential_sharding.py`` pins both the
equality and this documented divergence).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.cost.counters import WorkCounters
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.execution import ExecutionResult, ResultTable, ScatterGatherInfo
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import TripleSet
from repro.rdf.terms import IRI, Triple
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.relstore.columnar import (
    ColumnarTripleTable,
    ColumnBlock,
    Row,
    _empty,
    concat,
    execute_compiled,
)
from repro.relstore.executor import CompiledStep, compile_plan
from repro.relstore.stats import TableStatistics
from repro.relstore.store import PlannedStore

__all__ = ["ShardingConfig", "ShardedRelationalStore", "ShardMetricsBoard", "SUBJECT_SHARDED"]

#: Placement sentinel: the predicate's rows are spread by subject hash.
SUBJECT_SHARDED = -1

_INDEX_PATHS = ("index_subject", "index_object")


@dataclass(frozen=True)
class ShardingConfig:
    """Placement tunables of the sharded store.

    Attributes
    ----------
    skew_threshold:
        A predicate is promoted to subject-sharding when its partition
        exceeds ``skew_threshold`` times the ideal per-shard row count
        (``total_rows / shards``).  Lower values shard more aggressively;
        benchmarks that want per-query speedup use values well below 1.
    min_subject_shard_rows:
        Absolute floor: partitions smaller than this never promote, no
        matter how skewed (splitting tiny partitions only buys overhead).
    """

    skew_threshold: float = 1.0
    min_subject_shard_rows: int = 128


class _Probe(NamedTuple):
    """One shard's share of one plan step.  The probe itself is the single
    pricing point — the metrics board and the parallel-time model both
    consume the same priced ``seconds``.  ``fragment`` is the shard table's
    ``(names, columns, count)`` block of id columns (shards never decode),
    ``source`` the stored block behind a partition scan's columns."""

    shard: int
    rows_scanned: int
    seconds: float
    fragment: tuple
    source: Optional[ColumnBlock]


class ShardMetricsBoard:
    """Thread-safe per-shard serving metrics: probes, work, queue depth.

    The serving layer surfaces this through ``QueryService.shard_metrics()``.
    Latency figures are the cost model's modelled probe seconds (the same
    currency as every other latency in the repo), not wall-clock.
    """

    def __init__(self, shard_count: int):
        self._lock = threading.Lock()
        self._probes = [0] * shard_count
        self._rows_scanned = [0] * shard_count
        self._index_lookups = [0] * shard_count
        self._busy_seconds = [0.0] * shard_count
        self._max_probe_seconds = [0.0] * shard_count
        self._inflight = [0] * shard_count
        self._peak_inflight = [0] * shard_count

    def begin(self, shard: int) -> None:
        with self._lock:
            self._inflight[shard] += 1
            if self._inflight[shard] > self._peak_inflight[shard]:
                self._peak_inflight[shard] = self._inflight[shard]

    def finish(self, shard: int, rows_scanned: int, index_lookups: int, seconds: float) -> None:
        with self._lock:
            self._inflight[shard] -= 1
            self._probes[shard] += 1
            self._rows_scanned[shard] += rows_scanned
            self._index_lookups[shard] += index_lookups
            self._busy_seconds[shard] += seconds
            if seconds > self._max_probe_seconds[shard]:
                self._max_probe_seconds[shard] = seconds

    def snapshot(self) -> List[Dict[str, float]]:
        """One plain dict per shard, for logging and the serving layer."""
        with self._lock:
            out: List[Dict[str, float]] = []
            for shard in range(len(self._probes)):
                probes = self._probes[shard]
                out.append(
                    {
                        "shard": float(shard),
                        "probes": float(probes),
                        "rows_scanned": float(self._rows_scanned[shard]),
                        "index_lookups": float(self._index_lookups[shard]),
                        "busy_seconds": self._busy_seconds[shard],
                        "mean_probe_seconds": (
                            self._busy_seconds[shard] / probes if probes else 0.0
                        ),
                        "max_probe_seconds": self._max_probe_seconds[shard],
                        "queue_depth": float(self._inflight[shard]),
                        "peak_queue_depth": float(self._peak_inflight[shard]),
                    }
                )
            return out


class ShardedRelationalStore(PlannedStore):
    """A work-accounted relational store over N hash-partitioned shards.

    Parameters
    ----------
    shards:
        Number of in-process shards (each its own
        :class:`~repro.relstore.columnar.ColumnarTripleTable`; the term
        dictionary is shared so identifiers stay globally consistent).
    cost_model:
        Prices both the total-work and the parallel wall-clock view of every
        execution.
    config:
        Placement tunables (skew threshold for subject-sharding).
    """

    def __init__(
        self,
        shards: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: Optional[ShardingConfig] = None,
        dictionary: Optional[TermDictionary] = None,
    ):
        if shards < 1:
            raise ValueError("a sharded store needs at least one shard")
        self.shard_count = shards
        self.config = config or ShardingConfig()
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._tables = [ColumnarTripleTable(self.dictionary) for _ in range(shards)]
        #: predicate_id -> owner shard index, or SUBJECT_SHARDED.
        self._placement: Dict[int, int] = {}
        #: term_id -> stable hash shard (memoized CRC32 of the term's N3
        #: form, so placement is identical no matter the insertion order).
        self._term_shard: Dict[int, int] = {}
        super().__init__(cost_model, self.dictionary, self._tables_for_predicate)
        self.shard_metrics = ShardMetricsBoard(shards)
        self._scatter_pool = None  # duck-typed: anything with .map(fn, iterable)
        self._scatter_pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Scatter pool (optional read-side parallelism)
    # ------------------------------------------------------------------ #
    def attach_scatter_pool(self, pool) -> bool:
        """Run shard probes on ``pool`` (``ThreadPoolExecutor``-like).

        Probes only read shard state, so any number of concurrent queries may
        scatter onto the same pool.  The pool must be dedicated to probes —
        submitting probes to a pool whose workers are themselves waiting on
        this store's queries would deadlock.

        Returns ``False`` (leaving the existing pool in place) when a
        *different* pool is already attached: with several serving layers on
        one store, the first attachment wins and later ones must not clobber
        it.  Every query on the store scatters via whatever pool is attached
        at probe time; if that pool's owner shuts it down mid-probe the
        executor falls back to serial probing, so a losing/closing service
        can never crash another's queries.
        """
        with self._scatter_pool_lock:
            if self._scatter_pool is not None and self._scatter_pool is not pool:
                return False
            self._scatter_pool = pool
            return True

    def detach_scatter_pool(self, pool) -> None:
        """Detach ``pool`` if it is the currently attached scatter pool."""
        with self._scatter_pool_lock:
            if self._scatter_pool is pool:
                self._scatter_pool = None

    @property
    def has_scatter_pool(self) -> bool:
        """Whether some serving layer currently provides a scatter pool."""
        return self._scatter_pool is not None

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def placement(self, predicate: IRI) -> Optional[int]:
        """The shard owning ``predicate``, ``SUBJECT_SHARDED``, or ``None``."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return None
        return self._placement.get(predicate_id)

    def subject_sharded_predicates(self) -> List[IRI]:
        """Predicates currently spread by subject hash (mega-predicates)."""
        out = []
        for predicate_id, placement in self._placement.items():
            if placement == SUBJECT_SHARDED:
                term = self.dictionary.decode(predicate_id)
                if isinstance(term, IRI):
                    out.append(term)
        return sorted(out, key=lambda p: p.value)

    def _shard_of_term(self, term_id: int) -> int:
        """Stable shard of one term: CRC32 of its N3 form modulo N.

        Memoized per term id; independent of dictionary id assignment, so
        *hash placement* never depends on insertion order.  (Note that
        *promotion* to subject-sharding is not order-independent: the skew
        limit is evaluated against the store size at mutation time and is
        sticky, so interleaving loads differently can promote different
        predicates — answers and total work are unaffected, only the
        parallel-time breakdown.)
        """
        shard = self._term_shard.get(term_id)
        if shard is None:
            term = self.dictionary.decode(term_id)
            shard = zlib.crc32(term.n3().encode("utf-8")) % self.shard_count
            self._term_shard[term_id] = shard
        return shard

    def _shard_for_row(self, row: Row) -> int:
        subject_id, predicate_id, _ = row
        placement = self._placement.get(predicate_id)
        if placement is None:
            placement = self._shard_of_term(predicate_id)
            self._placement[predicate_id] = placement
        if placement == SUBJECT_SHARDED:
            return self._shard_of_term(subject_id)
        return placement

    def _skew_limit(self) -> float:
        ideal = len(self) / self.shard_count
        return max(float(self.config.min_subject_shard_rows), self.config.skew_threshold * ideal)

    def _maybe_promote(self, predicate_id: int) -> None:
        """Promote a predicate to subject-sharding once it exceeds the skew
        threshold; its rows move from the owner shard to their subject
        shards.  One shard needs no balancing, and promotion never reverts."""
        if self.shard_count == 1:
            return
        owner = self._placement.get(predicate_id)
        if owner is None or owner == SUBJECT_SHARDED:
            return
        table = self._tables[owner]
        if table.live_row_count(predicate_id) <= self._skew_limit():
            return
        self._placement[predicate_id] = SUBJECT_SHARDED
        self._insert_routed(table.extract_predicate(predicate_id))

    # ------------------------------------------------------------------ #
    # Loading and updates
    # ------------------------------------------------------------------ #
    def load(self, triples: Iterable[Triple] | TripleSet) -> float:
        """Bulk-load triples; returns the modelled insert latency."""
        return self.insert(triples)

    def insert(self, triples: Iterable[Triple]) -> float:
        """Insert new knowledge, routing each row to its shard."""
        added = self._insert_routed(self.dictionary.encode_triples(triples))
        self._plan_generation += 1
        for predicate_id in added:
            self._maybe_promote(predicate_id)
        seconds = self.cost_model.relational_insert_seconds(sum(added.values()))
        self.total_insert_seconds += seconds
        return seconds

    def _insert_routed(self, rows: Iterable[Row]) -> Dict[int, int]:
        """Route encoded rows to their shards, then insert each shard's share
        in one batch; returns ``{predicate id: rows added}``."""
        per_shard: List[List[Row]] = [[] for _ in self._tables]
        for row in rows:
            per_shard[self._shard_for_row(row)].append(row)
        added: Dict[int, int] = {}
        for table, shard_rows in zip(self._tables, per_shard):
            for predicate_id, count in table.insert_rows(shard_rows).items():
                added[predicate_id] = added.get(predicate_id, 0) + count
        return added

    def delete(self, triple: Triple) -> bool:
        return self.delete_all((triple,)) == 1

    def delete_all(self, triples: Iterable[Triple]) -> int:
        """Delete a batch of triples; returns how many were present.  The
        batch is routed to shards first, so each shard replaces each touched
        block once, and derived state ages once."""
        lookup_many = self.dictionary.lookup_many
        per_shard: List[List[Row]] = [[] for _ in self._tables]
        for triple in triples:
            row = tuple(lookup_many((triple.subject, triple.predicate, triple.object)))
            placement = self._placement.get(row[1])
            if None in row or placement is None:
                continue
            shard = self._shard_of_term(row[0]) if placement == SUBJECT_SHARDED else placement
            per_shard[shard].append(row)
        removed = sum(
            sum(table.delete_rows(rows).values()) for table, rows in zip(self._tables, per_shard)
        )
        if removed:
            self._plan_generation += 1
        return removed

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables)

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #
    def predicates(self) -> List[IRI]:
        merged: set[IRI] = set()
        for table in self._tables:
            merged.update(table.predicates())
        return sorted(merged, key=lambda p: p.value)

    def _tables_for_predicate(self, predicate_id: int) -> Sequence[ColumnarTripleTable]:
        placement = self._placement.get(predicate_id)
        if placement is None:
            return ()
        if placement == SUBJECT_SHARDED:
            return self._tables
        return (self._tables[placement],)

    def partition(self, predicate: IRI) -> List[Triple]:
        """Every live triple of one predicate, gathered in shard order."""
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return []
        out: List[Triple] = []
        for table in self._tables_for_predicate(predicate_id):
            out += table.partition(predicate)
        return out

    def partition_block(self, predicate: IRI) -> ColumnBlock:
        """One predicate's blocks joined in shard order (the order of
        :meth:`partition`); a predicate on one shard hands over its block."""
        predicate_id = self.dictionary.lookup(predicate)
        blocks = [
            table.partition_columns(predicate_id)
            for table in self._tables_for_predicate(predicate_id)
        ]
        if len(blocks) == 1:
            return blocks[0]
        subjects = concat([_empty()] + [block.subjects for block in blocks])
        return ColumnBlock.of(
            subjects, concat([_empty()] + [block.objects for block in blocks]), len(subjects)
        )

    def partition_size(self, predicate: IRI) -> int:
        predicate_id = self.dictionary.lookup(predicate)
        if predicate_id is None:
            return 0
        return sum(
            table.live_row_count(predicate_id)
            for table in self._tables_for_predicate(predicate_id)
        )

    def partition_sizes(self) -> Dict[IRI, int]:
        return {p: self.partition_size(p) for p in self.predicates()}

    # ------------------------------------------------------------------ #
    # Query execution (scatter-gather)
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """Scatter-gather execution with unsharded-identical logical work.

        The engine's execute loop asks this store for each plan step's block;
        the answer is the shard probes' id columns concatenated per column in
        shard order.  A step that one shard answers alone (a predicate placed
        on one shard) hands that shard's stored columns over uncopied,
        together with the block they came from, so the join reuses the
        block's memoized group index exactly as the unsharded store does.

        Raises :class:`~repro.errors.WorkBudgetExceeded` at the same step
        boundaries, with the same partial work, as the unsharded store.
        """
        if pattern_order is None:
            _plan, compiled = self._bound_plan(query)
        else:
            compiled = compile_plan(self.plan(query, pattern_order=pattern_order), self.dictionary)
        step_probe_work: List[List[Tuple[int, float]]] = []
        shard_rows_scanned = 0
        unprobed_index_lookups = 0

        def step_block(step: CompiledStep, counters: WorkCounters):
            nonlocal shard_rows_scanned, unprobed_index_lookups
            probes = self._run_probes(self._shards_for_step(step), self._make_probe(step))
            names = step.matcher.var_names
            parts: List[List[object]] = [[] for _ in names]
            total = 0
            step_work: List[Tuple[int, float]] = []
            for probe in probes:
                counters.rows_scanned += probe.rows_scanned
                shard_rows_scanned += probe.rows_scanned
                step_work.append((probe.shard, probe.seconds))
                _names, fragment_cols, fragment_count = probe.fragment
                if fragment_count:
                    for bucket, column in zip(parts, fragment_cols):
                        bucket.append(column)
                    total += fragment_count
            step_probe_work.append(step_work)
            # One *logical* index lookup per index step, exactly like the
            # unsharded store: charged once the predicate term is known, no
            # matter how many shards were physically probed (or whether the
            # bound term turned out to be absent).
            if step.predicate_id is not None and step.access_path in _INDEX_PATHS:
                counters.index_lookups += 1
                if not probes:
                    # No shard was touched (bound term absent), so the lookup
                    # cost must be priced centrally or the parallel price
                    # would drop work the serial price includes.
                    unprobed_index_lookups += 1
            # A single fragment passes through `concat` as the very same
            # arrays, which is what lets its source block's memo apply.
            block_cols = [concat(bucket) if bucket else _empty() for bucket in parts]
            return (names, block_cols, total), probes[0].source if len(probes) == 1 else None

        result = execute_compiled(
            query, compiled, self.dictionary, step_block,
            work_budget, extra_tables, tables_are_views,
        )
        self._price(result, step_probe_work, shard_rows_scanned, unprobed_index_lookups)
        return result

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """JSON-serializable store state: per-shard rows **and** the placement
        map, so a restore reproduces the exact physical layout — including
        sticky mega-predicate promotions, which are load-order dependent and
        could not be re-derived from the rows alone."""
        return {
            "kind": "sharded",
            # Not read on restore; written so that manifests stay readable by
            # builds that had more than one engine.
            "engine": "columnar",
            "shards": self.shard_count,
            "config": {
                "skew_threshold": self.config.skew_threshold,
                "min_subject_shard_rows": self.config.min_subject_shard_rows,
            },
            "placement": {str(pid): shard for pid, shard in self._placement.items()},
            "shard_rows": [table.dump_rows() for table in self._tables],
            "statistics": self.statistics().to_payload(),
            "total_insert_seconds": self.total_insert_seconds,
        }

    @classmethod
    def restore_state(
        cls,
        state: dict,
        dictionary: TermDictionary,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "ShardedRelationalStore":
        """Rebuild a sharded store from :meth:`snapshot_state`.

        Placement is installed *before* the rows, and rows go straight to
        their recorded shard (no re-routing, no promotion checks): the
        restored store answers queries with bit-identical logical work and
        the same per-shard physical breakdown as the snapshotted one.  The
        payload's ``"engine"`` tag is not read: tagged ``"columnar"``, the
        legacy ``"idspace"``, or (older still) not at all, the rows restore
        onto the production engine.
        """
        store = cls(
            shards=int(state["shards"]),
            cost_model=cost_model,
            config=ShardingConfig(
                skew_threshold=float(state["config"]["skew_threshold"]),
                min_subject_shard_rows=int(state["config"]["min_subject_shard_rows"]),
            ),
            dictionary=dictionary,
        )
        store._placement = {int(pid): int(shard) for pid, shard in state["placement"].items()}
        for table, flat in zip(store._tables, state["shard_rows"]):
            table.load_rows(flat)
        store._statistics.install(
            store._plan_generation, TableStatistics.from_payload(state["statistics"])
        )
        store.total_insert_seconds = float(state["total_insert_seconds"])
        return store

    # ------------------------------------------------------------------ #
    # Scatter internals
    # ------------------------------------------------------------------ #
    def _shards_for_step(self, step: CompiledStep) -> Sequence[int]:
        """The shards one plan step probes, ascending — so the gathered
        fragments are deterministic regardless of pool scheduling.  Empty
        when the step cannot match (unknown predicate or bound term).  The
        step's constants arrive pre-resolved on the :class:`CompiledStep`."""
        if step.access_path == "table_scan":
            return range(self.shard_count)
        placement = self._placement.get(step.predicate_id)
        if placement is None:
            return ()
        if step.access_path == "index_subject":
            if step.subject_id is None:
                return ()
            if placement == SUBJECT_SHARDED:
                return (self._shard_of_term(step.subject_id),)
        elif step.access_path == "index_object" and step.object_id is None:
            return ()
        return range(self.shard_count) if placement == SUBJECT_SHARDED else (placement,)

    def _run_probes(self, shards: Sequence[int], probe) -> List[_Probe]:
        pool = self._scatter_pool
        if pool is not None and len(shards) > 1:
            try:
                return list(pool.map(probe, shards))
            except RuntimeError as exc:
                # Only the submission-time "cannot schedule new futures after
                # shutdown" case falls back: the pool's owner closed it under
                # us.  Probes are pure reads, so serial re-probing is safe (at
                # worst the metrics board double-counts the probes the pool
                # managed to start).  Any other RuntimeError is a real probe
                # failure and must surface.
                if "shutdown" not in str(exc):
                    raise
        return [probe(shard) for shard in shards]

    def _make_probe(self, step: CompiledStep):
        """One shard's share of ``step``: the shard table's own access path
        (:meth:`ColumnarTripleTable.step_block`), charged to a probe-local
        counter, priced, and posted to the metrics board.  The *logical*
        index-lookup charge happens at the coordinator (one per step); the
        per-shard physical lookups go to the metrics board only."""
        tables = self._tables
        board = self.shard_metrics
        cost_model = self.cost_model

        def probe(shard: int) -> _Probe:
            board.begin(shard)
            local = WorkCounters()
            try:
                fragment, source = tables[shard].step_block(step, local)
            finally:
                scanned, lookups = local.rows_scanned, local.index_lookups
                seconds = cost_model.relational_scan_seconds(scanned, lookups)
                board.finish(shard, scanned, lookups, seconds)
            return _Probe(shard, scanned, seconds, fragment, source)

        return probe

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #
    def _price(
        self,
        result: ExecutionResult,
        step_probe_work: List[List[Tuple[int, float]]],
        shard_rows_scanned: int,
        unprobed_index_lookups: int = 0,
    ) -> None:
        cost_model = self.cost_model
        per_shard = [0.0] * self.shard_count
        step_costs: List[List[float]] = []
        for step_work in step_probe_work:
            for shard, cost in step_work:
                per_shard[shard] += cost
            step_costs.append([cost for _, cost in step_work])
        central = WorkCounters(
            rows_scanned=result.counters.rows_scanned - shard_rows_scanned,
            rows_joined=result.counters.rows_joined,
            index_lookups=unprobed_index_lookups,
            view_rows_scanned=result.counters.view_rows_scanned,
            results_produced=result.counters.results_produced,
        )
        parallel = cost_model.scatter_gather_seconds(step_costs, central)
        serial = cost_model.relational_query_seconds(result.counters)
        result.seconds = parallel
        result.scatter = ScatterGatherInfo(
            shard_seconds=tuple(per_shard),
            parallel_seconds=parallel,
            serial_seconds=serial,
        )
