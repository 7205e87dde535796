"""Sharded relational master copy: a placement map and a scatter-gather price
over the one triple table.

:class:`ShardedRelationalStore` is a :class:`~repro.relstore.store.RelationalStore`
(the same answers, order and work counters) that also decides where each row
*would* live across N shards: a predicate on the shard of a stable CRC32 hash
of its term, or — once promoted past the skew limit of :class:`ShardingConfig`
(sticky, checked at write time) — each row on the shard of its subject's hash.
Each plan step runs once on the table; placement names the shards that would
have probed it and their rows, and per step the slowest probe plus the serial
share is the parallel time (:meth:`CostModel.scatter_gather_seconds`).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cost.counters import WorkCounters
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.execution import ExecutionResult, ResultTable, ScatterGatherInfo
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Triple
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.relstore.columnar import ColumnBlock, execute_compiled
from repro.relstore.executor import CompiledStep
from repro.relstore.store import RelationalStore

__all__ = ["ShardingConfig", "ShardedRelationalStore", "ShardMetricsBoard", "SUBJECT_SHARDED"]

#: Placement sentinel: the predicate's rows are spread by subject hash.
SUBJECT_SHARDED = -1


@dataclass(frozen=True)
class ShardingConfig:
    """Placement tunables: a predicate is promoted to subject-sharding when
    its partition exceeds ``skew_threshold`` times the ideal per-shard row
    count (``total_rows / shards``) and ``min_subject_shard_rows`` rows."""

    skew_threshold: float = 1.0
    min_subject_shard_rows: int = 128


class ShardMetricsBoard:
    """Thread-safe per-shard probe totals (``QueryService.shard_metrics()``):
    probes, rows scanned, index lookups, busy and max modelled seconds."""

    def __init__(self, shard_count: int):
        self._lock = threading.Lock()
        self._totals = [[0, 0, 0, 0.0, 0.0] for _ in range(shard_count)]

    def record(self, probes: Iterable[Tuple[int, int, int, float]]) -> None:
        """Post ``(shard, rows scanned, index lookups, seconds)`` probes."""
        with self._lock:
            for shard, rows_scanned, index_lookups, seconds in probes:
                totals = self._totals[shard]
                totals[0] += 1
                totals[1] += rows_scanned
                totals[2] += index_lookups
                totals[3] += seconds
                totals[4] = max(totals[4], seconds)

    def snapshot(self) -> List[Dict[str, float]]:
        """One plain dict per shard, for logging and the serving layer."""
        with self._lock:
            return [
                {
                    "shard": float(shard),
                    "probes": float(probes),
                    "rows_scanned": float(rows),
                    "index_lookups": float(lookups),
                    "busy_seconds": busy,
                    "mean_probe_seconds": busy / probes if probes else 0.0,
                    "max_probe_seconds": peak,
                }
                for shard, (probes, rows, lookups, busy, peak) in enumerate(self._totals)
            ]


class ShardedRelationalStore(RelationalStore):
    """A relational store priced as ``shards`` shards placed by ``config``."""

    def __init__(
        self,
        shards: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: Optional[ShardingConfig] = None,
        dictionary: Optional[TermDictionary] = None,
    ):
        if shards < 1:
            raise ValueError("a sharded store needs at least one shard")
        super().__init__(cost_model, dictionary=dictionary)
        self.shard_count = shards
        self.config = config or ShardingConfig()
        #: predicate_id -> owner shard index, or SUBJECT_SHARDED.
        self._placement: Dict[int, int] = {}
        #: term_id -> CRC32 shard of its N3 form (-1 until first needed).
        self._term_shard = np.full(0, -1, dtype=np.int64)
        #: predicate_id -> (block, its subjects' shards, rows per shard).
        self._subject_shards: Dict[int, Tuple[ColumnBlock, object, List[int]]] = {}
        self.shard_metrics = ShardMetricsBoard(shards)

    def placement(self, predicate: IRI) -> Optional[int]:
        """The shard owning ``predicate``, ``SUBJECT_SHARDED``, or ``None``."""
        return self._placement.get(self.dictionary.lookup(predicate))

    def subject_sharded_predicates(self) -> List[IRI]:
        """Predicates currently spread by subject hash (mega-predicates)."""
        promoted = [pid for pid, shard in self._placement.items() if shard == SUBJECT_SHARDED]
        terms = self.dictionary.decode_many(promoted)
        return sorted((term for term in terms if isinstance(term, IRI)), key=lambda p: p.value)

    def predicate_stamp(self, predicate_id: Optional[int]) -> object:
        """The table's stamp of the predicate plus its placement."""
        return super().predicate_stamp(predicate_id), self._placement.get(predicate_id)  # type: ignore[arg-type]

    def table_stamp(self) -> object:
        """The table's stamp plus the rows per shard a table scan probes."""
        return super().table_stamp(), tuple(self.shard_row_counts())

    def shard_row_counts(self) -> List[int]:
        """The rows each shard holds under the current placement."""
        counts = np.zeros(self.shard_count, dtype=np.int64)
        for predicate_id, shard in self._placement.items():
            if shard == SUBJECT_SHARDED:
                counts += self._subject_shard_rows(predicate_id)[2]
            else:
                counts[shard] += self.table.live_row_count(predicate_id)
        return counts.tolist()

    def _term_shards(self, term_ids):
        """Stable shards of an id column; concurrent fills write equal values."""
        memo, size = self._term_shard, len(self.dictionary)
        if len(memo) < size:
            memo = np.concatenate([memo, np.full(2 * size - len(memo), -1, dtype=np.int64)])
        missing = np.unique(term_ids[memo[term_ids] < 0])
        if len(missing):
            terms = self.dictionary.decode_many(missing.tolist())
            memo[missing] = [zlib.crc32(t.n3().encode("utf-8")) % self.shard_count for t in terms]
        self._term_shard = memo
        return memo[term_ids]

    def _subject_shard_rows(self, predicate_id: int) -> Tuple[ColumnBlock, object, List[int]]:
        block = self.table.partition_columns(predicate_id)
        memo = self._subject_shards.get(predicate_id)
        if memo is None or memo[0] is not block:
            shards = self._term_shards(block.subjects)
            counts = np.bincount(shards, minlength=self.shard_count).tolist()
            memo = self._subject_shards[predicate_id] = (block, shards, counts)
        return memo

    def load(self, triples: Iterable[Triple]) -> float:
        """Insert triples, placing new predicates and promoting those past the
        skew limit (one shard needs no balancing); returns the insert price."""
        added = self.table.insert_rows(self.dictionary.encode_triples(triples))
        self._invalidate_derived_state()
        ideal = len(self) / self.shard_count
        limit = max(self.config.min_subject_shard_rows, self.config.skew_threshold * ideal)
        new = [predicate_id for predicate_id in added if predicate_id not in self._placement]
        self._placement.update(zip(new, self._term_shards(np.array(new, dtype=np.int64)).tolist()))
        for predicate_id in added:
            if self.shard_count > 1 and self.table.live_row_count(predicate_id) > limit:
                self._placement[predicate_id] = SUBJECT_SHARDED
        seconds = self.cost_model.relational_insert_seconds(sum(added.values()))
        self.total_insert_seconds += seconds
        return seconds

    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """The table's execution, each step priced as its placed shards' probes."""
        compiled = self._compiled(query, pattern_order)
        per_shard = [0.0] * self.shard_count
        step_costs: List[List[float]] = []
        posts: List[Tuple[int, int, int, float]] = []  # for the metrics board
        unprobed_lookups = 0
        price = self.cost_model.relational_scan_seconds  # one shard's probe of one step

        def step_block(step: CompiledStep, counters: WorkCounters):
            nonlocal unprobed_lookups
            scanned, lookups = counters.rows_scanned, counters.index_lookups
            block = self.table.step_block(step, counters)
            lookups = counters.index_lookups - lookups
            probes = self._probes(step, counters.rows_scanned - scanned)
            costs = [price(rows, lookups) for _, rows in probes]
            for (shard, rows), seconds in zip(probes, costs):
                posts.append((shard, rows, lookups, seconds))
                per_shard[shard] += seconds
            step_costs.append(costs)
            if lookups and not probes:
                unprobed_lookups += 1  # priced centrally, as the serial price has it
            return block

        try:
            result = execute_compiled(
                query, compiled, self.dictionary, step_block,
                work_budget, extra_tables, tables_are_views,
            )
        finally:  # probes of an aborted query were run too
            self.shard_metrics.record(posts)
        counters = result.counters
        central = counters.copy()  # the coordinator's serial share
        central.rows_scanned -= sum(post[1] for post in posts)
        central.index_lookups = unprobed_lookups
        result.seconds = self.cost_model.scatter_gather_seconds(step_costs, central)
        serial = self.cost_model.relational_query_seconds(counters)
        result.scatter = ScatterGatherInfo(tuple(per_shard), result.seconds, serial)
        return result

    def _probes(self, step: CompiledStep, rows: int) -> List[Tuple[int, int]]:
        """``(shard, rows scanned)`` of the shards a step scanning ``rows`` probes."""
        path = step.access_path
        if path == "table_scan":
            return list(enumerate(self.shard_row_counts()))
        placement = self._placement.get(step.predicate_id)
        key = step.subject_id if path == "index_subject" else step.object_id
        if placement is None or (key is None and path != "partition_scan"):
            return []
        if placement != SUBJECT_SHARDED:
            return [(placement, rows)]
        if path == "index_subject":
            return [(int(self._term_shards(np.array([key]))[0]), rows)]
        block, shards, counts = self._subject_shard_rows(step.predicate_id)
        if path == "index_object":
            counts = np.bincount(shards[block.objects == key], minlength=self.shard_count).tolist()
        return list(enumerate(counts))

    def snapshot_state(self) -> dict:
        """The table's state plus shard count, config and placement map."""
        return dict(
            super().snapshot_state(),
            kind="sharded",
            shards=self.shard_count,
            config=asdict(self.config),
            placement={str(pid): shard for pid, shard in self._placement.items()},
        )

    @classmethod
    def _for_state(cls, state: dict, dictionary, cost_model: CostModel) -> "ShardedRelationalStore":
        """The empty store a snapshot loads into, placement as recorded."""
        store = cls(int(state["shards"]), cost_model, ShardingConfig(**state["config"]), dictionary)
        store._placement = {int(pid): int(shard) for pid, shard in state["placement"].items()}
        return store
