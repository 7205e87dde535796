"""The dual-store structure: relational master copy + graph-store accelerator.

:class:`DualStore` wires together everything in Figure 1 of the paper:

* the relational store holding the entire knowledge graph,
* the budget-constrained graph store holding transferred partitions,
* the complex subquery identifier,
* the query processor, and
* the bookkeeping (:class:`~repro.core.partitions.DualStoreDesign`) that the
  tuner manipulates.

The tuner itself is a separate object (DOTIL or one of the baselines) that
operates *on* a DualStore; this keeps the storage structure reusable across
tuning policies, which is exactly what the tuner-comparison experiment needs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import TuningError
from repro.execution import ExecutionResult
from repro.lru import LRUCache
from repro.rdf.dictionary import triple_to_payload
from repro.rdf.graph import TripleSet
from repro.rdf.terms import IRI, Triple
from repro.relstore.executor import relational_work_units
from repro.relstore.sharded import ShardedRelationalStore, ShardingConfig
from repro.relstore.store import RelationalStore
from repro.graphstore.store import GraphStore
from repro.sparql.ast import SelectQuery

from repro.core.config import DEFAULT_CONFIG, DotilConfig
from repro.core.identifier import ComplexSubquery, ComplexSubqueryIdentifier
from repro.core.partitions import DualStoreDesign
from repro.core.processor import ProcessedQuery, QueryProcessor

__all__ = ["DualStore", "MoveReceipt"]


@dataclass
class MoveReceipt:
    """What one batched physical-design change (:meth:`DualStore.apply_moves`)
    actually did, with symmetric modelled cost accounting for both directions."""

    transferred: List[IRI] = field(default_factory=list)
    evicted: List[IRI] = field(default_factory=list)
    import_seconds: float = 0.0
    evict_seconds: float = 0.0

    @property
    def moves(self) -> int:
        """Total physical moves applied (transfers plus evictions)."""
        return len(self.transferred) + len(self.evicted)

    @property
    def seconds(self) -> float:
        """Total modelled cost of the batch (imports plus evictions)."""
        return self.import_seconds + self.evict_seconds


class DualStore:
    """The dual-store structure for knowledge graphs.

    Parameters
    ----------
    config:
        The structure/tuner configuration (the graph-store budget is derived
        from ``config.r_bg`` at load time).
    cost_model:
        Latency model shared by both stores and the query processor.
    throttle:
        Optional resource throttle applied to the graph store (Section 6.3.3
        experiments).
    storage_budget:
        Explicit budget in triples; overrides ``config.r_bg`` when given.
    shards:
        When given, the relational master copy is a
        :class:`~repro.relstore.sharded.ShardedRelationalStore` with that
        many modelled shards (the same answers, order and logical work as
        the unsharded store, priced as a parallel scatter-gather;
        ``shards=1`` builds a degenerate one-shard store that prices like
        the unsharded one but still reports a scatter breakdown).
    sharding:
        Placement tunables for the sharded store; giving only this builds a
        sharded store with :class:`ShardedRelationalStore`'s own default
        shard count.
    relational_store:
        An already-built :class:`~repro.relstore.store.RelationalStore` (or
        sharded store) to use instead of constructing one (overrides
        ``shards``/``sharding``; the caller is responsible for matching cost
        models).
    """

    def __init__(
        self,
        config: DotilConfig = DEFAULT_CONFIG,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        throttle: Optional[ResourceThrottle] = None,
        storage_budget: Optional[int] = None,
        shards: Optional[int] = None,
        sharding: Optional[ShardingConfig] = None,
        relational_store: Optional[RelationalStore] = None,
    ):
        self.config = config
        self.cost_model = cost_model
        if relational_store is not None:
            self.relational: RelationalStore = relational_store
        elif shards is not None:
            self.relational = ShardedRelationalStore(
                shards=shards, cost_model=cost_model, config=sharding
            )
        elif sharding is not None:
            self.relational = ShardedRelationalStore(cost_model=cost_model, config=sharding)
        else:
            self.relational = RelationalStore(cost_model=cost_model)
        self.graph = GraphStore(
            storage_budget=storage_budget,
            cost_model=cost_model,
            throttle=throttle,
            dictionary=self.relational.dictionary,
        )
        self.identifier = ComplexSubqueryIdentifier()
        self.processor = QueryProcessor(self.relational, self.graph, cost_model=cost_model)
        self.design: Optional[DualStoreDesign] = None
        self._explicit_budget = storage_budget
        self.transfer_log: List[Tuple[str, IRI]] = []
        #: Monotonic counter bumped on every mutation (load/insert/delete/
        #: transfer/evict): the store's version for replication and the wire
        #: — the write-ahead log, snapshots, followers and the endpoint's
        #: ``X-Repro-Generation``.  No cache reads it: a cache entry carries
        #: the :meth:`read_stamp` of what it read.
        self.generation: int = 0
        #: Mutation listeners receive the *content* of each generation bump —
        #: the ordered op payloads that produced it.  This is the seam the
        #: write-ahead delta log (:mod:`repro.persist.wal`) attaches to; op
        #: payloads are only collected while at least one listener is
        #: registered, so the listener-free path stays allocation-free and
        #: streaming.
        self._mutation_listeners: List[Callable[[List[dict], int], None]] = []
        self._pending_ops: List[dict] = []
        # Batched-mutation state (see batch_mutations): while the depth is
        # positive, generation bumps are coalesced into one fired at exit.
        self._batch_depth: int = 0
        self._batched_bump_pending: bool = False
        #: The tuner's and the tuning daemon's prices, keyed by
        #: ``(kind, query)`` and kept under what they read (see
        #: :meth:`graph_cost`): three kinds for each of up to ~170 distinct
        #: queries (a 256-submission window holds a few dozen).  Nothing of
        #: it is persisted: a restored store starts cold.
        self.pricing: LRUCache[Tuple[str, SelectQuery], object] = LRUCache(512, "pricing memo")

    # ------------------------------------------------------------------ #
    # Mutation generations (consumed by repro.persist)
    # ------------------------------------------------------------------ #
    def add_mutation_listener(self, listener: Callable[[List[dict], int], None]) -> None:
        """Register a callback invoked with ``(ops, generation)`` after every
        generation bump.  ``ops`` is the ordered list of JSON-serializable op
        payloads the bump coalesced (one per mutation inside a
        :meth:`batch_mutations` block, one total otherwise); an empty list
        means the bump came from a mutation the op vocabulary cannot
        represent (e.g. a re-``load``).  Listeners must not raise — an
        exception would propagate out of the mutation that committed
        successfully."""
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: Callable[[List[dict], int], None]) -> None:
        self._mutation_listeners.remove(listener)

    def _record_op(self, op: dict) -> None:
        if self._mutation_listeners:
            self._pending_ops.append(op)

    def _bump_generation(self) -> None:
        if self._batch_depth > 0:
            self._batched_bump_pending = True
            return
        self.generation += 1
        if self._mutation_listeners:
            ops, self._pending_ops = self._pending_ops, []
            for listener in self._mutation_listeners:
                listener(ops, self.generation)
        elif self._pending_ops:
            # The last listener detached mid-collection; drop the orphans so
            # they cannot leak into a later listener's first event.
            self._pending_ops = []

    @contextmanager
    def batch_mutations(self) -> Iterator["DualStore"]:
        """Coalesce the generation bumps of several mutations into one.

        Inside the context, mutations (``insert``/``transfer_partition``/
        ``evict_partition``) take full physical effect immediately but do not
        bump :attr:`generation`; on exit, if any mutation happened, the
        generation advances **once** and the mutation listeners hear **one**
        event carrying every op.  This is what lets a tuning epoch of k moves
        cost the write-ahead log one record instead of k.

        The usual mutation contract still applies — and is load-bearing here:
        no query may execute concurrently with the context, because until the
        exit bump a concurrent execution would be tagged with the pre-batch
        generation while observing mid-batch store state.  The serving layer
        guarantees exclusivity: ``QueryService.tune_now()`` runs the epoch
        under the write side of its read/write gate.  Nesting is allowed; only
        the outermost exit fires.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batched_bump_pending:
                self._batched_bump_pending = False
                self._bump_generation()

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def load(self, knowledge_graph: TripleSet | Iterable[Triple]) -> "DualStore":
        """Load the entire knowledge graph into the relational store.

        The graph store starts empty (the paper's cold start); its budget is
        ``r_bg`` times the knowledge-graph size unless an explicit budget was
        supplied.
        """
        triples = knowledge_graph if isinstance(knowledge_graph, TripleSet) else TripleSet(knowledge_graph)
        self.relational.load(triples)
        sizes = self.relational.partition_sizes()
        budget = self._explicit_budget
        if budget is None:
            budget = int(self.config.r_bg * len(triples))
        self.graph.storage_budget = budget
        self.design = DualStoreDesign.from_sizes(sizes, storage_budget=budget)
        self._bump_generation()
        return self

    def insert(self, triples: Iterable[Triple]) -> float:
        """Insert new knowledge (goes to the relational master copy only)."""
        if self._mutation_listeners and not isinstance(triples, (list, tuple)):
            triples = list(triples)  # the op payload needs a second pass
        seconds = self.relational.insert(triples)
        if self.design is not None:
            self.design.partition_sizes = self.relational.partition_sizes()
        if self._mutation_listeners:
            self._record_op({"op": "insert", "t": [triple_to_payload(t) for t in triples]})
        self._bump_generation()
        return seconds

    def delete(self, triples: Iterable[Triple]) -> int:
        """Remove triples from the relational master copy; returns how many
        were actually present and removed.

        Symmetric with :meth:`insert`: the graph store's replicas are not
        touched — a resident partition legitimately lags the master copy
        until the tuner re-transfers it.  The batch is applied at once: each
        touched block is replaced once.  Deleting an absent triple is a no-op
        for that triple, but the call still bumps the generation (callers
        asked for a mutation, and the write-ahead log records it).
        """
        self._require_loaded()
        if not isinstance(triples, (list, tuple)):
            triples = list(triples)
        removed = self.relational.delete_all(triples)
        if self.design is not None:
            self.design.partition_sizes = self.relational.partition_sizes()
        if self._mutation_listeners:
            self._record_op({"op": "delete", "t": [triple_to_payload(t) for t in triples]})
        self._bump_generation()
        return removed

    # ------------------------------------------------------------------ #
    # Online query processing
    # ------------------------------------------------------------------ #
    def run_query(self, query: SelectQuery) -> ProcessedQuery:
        """Process one query online and return its routed execution."""
        self._require_loaded()
        complex_subquery = self.identifier.identify(query)
        return self.processor.process(query, complex_subquery)

    def identify(self, query: SelectQuery) -> Optional[ComplexSubquery]:
        return self.identifier.identify(query)

    # ------------------------------------------------------------------ #
    # Physical design changes (called by tuners)
    # ------------------------------------------------------------------ #
    def transfer_partition(self, predicate: IRI) -> float:
        """Replicate one partition into the graph store; returns import
        seconds.  The replica is the master copy's block itself: nothing is
        decoded or copied, and later writes replace the master's block, not
        the replica."""
        self._require_loaded()
        assert self.design is not None
        seconds = self.graph.load_block(predicate, self.relational.partition_block(predicate))
        self.design.mark_transferred(predicate)
        self.transfer_log.append(("transfer", predicate))
        self._record_op({"op": "transfer", "p": predicate.value})
        self._bump_generation()
        return seconds

    def evict_partition(self, predicate: IRI) -> float:
        """Remove one partition from the graph store; returns eviction seconds.

        Like :meth:`transfer_partition`, the return value is the *modelled*
        cost of the physical move (the tuning daemon accounts both directions
        symmetrically).  The number of triples removed is available via the
        partition sizes before eviction.
        """
        self._require_loaded()
        assert self.design is not None
        removed = self.graph.evict_partition(predicate)
        self.design.mark_evicted(predicate)
        self.transfer_log.append(("evict", predicate))
        self._record_op({"op": "evict", "p": predicate.value})
        self._bump_generation()
        return self.cost_model.graph_evict_seconds(removed)

    def transfer_partitions(self, predicates: Iterable[IRI]) -> float:
        """Transfer several partitions; returns the total import seconds.

        A known batch of moves, so it batches: one generation bump for the
        lot (see :meth:`apply_moves`)."""
        return self.apply_moves(transfers=predicates).import_seconds

    def apply_moves(
        self,
        transfers: Iterable[IRI] = (),
        evictions: Iterable[IRI] = (),
    ) -> MoveReceipt:
        """Apply a batch of physical-design moves under one generation bump.

        Evictions run first (they free budget for the incoming transfers),
        then transfers, all inside :meth:`batch_mutations` — so however many
        moves the batch contains, the generation advances once.  Returns a
        :class:`MoveReceipt` with the modelled cost of each direction.
        """
        self._require_loaded()
        receipt = MoveReceipt()
        with self.batch_mutations():
            for predicate in evictions:
                receipt.evict_seconds += self.evict_partition(predicate)
                receipt.evicted.append(predicate)
            for predicate in transfers:
                receipt.import_seconds += self.transfer_partition(predicate)
                receipt.transferred.append(predicate)
        return receipt

    # ------------------------------------------------------------------ #
    # Costs used by the tuner's reward computation and the tuning daemon
    # ------------------------------------------------------------------ #
    def read_stamp(self, query: SelectQuery, relational: bool = True, graph: bool = True) -> tuple:
        """Everything a routed execution of ``query`` reads, as one
        comparable value — the freshness rule of every cache in front of
        the store: the ``relational`` side's
        :meth:`RelationalStore.read_stamp` (the dictionary ids alone when
        ``relational`` is false) and the ``graph`` side's
        :meth:`GraphStore.read_stamp`.  Derived from store state, so a
        mutation by any path moves the stamp of exactly the queries that
        read what it changed.
        """
        stamp = self.relational.read_stamp(query, rows=relational)
        return stamp + self.graph.read_stamp(query) if graph else stamp

    def graph_cost(self, subquery: SelectQuery) -> Tuple[float, ExecutionResult]:
        """Cost ``c1`` of running a complex subquery in the graph store.

        This and the two prices below go through :attr:`pricing`: a query
        is executed once per :meth:`read_stamp` (a tuning epoch re-prices
        the same few distinct queries many times over), so a hit hands back
        the result object of the run it replays — read it, do not change it."""

        def run() -> Tuple[float, ExecutionResult]:
            result = self.graph.execute(subquery)
            return result.seconds, result

        stamp = self.read_stamp(subquery, relational=False)
        return self.pricing.memo(("graph", subquery), stamp, run)

    def counterfactual_relational_cost(self, subquery: SelectQuery, cap_seconds: float) -> float:
        """Cost ``c2``: the relational run capped at ``cap_seconds``.

        Mirrors the paper's parallel thread stopped at ``λ·c₁``: execution is
        given a work budget equivalent to the cap; if it finishes within the
        budget the true cost is returned, otherwise the cap itself.
        """

        def run() -> float:
            per_row = max(self.cost_model.relational_row_scan, 1e-12)
            work_budget = max(1.0, (cap_seconds - self.cost_model.relational_query_overhead) / per_row)
            result, seconds = self.relational.execute_capped(subquery, work_budget=work_budget)
            if result is None:
                return cap_seconds
            return min(seconds, cap_seconds)

        stamp = (cap_seconds, self.read_stamp(subquery, graph=False))
        return self.pricing.memo(("capped", subquery), stamp, run)

    def routed_seconds(self, query: SelectQuery) -> float:
        """Modelled seconds of serving ``query`` under the current placement
        (:meth:`run_query`'s routed execution, past every serving cache)."""
        return self.pricing.memo(
            ("routed", query), self.read_stamp(query), lambda: self.run_query(query).record.seconds
        )

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot(self, path, keep: int = 2):
        """Write an atomic, versioned snapshot of the whole dual store.

        Persists the term dictionary, the relational triple table (plus the
        shard placement when sharded), the graph store's residency and
        budget accounting, and the physical design, under a manifest
        carrying the format version, the store generation and every data
        file's SHA-256.  Pure read — the generation does not change.  The
        caller must hold the usual mutation exclusivity (the serving layer
        checkpoints under its writer gate), making the snapshot a consistent
        cut.  Returns the committed
        :class:`~repro.persist.SnapshotManifest`.
        """
        from repro.persist.snapshot import write_snapshot  # lazy: avoids an import cycle

        return write_snapshot(self, path, keep=keep)

    @classmethod
    def restore(
        cls,
        path,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        throttle: Optional[ResourceThrottle] = None,
    ) -> "DualStore":
        """Rebuild a dual store from the committed snapshot under ``path``
        plus the write-ahead log's tail, when the root has one
        (:func:`~repro.persist.wal.restore_with_log`).

        The restored store is execution-equivalent to the live one:
        byte-identical bindings, bit-identical work counters, identical
        generation, placement, and statistics (recomputed from the rows).
        The tuner configuration is read from the snapshot; the cost model
        and throttle are runtime concerns supplied by the caller.
        """
        from repro.persist.wal import restore_with_log  # lazy: avoids an import cycle

        return restore_with_log(path, cost_model=cost_model, throttle=throttle).dual

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def partition_sizes(self) -> Dict[IRI, int]:
        return self.relational.partition_sizes()

    def graph_coverage(self) -> float:
        """Fraction of the knowledge graph currently replicated in the graph store."""
        total = len(self.relational)
        if total == 0:
            return 0.0
        return self.graph.used_capacity() / total

    def _require_loaded(self) -> None:
        if self.design is None:
            raise TuningError("the dual store has no data; call load() first")

    # Convenience aliases used throughout the experiments -------------- #
    @property
    def storage_budget(self) -> int:
        return self.graph.storage_budget or 0

    def relational_work_for(self, query: SelectQuery) -> float:
        """Relational work units ``query`` costs, measured by executing it."""
        return relational_work_units(self.relational.execute(query).counters)
