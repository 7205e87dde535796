"""Graph store facade (the Neo4j stand-in of the dual-store structure).

The graph store is the *accelerator*: it holds only the triple partitions the
tuner has transferred, is bounded by a storage budget ``B_G``, is expensive to
bulk-load (the paper's reason for not keeping the master copy here), and is
fast for complex queries thanks to index-free adjacency.

A resident partition is a :class:`~repro.relstore.columnar.ColumnBlock` — the
subject and object id columns of the master copy, over the dictionary the
store shares with it — and its memoized group indexes are the adjacency the
matcher (:mod:`repro.graphstore.matcher`) traverses.  A transfer hands over
the block the master copy holds; since blocks are replaced on write and never
changed, the replica stays the partition *as transferred* while the master
copy moves on, and eviction drops the reference.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import StorageBudgetExceeded, StorageError, UnknownPartitionError
from repro.execution import ExecutionResult
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Triple
from repro.relstore.columnar import ColumnBlock
from repro.sparql.ast import SelectQuery, TriplePattern

from repro.graphstore.matcher import match_query

__all__ = ["GraphStore"]


class GraphStore:
    """A budget-constrained, partition-granular native graph store.

    Parameters
    ----------
    storage_budget:
        Maximum number of triples the store may hold (the paper's ``B_G``).
        ``None`` means unbounded (useful for the standalone Table 1 sweep).
    cost_model:
        Prices traversal work and bulk imports.
    throttle:
        Optional :class:`ResourceThrottle` modelling limited spare IO/CPU
        (Section 6.3.3); scales query latency and records Figure 7 samples.
    dictionary:
        The term dictionary partitions are encoded against: the master
        copy's, so transferred blocks keep their meaning (``None`` gives a
        standalone store its own).
    """

    def __init__(
        self,
        storage_budget: Optional[int] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        throttle: Optional[ResourceThrottle] = None,
        dictionary: Optional[TermDictionary] = None,
    ):
        if storage_budget is not None and storage_budget < 0:
            raise StorageError("storage budget must be non-negative")
        self.storage_budget = storage_budget
        self.cost_model = cost_model
        self.throttle = throttle
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        #: predicate -> resident block, in residency (insertion) order.
        self._partitions: Dict[IRI, ColumnBlock] = {}
        self.total_import_seconds = 0.0
        self.import_count = 0
        # Serializes the budget check with the partition insert/removal it
        # guards.  Without it, two concurrent apply_moves (e.g. two tuning
        # daemons sharing one store) can both pass `fits()` and together
        # overshoot the budget — a re-entrant lock because an idempotent
        # partition refresh evicts from inside load_partition.
        self._budget_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Partition management
    # ------------------------------------------------------------------ #
    @property
    def loaded_predicates(self) -> Set[IRI]:
        """Predicates whose partitions currently live in the graph store."""
        with self._budget_lock:
            return set(self._partitions)

    def partition_size(self, predicate: IRI) -> int:
        return self.partition_block(predicate).count

    def partition_block(self, predicate: IRI) -> ColumnBlock:
        """The resident replica of one partition."""
        try:
            return self._partitions[predicate]
        except KeyError:
            raise UnknownPartitionError(f"partition {predicate.value!r} is not loaded") from None

    def replica_stamp(self, predicate: IRI) -> Optional[int]:
        """The resident replica's block serial (its contents), or ``None``
        when the partition is not resident."""
        block = self._partitions.get(predicate)
        return block.serial if block is not None else None

    def used_capacity(self) -> int:
        """Triples currently stored."""
        with self._budget_lock:
            return sum(block.count for block in self._partitions.values())

    def remaining_capacity(self) -> Optional[int]:
        """Triples that still fit, or ``None`` when unbounded."""
        if self.storage_budget is None:
            return None
        return self.storage_budget - self.used_capacity()

    def fits(self, triple_count: int) -> bool:
        remaining = self.remaining_capacity()
        return remaining is None or triple_count <= remaining

    def load_partition(self, predicate: IRI, triples: Iterable[Triple]) -> float:
        """Bulk-import one partition given as triples (encoded against this
        store's dictionary, a repeated triple once); returns the import
        latency.  Raises like :meth:`load_block`, and :class:`StorageError`
        if a triple's predicate differs from ``predicate``."""
        staged = list(triples)
        for triple in staged:
            if triple.predicate != predicate:
                raise StorageError(
                    f"triple predicate {triple.predicate.value!r} does not belong to partition {predicate.value!r}"
                )
        encode = self.dictionary.encode
        with self._budget_lock:  # concurrent loaders must not race on new ids
            pairs = list(dict.fromkeys((encode(t.subject), encode(t.object)) for t in staged))
            columns = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            subjects, objects = columns[:, 0].copy(), columns[:, 1].copy()
            return self.load_block(predicate, ColumnBlock.of(subjects, objects, len(pairs)))

    def load_block(self, predicate: IRI, block: ColumnBlock) -> float:
        """Make ``block`` (ids of this store's dictionary, each (subject,
        object) pair once) the resident partition of ``predicate``; returns
        the import latency.

        Raises
        ------
        StorageBudgetExceeded
            If the partition does not fit in the remaining budget.  Nothing is
            loaded in that case.
        """
        # Budget check and partition insert form one atomic section: two
        # concurrent loads must serialize here, or both could observe enough
        # remaining capacity and together exceed the budget.
        with self._budget_lock:
            if predicate in self._partitions:
                # Re-loading an existing partition replaces it (idempotent refresh).
                self.evict_partition(predicate)
            if not self.fits(block.count):
                raise StorageBudgetExceeded(
                    f"partition {predicate.value!r} ({block.count} triples) exceeds the remaining "
                    f"graph-store budget ({self.remaining_capacity()} triples)"
                )
            self._partitions[predicate] = block
            # Accounting stays inside the lock: the += read-modify-writes
            # would otherwise lose updates under the same two-loader
            # concurrency the lock exists for — and the corrupted totals
            # would be persisted verbatim by snapshot_state().
            seconds = self.cost_model.graph_import_seconds(block.count)
            if self.throttle is not None:
                seconds = self.throttle.apply(seconds)
            self.total_import_seconds += seconds
            self.import_count += 1
        return seconds

    def evict_partition(self, predicate: IRI) -> int:
        """Remove one partition; returns the number of triples evicted."""
        with self._budget_lock:
            if predicate not in self._partitions:
                raise UnknownPartitionError(f"partition {predicate.value!r} is not loaded")
            return self._partitions.pop(predicate).count

    def clear(self) -> None:
        """Evict everything (used when re-initialising an experiment)."""
        with self._budget_lock:
            for predicate in list(self._partitions):
                self.evict_partition(predicate)

    def __len__(self) -> int:
        return self.used_capacity()

    # ------------------------------------------------------------------ #
    # Coverage checks used by the query processor
    # ------------------------------------------------------------------ #
    def covers(self, predicates: Iterable[IRI]) -> bool:
        """True when every given predicate's partition is loaded."""
        return set(predicates) <= self.loaded_predicates

    def covers_query(self, query: SelectQuery) -> bool:
        return self.covers(query.predicates())

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SelectQuery,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """Evaluate a query whose predicates are all loaded.

        Raises
        ------
        StorageError
            When some predicate of the query has not been transferred; the
            query processor is responsible for routing such queries to the
            relational store instead.
        """
        missing = query.predicates() - self.loaded_predicates
        if missing:
            names = ", ".join(sorted(p.value for p in missing))
            raise StorageError(f"graph store does not hold partitions for: {names}")
        result = match_query(query, self._partitions, self.dictionary, pattern_order)
        seconds = self.cost_model.graph_query_seconds(result.counters)
        if self.throttle is not None:
            seconds = self.throttle.apply(seconds)
        result.seconds = seconds
        result.store = "graph"
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def partition_sizes(self) -> Dict[IRI, int]:
        with self._budget_lock:
            return {predicate: block.count for predicate, block in self._partitions.items()}

    def predicates(self) -> List[IRI]:
        with self._budget_lock:
            return sorted(self._partitions, key=lambda p: p.value)

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """JSON-serializable accelerator bookkeeping.

        Records the residency list **in insertion order** (dict order of
        ``_partitions``) plus budget/import accounting.  The partition
        *contents* are serialized separately by :mod:`repro.persist` from the
        resident blocks themselves — a resident replica is the partition *as
        it was transferred* and may legitimately lag the master copy (writes
        go to the relational store only), so refeeding it from the restored
        master would silently change it.
        """
        with self._budget_lock:
            return {
                "resident": [predicate.value for predicate in self._partitions],
                "storage_budget": self.storage_budget,
                "total_import_seconds": self.total_import_seconds,
                "import_count": self.import_count,
            }

    def restore_state(self, state: dict, partition_source: Callable[[IRI], ColumnBlock]) -> None:
        """Refill an empty store from :meth:`snapshot_state`.

        ``partition_source`` maps a predicate to the exact replica block
        recorded in the snapshot (read by :mod:`repro.persist`).  Import
        accounting is restored from the snapshot rather than re-charged: a
        warm restart did not physically re-import anything in the
        modelled-cost world, and the throttle (if any) must not observe
        phantom imports.
        """
        if self._partitions:
            raise StorageError("restore_state requires an empty graph store")
        with self._budget_lock:
            self.storage_budget = state["storage_budget"]
            for value in state["resident"]:
                predicate = IRI(value)
                self._partitions[predicate] = partition_source(predicate)
            self.total_import_seconds = float(state["total_import_seconds"])
            self.import_count = int(state["import_count"])
