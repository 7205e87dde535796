"""The protocol every relational master-copy implementation satisfies.

The dual-store structure only needs a narrow surface from its relational
side: bulk loading, cheap inserts, partition extraction, statistics, and
work-accounted query execution.  :class:`RelationalBackend` names that
surface so :class:`~repro.core.dualstore.DualStore` and
:class:`~repro.core.processor.QueryProcessor` can run against either the
single-table :class:`~repro.relstore.store.RelationalStore` or its sharded
subclass :class:`~repro.relstore.sharded.ShardedRelationalStore` without
caring which one is underneath.

The protocol is ``runtime_checkable`` so tests can assert conformance, but
it is structural: any object with these members works.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.cost.model import CostModel
from repro.execution import ExecutionResult, ResultTable
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import TripleSet
from repro.rdf.terms import IRI, Triple
from repro.relstore.columnar import ColumnBlock
from repro.relstore.planner import RelationalPlan
from repro.relstore.stats import TableStatistics
from repro.sparql.ast import SelectQuery, TriplePattern

__all__ = ["RelationalBackend"]


@runtime_checkable
class RelationalBackend(Protocol):
    """Structural interface of a relational master copy.

    Implementations: :class:`~repro.relstore.store.RelationalStore` (one
    triple table) and :class:`~repro.relstore.sharded.ShardedRelationalStore`
    (the same table with a shard placement map, priced as N shards probing
    in parallel).
    """

    cost_model: CostModel
    total_insert_seconds: float
    #: The term dictionary the stored ids mean; the graph store shares it.
    dictionary: TermDictionary

    # Loading and updates ---------------------------------------------- #
    def load(self, triples: Iterable[Triple] | TripleSet) -> float: ...

    def insert(self, triples: Iterable[Triple]) -> float: ...

    def delete(self, triple: Triple) -> bool: ...

    def delete_all(self, triples: Iterable[Triple]) -> int: ...

    def __len__(self) -> int: ...

    # Metadata ---------------------------------------------------------- #
    def predicates(self) -> List[IRI]: ...

    def partition(self, predicate: IRI) -> List[Triple]: ...

    def partition_block(self, predicate: IRI) -> ColumnBlock: ...

    def partition_size(self, predicate: IRI) -> int: ...

    def partition_sizes(self) -> Dict[IRI, int]: ...

    def statistics(self) -> TableStatistics: ...

    # Query execution --------------------------------------------------- #
    def plan(
        self, query: SelectQuery, pattern_order: Sequence[TriplePattern] | None = None
    ) -> RelationalPlan: ...

    def execute(
        self,
        query: SelectQuery,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult: ...

    def execute_capped(
        self, query: SelectQuery, work_budget: float
    ) -> Tuple[Optional[ExecutionResult], float]: ...

    # Estimation -------------------------------------------------------- #
    def estimate_query_seconds(self, query: SelectQuery) -> float: ...
