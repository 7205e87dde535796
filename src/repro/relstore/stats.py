"""Table statistics and cardinality estimation for the relational store.

The planner uses these statistics to order joins and to decide between index
lookups and partition scans; the tuner uses them to estimate the benefit of
moving a partition without executing anything (``estimate_only`` mode).
The stores keep them current with :class:`MaintainedStatistics`, which
recomputes only the predicates whose write stamp moved since the last read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.rdf.terms import IRI, Variable
from repro.sparql.ast import SelectQuery, TriplePattern

if TYPE_CHECKING:  # annotations only: columnar.py imports this module
    from repro.relstore.columnar import ColumnarTripleTable

__all__ = ["PredicateStatistics", "TableStatistics", "MaintainedStatistics"]


@dataclass(frozen=True)
class PredicateStatistics:
    """Per-predicate statistics used for selectivity estimation.

    ``max_subject_rows`` / ``max_object_rows`` record the *largest* point
    lookup the predicate can serve (the hottest key's row count).  They feed
    the planner's skew guard: under heavy skew the average lookup size wildly
    underprices the lookups that actually dominate a batched join.
    """

    cardinality: int
    distinct_subjects: int
    distinct_objects: int
    max_subject_rows: int
    max_object_rows: int

    @property
    def avg_fanout(self) -> float:
        """Average objects per subject (≥ 1 when the predicate exists)."""
        if self.distinct_subjects == 0:
            return 0.0
        return self.cardinality / self.distinct_subjects

    @property
    def avg_fanin(self) -> float:
        """Average subjects per object."""
        if self.distinct_objects == 0:
            return 0.0
        return self.cardinality / self.distinct_objects

    @property
    def subject_lookup_rows(self) -> int:
        """Expected rows of one ``(predicate, subject)`` point lookup.

        The distinct-count estimate ``cardinality / distinct_subjects``,
        rounded and floored at one row — what an index-path plan step should
        be priced at instead of the whole partition's cardinality.
        """
        if self.cardinality == 0:
            return 0
        return max(1, int(round(self.avg_fanout)))

    @property
    def object_lookup_rows(self) -> int:
        """Expected rows of one ``(predicate, object)`` point lookup."""
        if self.cardinality == 0:
            return 0
        return max(1, int(round(self.avg_fanin)))


@dataclass
class TableStatistics:
    """Statistics snapshot for a :class:`~repro.relstore.columnar.ColumnarTripleTable`."""

    total_rows: int
    per_predicate: Dict[IRI, PredicateStatistics]

    def predicate_cardinality(self, predicate: IRI) -> int:
        stats = self.per_predicate.get(predicate)
        return stats.cardinality if stats else 0

    def cardinalities(self) -> Dict[IRI, int]:
        return {p: s.cardinality for p, s in self.per_predicate.items()}

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_index_rows(self, pattern: TriplePattern, access_path: str) -> int:
        """Point-lookup estimate for an index-path plan step.

        Uses the per-predicate distinct counts: an ``index_subject`` step is
        expected to touch ``cardinality / distinct_subjects`` rows, an
        ``index_object`` step ``cardinality / distinct_objects``.  Returns 0
        for unknown predicates (the lookup cannot match anything).
        """
        if not isinstance(pattern.predicate, IRI):
            return 0
        stats = self.per_predicate.get(pattern.predicate)
        if stats is None:
            return 0
        if access_path == "index_subject":
            return stats.subject_lookup_rows
        return stats.object_lookup_rows

    def estimate_index_rows_worst(self, pattern: TriplePattern, access_path: str) -> int:
        """Worst-case row count of an index-path plan step (the hottest key).

        The planner's skew guard compares this against the average estimate:
        when the gap is large, pricing every lookup at the average picks
        plans that are optimal for typical keys and pessimal for the keys a
        batched join actually spends its time on.
        """
        if not isinstance(pattern.predicate, IRI):
            return 0
        stats = self.per_predicate.get(pattern.predicate)
        if stats is None:
            return 0
        if access_path == "index_subject":
            return stats.max_subject_rows
        return stats.max_object_rows

    def estimate_pattern_rows(self, pattern: TriplePattern) -> int:
        """Estimated number of rows matching a single triple pattern."""
        if isinstance(pattern.predicate, IRI):
            stats = self.per_predicate.get(pattern.predicate)
            if stats is None:
                return 0
            rows = stats.cardinality
            if not isinstance(pattern.subject, Variable):
                rows = max(1, int(round(stats.avg_fanout)))
            if not isinstance(pattern.object, Variable):
                rows = max(1, int(round(stats.avg_fanin)))
            return rows
        # Unbound predicate: every row is a candidate.
        rows = self.total_rows
        if not isinstance(pattern.subject, Variable) or not isinstance(pattern.object, Variable):
            rows = max(1, rows // max(1, len(self.per_predicate)))
        return rows

    def estimate_query_work(self, query: SelectQuery) -> float:
        """Rough relational work units (rows touched) for a whole query.

        The estimate sums per-pattern scans and models each join as producing
        the smaller side's cardinality scaled by a fan-out factor.  It is
        deliberately simple — enough to rank plans and to let the tuner score
        partitions without execution.
        """
        pattern_rows = [self.estimate_pattern_rows(p) for p in query.patterns]
        if not pattern_rows:
            return 0.0
        scan_work = float(sum(pattern_rows))
        ordered = sorted(pattern_rows)
        intermediate = float(ordered[0])
        join_work = 0.0
        for rows in ordered[1:]:
            intermediate = min(intermediate * 1.2, float(intermediate + rows))
            join_work += intermediate
        return scan_work + join_work


class MaintainedStatistics:
    """A table's statistics, brought up to date lazily after mutations.

    Each per-predicate entry records the predicate's write stamp
    (:meth:`~repro.relstore.columnar.ColumnarTripleTable.write_stamp`: its
    block's serial, which moves with every write to the predicate and never
    repeats) and is kept for as long as that stamp stands; only the
    predicates written since the last call are recomputed, from their
    blocks.  Values equal statistics collected from scratch over the same
    rows (``collect_statistics`` of ``tests/relational_oracle.py``).
    ``generation`` is the owning store's plan generation, so a call between
    mutations is one comparison.
    """

    def __init__(self, table: "ColumnarTripleTable"):
        self._table = table
        #: (generation it is current for, statistics, stamp per entry) — one
        #: value, so concurrent readers refreshing at once each swap in a
        #: whole state.
        self._state: Tuple[int, Optional[TableStatistics], Dict[IRI, int]] = (-1, None, {})

    def current(self, generation: int) -> TableStatistics:
        state_generation, statistics, stamps = self._state
        if state_generation == generation:
            return statistics
        table = self._table
        per_predicate: Dict[IRI, PredicateStatistics] = {}
        fresh_stamps: Dict[IRI, int] = {}
        for predicate in table.predicates():
            predicate_id = table.dictionary.lookup(predicate)
            stamp = table.write_stamp(predicate_id)
            fresh_stamps[predicate] = stamp
            if stamps.get(predicate) == stamp:
                per_predicate[predicate] = statistics.per_predicate[predicate]
            else:
                per_predicate[predicate] = table.predicate_statistics(predicate_id)
        statistics = TableStatistics(total_rows=len(table), per_predicate=per_predicate)
        self._state = (generation, statistics, fresh_stamps)
        return statistics
