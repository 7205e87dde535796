"""Join planning for the relational executor.

The planner turns a basic graph pattern into an ordered list of
:class:`PatternAccess` steps.  Each step records the access path the executor
must use:

* ``index_subject`` / ``index_object`` — a point lookup on the
  (predicate, subject) or (predicate, object) index, available when that
  position is a constant.
* ``partition_scan`` — a range scan over one predicate partition (the common
  case for the paper's complex queries, whose patterns have a concrete
  predicate but variable subject and object).
* ``table_scan`` — a full scan, needed when the predicate itself is a
  variable.

Steps are ordered greedily by estimated cardinality so joins stay as small as
possible, mirroring what a relational optimizer with per-predicate statistics
would do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Sequence

from repro.rdf.terms import IRI, Variable
from repro.sparql.ast import SelectQuery, TriplePattern
from repro.sparql.algebra import order_patterns_greedily

from repro.relstore.stats import TableStatistics

__all__ = ["AccessPath", "PatternAccess", "RelationalPlan", "plan_query"]

AccessPath = Literal["index_subject", "index_object", "partition_scan", "table_scan"]


@dataclass(frozen=True)
class PatternAccess:
    """One step of the plan: a pattern plus its chosen access path."""

    pattern: TriplePattern
    access_path: AccessPath
    estimated_rows: int


@dataclass(frozen=True)
class RelationalPlan:
    """An ordered sequence of pattern accesses for one query."""

    steps: tuple[PatternAccess, ...]

    def estimated_work(self) -> float:
        """Sum of estimated rows over every step (a plan-quality heuristic)."""
        return float(sum(step.estimated_rows for step in self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


#: The point-lookup skew guard.  The average lookup size
#: (``cardinality / distinct_keys``) underprices skewed predicates, where the
#: hottest key holds most of the partition: greedy ordering then front-loads a
#: step that is "selective" on average but explodes on exactly the keys a join
#: actually probes (a batched kernel materializes the whole blowup at once).
#: When the worst-case lookup exceeds ``SKEW_GUARD`` times the average,
#: ``SKEW_BLEND`` of the gap is added to the step's estimate.
SKEW_GUARD = 4.0
SKEW_BLEND = 0.5


def _skew_penalty(
    statistics: TableStatistics, pattern: TriplePattern, access_path: AccessPath
) -> int:
    """Extra expected rows charged to a skew-prone point lookup."""
    average = statistics.estimate_index_rows(pattern, access_path)
    worst = statistics.estimate_index_rows_worst(pattern, access_path)
    if worst > SKEW_GUARD * max(1, average):
        return int(round(SKEW_BLEND * (worst - average)))
    return 0


def _choose_access_path(pattern: TriplePattern) -> AccessPath:
    if not isinstance(pattern.predicate, IRI):
        return "table_scan"
    if not isinstance(pattern.subject, Variable):
        return "index_subject"
    if not isinstance(pattern.object, Variable):
        return "index_object"
    return "partition_scan"


def plan_query(
    query: SelectQuery,
    statistics: TableStatistics,
    pattern_order: Sequence[TriplePattern] | None = None,
) -> RelationalPlan:
    """Build a left-deep plan for ``query`` using ``statistics``.

    ``pattern_order`` overrides the greedy ordering (used by the naive-order
    ablation benchmark).
    """

    def expected_rows(pattern: TriplePattern) -> int:
        """Per-pattern row estimate, priced the way the executors actually
        run the step: index paths touch the point-lookup row count from the
        per-predicate distinct-count statistics — plus the skew penalty when
        the hottest key dwarfs the average — not the whole partition."""
        access_path = _choose_access_path(pattern)
        estimated = statistics.estimate_pattern_rows(pattern)
        if access_path in ("index_subject", "index_object"):
            estimated = min(estimated, statistics.estimate_index_rows(pattern, access_path))
            estimated += _skew_penalty(statistics, pattern, access_path)
        return estimated

    if pattern_order is None:
        ordered = order_patterns_greedily(
            query.patterns, cardinality=statistics.cardinalities(), estimate=expected_rows
        )
    else:
        ordered = list(pattern_order)

    steps: List[PatternAccess] = []
    for pattern in ordered:
        access_path = _choose_access_path(pattern)
        steps.append(
            PatternAccess(
                pattern=pattern, access_path=access_path, estimated_rows=expected_rows(pattern)
            )
        )
    return RelationalPlan(steps=tuple(steps))
