"""Metrics and result records used by experiments and benchmarks.

The paper's primary metric is *time-to-insight* (TTI): the total elapsed time
from submitting a batch of workload queries to their completion.  The offline
training effect is measured by the summed Q-matrix of all partitions.
These records capture both, per query, per batch, and per workload run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.cost.counters import WorkCounters
from repro.sparql.ast import SelectQuery

__all__ = ["QueryRecord", "BatchResult", "WorkloadResult", "improvement_percent"]


@dataclass
class QueryRecord:
    """The outcome of one online query execution."""

    query: SelectQuery
    seconds: float
    route: str
    result_count: int
    counters: WorkCounters = field(default_factory=WorkCounters)
    graph_seconds: float = 0.0
    relational_seconds: float = 0.0
    migration_seconds: float = 0.0
    had_complex_subquery: bool = False
    #: True when the record was served by the caching layer (result-cache hit
    #: or within-batch deduplication) instead of a fresh store execution.  The
    #: modelled ``seconds`` still price the underlying execution, so TTI-based
    #: experiments stay comparable whether or not a cache sits in front.
    from_cache: bool = False

    def replicate(self, from_cache: bool = True) -> "QueryRecord":
        """A per-submission copy of this record for cached/deduplicated serving.

        The serving layer must emit one record per *submitted* query even when
        several submissions share a single execution; sharing the mutable
        counters object across records would double-count work, so the copy
        gets its own counters.
        """
        return replace(self, counters=self.counters.copy(), from_cache=from_cache)


@dataclass
class BatchResult:
    """TTI and per-query details for one batch of the workload."""

    index: int
    records: List[QueryRecord] = field(default_factory=list)

    @property
    def tti(self) -> float:
        """Time-to-insight: total latency of the batch."""
        return sum(record.seconds for record in self.records)

    @property
    def graph_seconds(self) -> float:
        return sum(record.graph_seconds for record in self.records)

    @property
    def relational_seconds(self) -> float:
        return sum(record.relational_seconds for record in self.records)

    @property
    def graph_cost_share(self) -> float:
        """Fraction of the batch cost spent in the graph store (Figure 6)."""
        total = self.tti
        if total <= 0.0:
            return 0.0
        return self.graph_seconds / total

    def route_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.route] = counts.get(record.route, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class WorkloadResult:
    """The outcome of running a whole workload (several batches)."""

    label: str
    batches: List[BatchResult] = field(default_factory=list)
    qmatrix_sum: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    @property
    def total_tti(self) -> float:
        return sum(batch.tti for batch in self.batches)

    def batch_ttis(self) -> List[float]:
        return [batch.tti for batch in self.batches]

    def graph_cost_shares(self) -> List[float]:
        return [batch.graph_cost_share for batch in self.batches]

    def record_count(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def summary(self) -> Dict[str, float]:
        return {
            "total_tti": self.total_tti,
            "batches": float(len(self.batches)),
            "queries": float(self.record_count()),
        }


def improvement_percent(baseline: float, improved: float) -> float:
    """Percentage improvement of ``improved`` over ``baseline``.

    Positive values mean ``improved`` is faster.  This is the quantity behind
    the paper's headline "up to average 43.72%" figure.
    """
    if baseline <= 0.0:
        return 0.0
    return (baseline - improved) / baseline * 100.0
