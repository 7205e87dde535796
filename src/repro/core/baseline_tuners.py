"""Baseline tuning policies the paper compares DOTIL against (Section 6.4).

* **One-off mode** — foresees the *whole* workload, tunes the physical design
  once at the beginning, and never changes it again.
* **LRU policy** — after each batch, transfers the most frequent partitions of
  the historical workload, evicting the least recently used ones to make room.
* **Ideal mode** — foresees the *next* batch and tunes the design beforehand;
  this is DOTIL's unreachable upper bound.
* **Static (no-op) mode** — never transfers anything; the dual store behaves
  like RDB-only.  Useful as a sanity baseline in tests.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import List, Sequence

from repro.errors import StorageBudgetExceeded
from repro.rdf.terms import IRI

from repro.core.dualstore import DualStore
from repro.core.identifier import ComplexSubquery
from repro.core.tuner import BaseTuner, TuningReport

__all__ = ["OneOffTuner", "LRUTuner", "IdealTuner", "StaticTuner"]


def _partition_frequencies(subqueries: Sequence[ComplexSubquery]) -> Counter:
    """How many complex subqueries mention each predicate."""
    counts: Counter = Counter()
    for subquery in subqueries:
        for predicate in subquery.predicates:
            counts[predicate] += 1
    return counts


def _greedy_selection(dual: DualStore, ranked: List[IRI]) -> List[IRI]:
    """Pick partitions in ranked order while they fit the storage budget."""
    design = dual.design
    assert design is not None
    budget = design.storage_budget
    selected: List[IRI] = []
    used = 0
    for predicate in ranked:
        size = design.partition_sizes.get(predicate)
        if size is None:
            continue
        if used + size <= budget:
            selected.append(predicate)
            used += size
    return selected


def _apply_target_set(dual: DualStore, target: List[IRI], report: TuningReport) -> None:
    """Ensure the graph store holds ``target``, evicting only when needed.

    Resident partitions outside the target are kept as long as they fit; they
    are evicted (in reverse priority order) only to make room for missing
    target partitions.
    """
    design = dual.design
    assert design is not None
    target_set = set(target)
    missing = [p for p in target if p not in design.graph_partitions]
    needed = sum(design.partition_sizes.get(p, 0) for p in missing)

    if needed > design.remaining_budget():
        evictable = sorted(design.graph_partitions - target_set, key=lambda p: p.value)
        for predicate in evictable:
            if needed <= design.remaining_budget():
                break
            report.evict_seconds += dual.evict_partition(predicate)
            report.evicted.append(predicate)

    for predicate in target:
        if predicate in design.graph_partitions:
            report.kept.append(predicate)
            continue
        try:
            report.import_seconds += dual.transfer_partition(predicate)
            report.transferred.append(predicate)
        except StorageBudgetExceeded:
            report.kept.append(predicate)


class OneOffTuner(BaseTuner):
    """Tunes once, up front, using knowledge of the whole future workload."""

    name = "one-off"

    def __init__(self, dual: DualStore):
        super().__init__(dual)
        self._tuned = False

    def prepare(self, all_complex_subqueries: Sequence[ComplexSubquery]) -> None:
        if self._tuned:
            return
        frequencies = _partition_frequencies(all_complex_subqueries)
        design = self.dual.design
        assert design is not None
        # Rank by frequency per stored triple: frequently used, small partitions first.
        ranked = sorted(
            frequencies,
            key=lambda p: (-frequencies[p] / max(1, design.partition_sizes.get(p, 1)), p.value),
        )
        report = TuningReport()
        _apply_target_set(self.dual, _greedy_selection(self.dual, ranked), report)
        self._tuned = True

    def tune(
        self,
        recent: Sequence[ComplexSubquery],
        upcoming: Sequence[ComplexSubquery] | None = None,
    ) -> TuningReport:
        # Static after the initial tuning: the design never changes again.
        return TuningReport(kept=sorted(self.dual.design.graph_partitions, key=lambda p: p.value)
                            if self.dual.design else [])


class LRUTuner(BaseTuner):
    """Frequency-driven transfers with least-recently-used eviction."""

    name = "lru"

    def __init__(self, dual: DualStore):
        super().__init__(dual)
        self._history: Counter = Counter()
        self._recency: "OrderedDict[IRI, int]" = OrderedDict()
        self._clock = 0

    def tune(
        self,
        recent: Sequence[ComplexSubquery],
        upcoming: Sequence[ComplexSubquery] | None = None,
    ) -> TuningReport:
        report = TuningReport()
        design = self.dual.design
        assert design is not None

        for subquery in recent:
            self._clock += 1
            for predicate in subquery.predicates:
                self._history[predicate] += 1
                self._recency[predicate] = self._clock
                self._recency.move_to_end(predicate)

        ranked = sorted(
            self._history,
            key=lambda p: (-self._history[p], -self._recency.get(p, 0), p.value),
        )
        desired = _greedy_selection(self.dual, ranked)

        # Evict current residents that fell out of the desired set, least
        # recently used first.
        to_evict = sorted(
            design.graph_partitions - set(desired),
            key=lambda p: (self._recency.get(p, 0), p.value),
        )
        for predicate in to_evict:
            report.evict_seconds += self.dual.evict_partition(predicate)
            report.evicted.append(predicate)

        for predicate in desired:
            if predicate in design.graph_partitions:
                report.kept.append(predicate)
                continue
            try:
                report.import_seconds += self.dual.transfer_partition(predicate)
                report.transferred.append(predicate)
            except StorageBudgetExceeded:
                report.kept.append(predicate)
        report.trained_subqueries = len(recent)
        return report


class IdealTuner(BaseTuner):
    """Foresees the next batch and prepares the graph store for it."""

    name = "ideal"

    def tune(
        self,
        recent: Sequence[ComplexSubquery],
        upcoming: Sequence[ComplexSubquery] | None = None,
    ) -> TuningReport:
        report = TuningReport()
        source = upcoming if upcoming else recent
        frequencies = _partition_frequencies(source)
        design = self.dual.design
        assert design is not None
        ranked = sorted(
            frequencies,
            key=lambda p: (-frequencies[p] / max(1, design.partition_sizes.get(p, 1)), p.value),
        )
        _apply_target_set(self.dual, _greedy_selection(self.dual, ranked), report)
        report.trained_subqueries = len(source)
        return report


class StaticTuner(BaseTuner):
    """Never changes the physical design (RDB-only behaviour)."""

    name = "static"

    def tune(
        self,
        recent: Sequence[ComplexSubquery],
        upcoming: Sequence[ComplexSubquery] | None = None,
    ) -> TuningReport:
        return TuningReport()
