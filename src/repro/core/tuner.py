"""DOTIL — the Dual-stOre Tuner based on reInforcement Learning (Section 4).

DOTIL is invoked periodically (offline, between batches).  For every complex
subquery in the most recent batch it decides whether the triple partitions
that subquery needs are worth transferring into the graph store, using one
2×2 Q-matrix per partition (the state-space decomposition) and rewards
derived from a counterfactual relational run capped at ``λ·c₁``.

The implementation follows the paper's Algorithm 1 (the outer tuning loop,
including budget-driven eviction ordered by ``Q(1,1) − Q(1,0)``) and
Algorithm 2 (``LearningProc``: execute in the graph store, cap the relational
counterfactual, amortise the reward over the partitions by their predicate
proportion in the subquery, update each Q-matrix with Equation 4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import TuningError
from repro.rdf.terms import IRI
from repro.sparql.ast import SelectQuery

from repro.core.config import DEFAULT_CONFIG, DotilConfig
from repro.core.dualstore import DualStore
from repro.core.identifier import ComplexSubquery
from repro.core.qlearning import ACTION_KEEP, ACTION_MOVE, QTable, STATE_GRAPH, STATE_RELATIONAL

__all__ = ["Dotil", "TuningReport", "BaseTuner"]


@dataclass
class TuningReport:
    """What one offline tuning phase did."""

    transferred: List[IRI] = field(default_factory=list)
    evicted: List[IRI] = field(default_factory=list)
    kept: List[IRI] = field(default_factory=list)
    trained_subqueries: int = 0
    import_seconds: float = 0.0
    evict_seconds: float = 0.0
    qmatrix_sum: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    @property
    def moves(self) -> int:
        """Physical moves this phase applied (transfers plus evictions)."""
        return len(self.transferred) + len(self.evicted)

    def merge(self, other: "TuningReport") -> "TuningReport":
        return TuningReport(
            transferred=self.transferred + other.transferred,
            evicted=self.evicted + other.evicted,
            kept=self.kept + other.kept,
            trained_subqueries=self.trained_subqueries + other.trained_subqueries,
            import_seconds=self.import_seconds + other.import_seconds,
            evict_seconds=self.evict_seconds + other.evict_seconds,
            qmatrix_sum=other.qmatrix_sum or self.qmatrix_sum,
        )


class BaseTuner:
    """Common interface for DOTIL and the baseline tuning policies.

    A tuner observes the most recent batch of complex subqueries and mutates
    the dual store's physical design.  ``upcoming`` is only used by policies
    that are allowed to look into the future (the paper's *ideal mode*);
    DOTIL and the other online policies ignore it.
    """

    name = "base"

    def __init__(self, dual: DualStore):
        self.dual = dual

    def prepare(self, all_complex_subqueries: Sequence[ComplexSubquery]) -> None:
        """Hook called once before the first batch (used by one-off mode)."""

    def tune(
        self,
        recent: Sequence[ComplexSubquery],
        upcoming: Sequence[ComplexSubquery] | None = None,
    ) -> TuningReport:
        raise NotImplementedError


class Dotil(BaseTuner):
    """The reinforcement-learning dual-store tuner."""

    name = "dotil"

    def __init__(self, dual: DualStore, config: DotilConfig | None = None):
        super().__init__(dual)
        self.config = config or dual.config or DEFAULT_CONFIG
        self.qtable = QTable()
        self._rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def tune(
        self,
        recent: Sequence[ComplexSubquery],
        upcoming: Sequence[ComplexSubquery] | None = None,
    ) -> TuningReport:
        """Run one offline tuning phase over the most recent batch."""
        design = self.dual.design
        if design is None:
            raise TuningError("the dual store must be loaded before tuning")

        report = TuningReport()
        for complex_subquery in recent:
            self._tune_for_subquery(complex_subquery, report)
        report.qmatrix_sum = self.qtable.summed()
        return report

    def _tune_for_subquery(self, complex_subquery: ComplexSubquery, report: TuningReport) -> None:
        design = self.dual.design
        assert design is not None
        subquery = complex_subquery.query
        needed = self._partitions_for(complex_subquery)
        if not needed:
            return

        in_graph = design.graph_partitions

        # Lines 5-7: everything already there -> just keep training.
        if set(needed) <= in_graph:
            self._learning_proc(subquery, needed, STATE_GRAPH, ACTION_KEEP)
            report.trained_subqueries += 1
            report.kept.extend(needed)
            return

        # Lines 9-11: the partitions that still have to move.
        missing = [p for p in needed if p not in in_graph]

        # Lines 12-15: compare the summed Q-values of keeping vs transferring.
        q_keep = sum(self.qtable.matrix(p).get(STATE_RELATIONAL, ACTION_KEEP) for p in missing)
        q_move = sum(self.qtable.matrix(p).get(STATE_RELATIONAL, ACTION_MOVE) for p in missing)

        if q_keep == 0.0 and q_move == 0.0:
            # Cold start: transfer with probability ``prob`` (Section 4.2.2).
            if self._rng.random() >= self.config.prob:
                report.kept.extend(missing)
                return
        elif q_keep >= q_move:
            # Lines 16-17: keeping looks at least as good; do nothing.
            report.kept.extend(missing)
            return

        # Lines 18-27: make room if the missing partitions do not fit.
        missing_size = sum(design.size_of(p) for p in missing)
        if missing_size > design.storage_budget:
            # The partition set can never fit; leave the design unchanged.
            report.kept.extend(missing)
            return
        if missing_size > design.remaining_budget():
            self._evict_until_fits(missing_size, protected=set(needed), report=report)
            if missing_size > design.remaining_budget():
                report.kept.extend(missing)
                return

        # Lines 28-29: migrate.
        for predicate in missing:
            report.import_seconds += self.dual.transfer_partition(predicate)
            report.transferred.append(predicate)

        # Lines 30-31: train the transferred partitions with (s=0, a=1) and the
        # partitions that were already resident with (s=1, a=0).
        self._learning_proc(subquery, missing, STATE_RELATIONAL, ACTION_MOVE)
        already_there = [p for p in needed if p not in missing]
        if already_there:
            self._learning_proc(subquery, already_there, STATE_GRAPH, ACTION_KEEP)
        report.trained_subqueries += 1

    def _evict_until_fits(self, required: int, protected: set[IRI], report: TuningReport) -> None:
        """Lines 19-27: evict resident partitions in ``Q(1,1) − Q(1,0)`` order."""
        design = self.dual.design
        assert design is not None
        candidates = [p for p in design.graph_partitions if p not in protected]
        candidates.sort(key=lambda p: (-self.qtable.matrix(p).eviction_key(), p.value))
        for predicate in candidates:
            if required <= design.remaining_budget():
                break
            report.evict_seconds += self.dual.evict_partition(predicate)
            report.evicted.append(predicate)

    # ------------------------------------------------------------------ #
    # Algorithm 2 — LearningProc
    # ------------------------------------------------------------------ #
    def _learning_proc(
        self,
        subquery: SelectQuery,
        partitions: Sequence[IRI],
        state: int,
        action: int,
    ) -> None:
        """Execute the subquery, compute amortised rewards, update Q-matrices."""
        if not partitions:
            return
        c1, _result = self.dual.graph_cost(subquery)
        cap = self.config.lam * c1
        c2 = self.dual.counterfactual_relational_cost(subquery, cap_seconds=cap)

        proportions = self._predicate_proportions(subquery)
        for predicate in partitions:
            delta = proportions.get(predicate, 0.0)
            reward = (c2 - c1) * delta
            self.qtable.matrix(predicate).update(
                state, action, reward, alpha=self.config.alpha, gamma=self.config.gamma
            )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _partitions_for(self, complex_subquery: ComplexSubquery) -> List[IRI]:
        """``Tc``: the partitions (predicates) the subquery needs, known to the KG."""
        design = self.dual.design
        assert design is not None
        known = design.relational_partitions
        return sorted((p for p in complex_subquery.predicates if p in known), key=lambda p: p.value)

    @staticmethod
    def _predicate_proportions(subquery: SelectQuery) -> Dict[IRI, float]:
        """``δ(Pi)``: each predicate's share of the subquery's patterns."""
        concrete = [p.predicate for p in subquery.patterns if isinstance(p.predicate, IRI)]
        if not concrete:
            return {}
        total = len(concrete)
        proportions: Dict[IRI, float] = {}
        for predicate in concrete:
            proportions[predicate] = proportions.get(predicate, 0.0) + 1.0 / total
        return proportions

    # ------------------------------------------------------------------ #
    # Warm-up (Section 4.2.2: "we prefer to warm up DOTIL with historical queries")
    # ------------------------------------------------------------------ #
    def warm_up(self, historical: Iterable[ComplexSubquery]) -> TuningReport:
        """Pre-train the Q-matrices on historical complex subqueries."""
        return self.tune(list(historical))

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The tuner's learned state: every Q-matrix plus the exploration RNG.

        Restoring both means a warm-restarted tuner continues *exactly* where
        the snapshotted one stopped — same Q-values, same future exploration
        coin flips — instead of re-learning from a cold table.
        """
        version, internal, gauss_next = self._rng.getstate()
        return {
            "name": self.name,
            "qtable": self.qtable.to_payload(),
            "rng": [version, list(internal), gauss_next],
        }

    def restore_state(self, state: dict) -> None:
        self.qtable = QTable.from_payload(state["qtable"])
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))
