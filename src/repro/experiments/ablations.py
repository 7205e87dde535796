"""Ablation studies of DOTIL's design choices (beyond the paper's tables).

DESIGN.md calls out three design decisions worth isolating:

* **Reward amortisation** — the paper splits a subquery's reward across its
  partitions by predicate proportion (``δ(Pi)``); the ablation replaces this
  with a uniform split.
* **Counterfactual cap λ** — rewards are computed against a relational run
  capped at ``λ·c₁``; the ablation removes the cap (full relational cost).
* **Graph traversal planning** — the graph matcher orders patterns greedily
  by selectivity; the ablation keeps the query's source order.

Each ablation returns paired measurements so the benchmarks (and tests) can
assert the direction of the effect rather than absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import DEFAULT_CONFIG
from repro.core.runner import run_workload
from repro.core.tuner import Dotil
from repro.core.variants import RDBGDB
from repro.graphstore.store import GraphStore
from repro.relstore.store import RelationalStore
from repro.sparql.parser import parse_query
from repro.workload.yago import generate_yago, yago_workload

from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings
from repro.experiments.table1 import TABLE1_QUERY

__all__ = [
    "AblationResult",
    "run_reward_split_ablation",
    "run_counterfactual_cap_ablation",
    "run_planner_ablation",
]


@dataclass(frozen=True)
class AblationResult:
    """A named pair of measurements: the paper's choice vs the ablated one."""

    name: str
    paper_choice: float
    ablated: float
    unit: str = "seconds"

    @property
    def delta_percent(self) -> float:
        if self.paper_choice == 0:
            return 0.0
        return (self.ablated - self.paper_choice) / self.paper_choice * 100.0


class _UniformRewardDotil(Dotil):
    """DOTIL variant that splits rewards uniformly across partitions."""

    @staticmethod
    def _predicate_proportions(subquery) -> Dict:
        concrete = [p.predicate for p in subquery.patterns if p.has_concrete_predicate]
        unique = list(dict.fromkeys(concrete))
        if not unique:
            return {}
        share = 1.0 / len(unique)
        return {predicate: share for predicate in unique}


def run_reward_split_ablation(settings: ExperimentSettings = DEFAULT_SETTINGS) -> AblationResult:
    """Proportional (paper) vs uniform reward amortisation, compared by TTI."""
    dataset = generate_yago(settings.yago_triples, seed=settings.seed)
    workload = yago_workload(dataset, seed=settings.seed + 1)
    batches = workload.batches("ordered", seed=settings.seed)

    proportional = RDBGDB().load(dataset.triples)
    proportional_result = run_workload(proportional, batches, label="reward-proportional")

    uniform = RDBGDB(tuner_factory=lambda dual: _UniformRewardDotil(dual)).load(dataset.triples)
    uniform_result = run_workload(uniform, batches, label="reward-uniform")

    return AblationResult(
        name="reward amortisation (proportional vs uniform)",
        paper_choice=proportional_result.total_tti,
        ablated=uniform_result.total_tti,
    )


def run_counterfactual_cap_ablation(settings: ExperimentSettings = DEFAULT_SETTINGS) -> AblationResult:
    """λ-capped counterfactual (paper) vs uncapped, compared by offline tuning cost.

    The online TTI is similar either way; the point of the cap is to bound the
    offline counterfactual work, so the ablation reports the relational work
    charged during tuning.
    """
    dataset = generate_yago(settings.yago_triples, seed=settings.seed)
    workload = yago_workload(dataset, seed=settings.seed + 1)
    batches = workload.batches("ordered", seed=settings.seed)

    def measure(lam: float) -> float:
        config = DEFAULT_CONFIG.with_overrides(lam=lam)
        variant = RDBGDB(config=config).load(dataset.triples)
        offline_seconds = 0.0
        original = variant.dual.counterfactual_relational_cost

        def tracking(subquery, cap_seconds):
            nonlocal offline_seconds
            cost = original(subquery, cap_seconds)
            offline_seconds += cost
            return cost

        variant.dual.counterfactual_relational_cost = tracking  # type: ignore[method-assign]
        run_workload(variant, batches, label=f"cap-{lam}")
        return offline_seconds

    capped = measure(DEFAULT_CONFIG.lam)
    uncapped = measure(1e9)
    return AblationResult(
        name="counterfactual cap (lambda vs uncapped)",
        paper_choice=capped,
        ablated=uncapped,
        unit="offline counterfactual seconds",
    )


def run_planner_ablation(settings: ExperimentSettings = DEFAULT_SETTINGS) -> AblationResult:
    """Selectivity-ordered graph traversal vs source-order traversal."""
    dataset = generate_yago(settings.yago_triples, seed=settings.seed)
    relational = RelationalStore()
    relational.load(dataset.triples)
    query = parse_query(TABLE1_QUERY)

    graph = GraphStore(storage_budget=None, dictionary=relational.dictionary)
    for predicate in query.predicates():
        graph.load_block(predicate, relational.partition_block(predicate))

    planned = graph.execute(query)
    naive = graph.execute(query, pattern_order=list(query.patterns))
    return AblationResult(
        name="graph traversal order (greedy vs source order)",
        paper_choice=planned.seconds,
        ablated=naive.seconds,
    )
