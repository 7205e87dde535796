"""Experiments E7 and E8 — Table 6 and Figure 7: limited spare resources.

DOTIL's counterfactual scenario runs complex queries in the relational store
in parallel with the graph store, so the graph store has to share IO and CPU.
Section 6.3.3 throttles spare IO/CPU to 40% and 20% and reports:

* Table 6 — the graph store's slowdown under each budget (tiny for IO,
  noticeable for tight CPU),
* Figure 7 — the percentage of spare IO and CPU the graph store consumes over
  time while the workload runs (fluctuating early, stabilising low).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cost.resources import ResourceSample, ResourceThrottle
from repro.core.runner import run_workload
from repro.core.variants import RDBGDB
from repro.workload.yago import generate_yago, yago_workload

from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings

__all__ = [
    "ResourceSlowdownRow",
    "run_resource_slowdown",
    "format_resource_slowdown",
    "run_resource_timeline",
    "format_resource_timeline",
]

#: The budgets of Table 6: (resource, spare fraction).
TABLE6_BUDGETS = [("io", 0.4), ("io", 0.2), ("cpu", 0.4), ("cpu", 0.2)]


@dataclass(frozen=True)
class ResourceSlowdownRow:
    """One row of Table 6."""

    resource: str
    spare_fraction: float
    slowdown_percent: float
    tti_with_throttle: float
    tti_unthrottled: float


def run_resource_slowdown(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> List[ResourceSlowdownRow]:
    """Measure the graph store's slowdown under each Table 6 budget."""
    dataset = generate_yago(settings.yago_triples, seed=settings.seed)
    workload = yago_workload(dataset, seed=settings.seed + 1)
    batches = workload.batches("ordered", seed=settings.seed)

    baseline = RDBGDB().load(dataset.triples)
    baseline_result = run_workload(baseline, batches, label="resources-baseline")
    baseline_graph_seconds = sum(b.graph_seconds for b in baseline_result.batches)

    rows: List[ResourceSlowdownRow] = []
    for resource, spare in TABLE6_BUDGETS:
        throttle = (
            ResourceThrottle(spare_io=spare) if resource == "io" else ResourceThrottle(spare_cpu=spare)
        )
        variant = RDBGDB(throttle=throttle).load(dataset.triples)
        result = run_workload(variant, batches, label=f"resources-{resource}-{spare}")
        graph_seconds = sum(b.graph_seconds for b in result.batches)
        if baseline_graph_seconds > 0:
            slowdown = (graph_seconds - baseline_graph_seconds) / baseline_graph_seconds * 100.0
        else:
            slowdown = throttle.slowdown_percent()
        rows.append(
            ResourceSlowdownRow(
                resource=resource,
                spare_fraction=spare,
                slowdown_percent=max(slowdown, 0.0),
                tti_with_throttle=result.total_tti,
                tti_unthrottled=baseline_result.total_tti,
            )
        )
    return rows


def format_resource_slowdown(rows: List[ResourceSlowdownRow]) -> str:
    lines = ["Table 6 — graph-store slowdown with limited spare resources"]
    for row in rows:
        lines.append(
            f"  {row.resource.upper():>3} {int(row.spare_fraction * 100):>3}% spare: "
            f"slowdown {row.slowdown_percent:6.2f}%  "
            f"(TTI {row.tti_with_throttle:.3f}s vs {row.tti_unthrottled:.3f}s)"
        )
    return "\n".join(lines)


def run_resource_timeline(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    spare_io: float = 0.4,
) -> List[ResourceSample]:
    """Record the Figure 7 time series of IO/CPU consumed by the graph store."""
    dataset = generate_yago(settings.yago_triples, seed=settings.seed)
    workload = yago_workload(dataset, seed=settings.seed + 1)
    batches = workload.batches("ordered", seed=settings.seed)

    throttle = ResourceThrottle(spare_io=spare_io)
    variant = RDBGDB(throttle=throttle).load(dataset.triples)

    elapsed = 0.0
    for index, batch in enumerate(batches):
        batch_result = variant.run_batch(batch, batch_index=index)
        report = variant.offline_phase(batch, upcoming=batches[index + 1] if index + 1 < len(batches) else None)
        elapsed += batch_result.tti
        migrated = 0
        if report is not None:
            migrated = sum(
                variant.dual.design.partition_sizes.get(p, 0) for p in report.transferred
            ) if variant.dual.design else 0
        graph_work = sum(
            r.counters.edges_traversed + r.counters.nodes_expanded for r in batch_result.records
        )
        throttle.record_activity(time=elapsed, migrated_triples=migrated, graph_work_units=graph_work)
    return throttle.timeline()


def format_resource_timeline(samples: List[ResourceSample]) -> str:
    lines = ["Figure 7 — IO/CPU consumed by the graph store over time (40% spare IO)"]
    for sample in samples:
        lines.append(
            f"  t={sample.time:7.3f}s  IO {sample.io_percent:5.1f}%  CPU {sample.cpu_percent:5.1f}%"
        )
    return "\n".join(lines)
