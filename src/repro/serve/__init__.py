"""Concurrent query-serving layer: caches, batched admission, service metrics.

This package is the serving substrate in front of the paper's dual-store
structure.  :class:`QueryService` fronts a loaded
:class:`~repro.core.dualstore.DualStore` and serves single queries or whole
workload batches with plan caching, generation-validated result caching,
and within-batch deduplication, under a read/write gate that keeps every
mutation routed through the service exclusive with in-flight serves.
:mod:`repro.serve.adaptive` adds opt-in online adaptive tuning: a sliding
window of served complex subqueries plus a tuning daemon whose epochs,
one per ``QueryService.tune_now()`` call, re-place partitions while serving
continues around them.  See
``docs/architecture.md`` (§3 for the cache-invalidation contract, §6 for the
adaptive subsystem).  Durable checkpointing and warm restarts
(``ServiceConfig.snapshot`` / :meth:`QueryService.restore`) are built on
:mod:`repro.persist` (§7).
"""

from repro.serve.adaptive import (
    AdaptiveConfig,
    AdaptiveMetrics,
    EpochReport,
    ReadWriteLock,
    TuningDaemon,
    WindowEntry,
    WorkloadWindow,
)
from repro.persist.snapshot import SnapshotManifest, SnapshotPolicy
from repro.serve.metrics import LatencyDigest, QueueGauge, ServiceCounters, ServiceMetrics
from repro.serve.plan_cache import PlanCache, QueryPlan
from repro.serve.result_cache import CachedExecution, ResultCache
from repro.serve.service import QueryService, ServedBatch, ServiceConfig

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServedBatch",
    "SnapshotManifest",
    "SnapshotPolicy",
    "AdaptiveConfig",
    "AdaptiveMetrics",
    "EpochReport",
    "ReadWriteLock",
    "TuningDaemon",
    "WindowEntry",
    "WorkloadWindow",
    "PlanCache",
    "QueryPlan",
    "ResultCache",
    "CachedExecution",
    "ServiceCounters",
    "ServiceMetrics",
    "LatencyDigest",
    "QueueGauge",
]
