"""Concurrent query-serving layer: caches, batched admission, service metrics.

This package is the serving substrate in front of the paper's dual-store
structure.  :class:`QueryService` fronts a loaded
:class:`~repro.core.dualstore.DualStore` and serves single queries or whole
workload batches with plan caching, result caching and within-batch
deduplication, under a read/write gate that keeps every mutation routed
through the service exclusive with in-flight serves.  Every cache is one
:class:`~repro.lru.LRUCache` with one freshness rule: an entry carries the
read stamp of what it read (:meth:`DualStore.read_stamp
<repro.core.dualstore.DualStore.read_stamp>` for results) and hits only
while the stamp stands, so an answer survives the writes it did not read.
The store's ``generation`` is a replication and wire counter (the delta
log, snapshots, followers, ``X-Repro-Generation``); no cache reads it.
:mod:`repro.serve.adaptive` adds opt-in online adaptive tuning: a sliding
window of served complex subqueries plus a tuning daemon whose epochs,
one per ``QueryService.tune_now()`` call, re-place partitions while serving
continues around them.  See
``docs/architecture.md`` (§3 for the cache freshness contract, §6 for the
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
    "ServiceCounters",
    "ServiceMetrics",
    "LatencyDigest",
    "QueueGauge",
]
