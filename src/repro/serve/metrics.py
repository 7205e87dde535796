"""Service-level metrics for the query-serving layer.

The style mirrors :mod:`repro.cost.counters`: plain counter objects that the
service increments as it works, cheap to merge and to snapshot.  On top of the
counters the serving layer needs two things the store-level counters do not
provide:

* latency *distributions* (p50/p95, not just totals) — :class:`LatencyDigest`,
* an in-flight gauge (current/peak queue depth) — :class:`QueueGauge`.

Everything is aggregated under one :class:`ServiceMetrics` object exposed as
``QueryService.metrics``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Dict, List

__all__ = ["ServiceCounters", "LatencyDigest", "QueueGauge", "ServiceMetrics"]


@dataclass
class ServiceCounters:
    """Accumulated serving-layer events.

    The service increments every field itself, so every field sums on
    :meth:`add`/:meth:`merge`.  A count another object owns (the endpoint's
    admission gate, a fleet monitor's restarts, a client pool's breaker
    trips) is read from that owner, never copied in here.

    Attributes
    ----------
    queries_served:
        Submissions answered (batch members and single queries alike).
    batches_served:
        ``run_batch`` invocations completed.
    executions:
        Queries actually executed against the stores (cache misses after
        within-batch deduplication).
    plan_cache_hits / plan_cache_misses:
        Parsed-plan cache outcomes (a hit skips the SPARQL parser and the
        complex-subquery identifier).
    result_cache_hits:
        Submissions served straight from the result cache.
    result_cache_misses:
        Distinct queries that had to be executed (equals ``executions``).
    duplicates_coalesced:
        Submissions that shared another submission's execution inside one
        batch (batch deduplication); counted as neither hit nor miss.
    invalidation_events:
        Result-cache entries dropped at lookup because the query's read
        stamp (:meth:`DualStore.read_stamp`) moved since they were stored —
        a write, transfer or eviction reached something the query reads.
        The cache reports each drop to the serve that made it, which counts
        it here.
    snapshots_taken:
        Durable checkpoints the service committed (``checkpoint()`` calls,
        including the delta log's anchor snapshot).
    snapshot_failures:
        Checkpoint commits that failed.  ``checkpoint()`` counts the
        failure here, then raises it to its caller.
    wal_records / wal_bytes:
        Delta-log appends (``SnapshotPolicy.log``): records durably written
        and their total framed bytes.  The churn benchmark compares these
        bytes against full-snapshot reload bytes.
    wal_failures:
        Delta-log appends or rotations that failed (recorded in
        ``QueryService.last_wal_error``; the log closes and the next
        successful snapshot commit re-anchors it — never raised out of the
        mutation that triggered the append).
    query_timeouts:
        Requests cancelled cooperatively because they exceeded their
        deadline (:mod:`repro.resilience.deadline`) — while executing, or at
        the endpoint while encoding the results; each one surfaced as a
        :class:`~repro.errors.QueryTimeoutError` (a 504 at the endpoint).
    """

    queries_served: int = 0
    batches_served: int = 0
    executions: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    duplicates_coalesced: int = 0
    invalidation_events: int = 0
    snapshots_taken: int = 0
    snapshot_failures: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    wal_failures: int = 0
    query_timeouts: int = 0

    def merge(self, other: "ServiceCounters") -> "ServiceCounters":
        """Return a new counter object with both contributions summed."""
        merged = ServiceCounters()
        merged.add(self)
        merged.add(other)
        return merged

    def add(self, other: "ServiceCounters") -> None:
        """Accumulate ``other`` into this counter object in place."""
        for f in fields(ServiceCounters):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int]:
        return {f.name: int(getattr(self, f.name)) for f in fields(ServiceCounters)}

    def copy(self) -> "ServiceCounters":
        clone = ServiceCounters()
        clone.add(self)
        return clone

    # Derived rates ---------------------------------------------------- #
    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    @property
    def result_cache_hit_rate(self) -> float:
        total = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / total if total else 0.0


class LatencyDigest:
    """Latency samples with bounded memory and O(1) observation.

    ``count``, ``total``, and ``mean`` are always exact — they are plain
    scalar accumulators.  Percentiles are computed from a bounded sample
    reservoir: up to ``capacity`` observations every sample is retained, so
    percentiles are **exact** under the cap; beyond it, reservoir sampling
    (Algorithm R, seeded so two identically-fed digests agree) keeps a
    uniform sample and percentiles become estimates.  The previous
    implementation kept every sample sorted (`insort` under the service's
    metrics lock), which both leaked memory in a long-running service and
    made the hot path O(n) per observation.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("LatencyDigest capacity must be at least 1")
        self._capacity = capacity
        self._samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._rng = random.Random(0x5EED)

    def observe(self, seconds: float) -> None:
        self._count += 1
        self._total += seconds
        if len(self._samples) < self._capacity:
            self._samples.append(seconds)
        else:
            # Algorithm R: keep each of the count observations in the
            # reservoir with probability capacity/count.
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self._samples[slot] = seconds

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def sample_size(self) -> int:
        """Samples currently retained for percentile estimation (≤ capacity)."""
        return len(self._samples)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (q in [0, 100]) via nearest-rank over the
        retained samples (exact while ``count <= capacity``).

        Defined on every digest state, including the edges: an empty digest
        answers ``0.0`` for any ``q`` (there is no latency mass to report —
        never an exception), a single-observation digest answers that one
        observation for every ``q``, and ``p0``/``p100`` clamp to the
        smallest/largest retained sample rather than indexing off either end
        of the reservoir.
        """
        return self._rank_in(sorted(self._samples), q)

    @staticmethod
    def _rank_in(ordered: List[float], q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not ordered:
            return 0.0  # an empty digest has a defined (zero) percentile
        if len(ordered) == 1:
            return ordered[0]  # every percentile of one observation is it
        # Nearest rank, clamped to [1, n]: q=0 maps to the minimum instead
        # of ``ordered[-1]`` (rank 0 would wrap) and q=100 to the maximum
        # instead of one past the end.
        rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def as_dict(self) -> Dict[str, float]:
        ordered = sorted(self._samples)  # one sort serves all percentiles
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self._rank_in(ordered, 50.0),
            "p95": self._rank_in(ordered, 95.0),
            "p99": self._rank_in(ordered, 99.0),
            "total": self.total,
        }


@dataclass
class QueueGauge:
    """Current and peak number of in-flight executions."""

    current: int = 0
    peak: int = 0

    def enter(self) -> None:
        self.current += 1
        if self.current > self.peak:
            self.peak = self.current

    def leave(self) -> None:
        self.current -= 1

    def as_dict(self) -> Dict[str, int]:
        return {"current": self.current, "peak": self.peak}


class ServiceMetrics:
    """Everything the service measures about itself.

    * ``counters`` — event counts (:class:`ServiceCounters`),
    * ``modelled_latency`` — the cost model's per-submission seconds (the
      paper's TTI currency; unchanged by caching, so it stays comparable to
      the uncached experiments),
    * ``wall_latency`` — wall-clock seconds per store execution (what caching
      actually improves),
    * ``queue`` — in-flight execution gauge.
    """

    def __init__(self) -> None:
        self.counters = ServiceCounters()
        self.modelled_latency = LatencyDigest()
        self.wall_latency = LatencyDigest()
        self.queue = QueueGauge()

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view for logging/printing."""
        return {
            "counters": self.counters.as_dict(),
            "plan_cache_hit_rate": self.counters.plan_cache_hit_rate,
            "result_cache_hit_rate": self.counters.result_cache_hit_rate,
            "modelled_latency": self.modelled_latency.as_dict(),
            "wall_latency": self.wall_latency.as_dict(),
            "queue": self.queue.as_dict(),
        }
