"""The concurrent query-serving layer in front of a :class:`DualStore`.

``DualStore.run_query`` processes one query at a time and re-parses,
re-identifies, and re-executes from scratch on every call.  That is the right
granularity for the paper's experiments, but not for *serving* a workload:
template-driven traffic repeats the same query texts constantly, and batches
contain outright duplicates.  :class:`QueryService` adds the serving substrate
on top, without changing any store or tuner semantics:

* a **plan cache** (:mod:`repro.serve.plan_cache`) keyed by canonical query
  text, so repeated template instantiations skip the SPARQL parser and the
  complex-subquery identifier;
* a **result cache** (:attr:`QueryService.result_cache`, an
  :class:`~repro.lru.LRUCache` keyed like the plan cache) whose entries
  carry :meth:`DualStore.read_stamp` of their query: a lookup hits only while
  everything the query reads — the constants' dictionary ids, the master
  blocks of its predicates, their graph replicas, the throttle — is as it
  was, so a cached answer survives the writes it did not read and no
  other.  Transfers and evictions move the stamp of the queries over their
  predicates even though they cannot change an answer: they change the
  route, and a cached ``route`` and modelled ``seconds`` must say how the
  store would execute the query now;
* a **batched admission path** (:meth:`QueryService.run_batch`) that
  deduplicates identical queries within a batch and executes the distinct
  misses inline, in submission order;
* a **serving gate** (:class:`~repro.serve.adaptive.ReadWriteLock`) that
  every service holds: serves take it shared, every mutation routed through
  the service (``insert``/``delete``/``transfer_partition``/
  ``evict_partition``, delta-log catch-up, tuning epochs, checkpoint
  captures) takes it exclusive — the
  :class:`~repro.core.processor.QueryProcessor` concurrency contract.  The
  service owns no threads: concurrency comes from its callers (the
  endpoint's request handlers, a follower's poll loop, test threads);
* **service metrics** (:mod:`repro.serve.metrics`): cache hit rates, p50/p95
  latency, and queue depth — plus per-shard modelled probe metrics
  (:meth:`QueryService.shard_metrics`) when the dual store's relational
  master copy is a :class:`~repro.relstore.sharded.ShardedRelationalStore`;
* opt-in **online adaptive tuning** (:mod:`repro.serve.adaptive`, via
  ``ServiceConfig.adaptive``): served complex subqueries are harvested into
  a sliding :class:`~repro.serve.adaptive.WorkloadWindow`, and each
  :meth:`QueryService.tune_now` call runs one
  :class:`~repro.serve.adaptive.TuningDaemon` epoch that re-tunes the
  physical design — exclusive with in-flight serves through the gate, its
  moves batched into a single generation bump;
* opt-in **durable checkpoints** (:mod:`repro.persist`, via
  ``ServiceConfig.snapshot``): each :meth:`QueryService.checkpoint` call
  captures a consistent cut under the gate and commits it outside.

Tuning and checkpoints run when called: ``tune_now()`` and ``checkpoint()``
are their only triggers.

Accounting is preserved: every submitted query yields exactly one
:class:`~repro.core.metrics.QueryRecord`, and cached/deduplicated records keep
the modelled ``seconds`` of the execution they share (flagged via
``record.from_cache``), so TTI computed over served records equals the TTI of
the uncached loop — the caches buy wall-clock time, not metric distortion.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.dualstore import DualStore
from repro.core.metrics import BatchResult, QueryRecord
from repro.core.processor import ProcessedQuery
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import QueryTimeoutError, SnapshotError
from repro.lru import LRUCache
from repro.resilience.deadline import Deadline, current_deadline, deadline_scope
from repro.persist.snapshot import (
    CapturedSnapshot,
    SnapshotManifest,
    SnapshotPolicy,
    capture_snapshot,
    commit_snapshot,
)
from repro.persist.wal import DeltaLog, WalRecord, apply_record, restore_with_log
from repro.rdf.terms import IRI, Triple
from repro.relstore.sharded import ShardedRelationalStore
from repro.sparql.ast import SelectQuery
from repro.sparql.parser import canonical_query_text, parse_query

from repro.serve.adaptive import (
    AdaptiveConfig,
    EpochReport,
    ReadWriteLock,
    TuningDaemon,
    WorkloadWindow,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.plan_cache import PlanCache, QueryPlan

__all__ = ["ServiceConfig", "ServedBatch", "IngestReport", "QueryService"]

#: A query may be submitted as raw SPARQL text or as an already-parsed AST.
QueryLike = Union[str, SelectQuery]

#: LRU capacity of the parsed-plan cache (and of the canonical-key memo).
PLAN_CACHE_SIZE = 1024
#: LRU capacity of the result cache (entries = distinct queries).
RESULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving layer.

    Attributes
    ----------
    cache_results:
        Disable to keep only the plan cache (useful for measuring the two
        caches separately).
    adaptive:
        Opt-in online adaptive tuning (:mod:`repro.serve.adaptive`).  When
        set, the service harvests served complex subqueries into a sliding
        :class:`~repro.serve.adaptive.WorkloadWindow` and owns a
        :class:`~repro.serve.adaptive.TuningDaemon`; each
        :meth:`QueryService.tune_now` call re-tunes the dual store's
        physical design, exclusive with in-flight serves.  ``None`` (the
        default) serves a frozen placement.
    snapshot:
        Opt-in durable checkpointing (:mod:`repro.persist`).  When set,
        :meth:`QueryService.checkpoint` with no path snapshots the dual
        store (plus the adaptive window/tuner state when adaptive tuning is
        on) under the policy's path — captured under the writer gate, so
        every snapshot is a consistent cut.  Restart with
        :meth:`QueryService.restore`.  ``None`` (the default) keeps the
        service memory-only.  With ``SnapshotPolicy(log=True)`` the service
        also keeps a write-ahead delta log (:mod:`repro.persist.wal`): every
        mutation appends one record, and each checkpoint on the policy path
        rotates the log onto the new snapshot.
    default_deadline_seconds:
        Wall-clock budget applied to every submission that does not carry
        its own ``deadline_seconds`` (:mod:`repro.resilience.deadline`).
        An over-budget execution raises
        :class:`~repro.errors.QueryTimeoutError` and frees its thread;
        ``None`` (the default) serves unbudgeted, exactly as before.
    """

    cache_results: bool = True
    adaptive: Optional[AdaptiveConfig] = None
    snapshot: Optional[SnapshotPolicy] = None
    default_deadline_seconds: Optional[float] = None


@dataclass
class ServedBatch:
    """The outcome of one ``run_batch`` call: one entry per submitted query.

    ``cache_hits`` counts submissions answered by the *result cache*;
    ``coalesced`` counts submissions that shared a batch-mate's execution
    (within-batch dedup).  Both kinds carry ``record.from_cache = True``;
    the remaining ``len(self) - cache_hits - coalesced`` submissions were
    fresh store executions.
    """

    executions: List[ProcessedQuery] = field(default_factory=list)
    cache_hits: int = 0
    coalesced: int = 0

    @property
    def records(self) -> List[QueryRecord]:
        return [execution.record for execution in self.executions]

    @property
    def tti(self) -> float:
        """Modelled time-to-insight of the batch (sum of record seconds)."""
        return sum((execution.record.seconds for execution in self.executions), 0.0)

    def batch_result(self, index: int = 0) -> BatchResult:
        """Adapt to the experiments' :class:`BatchResult` for TTI reporting."""
        return BatchResult(index=index, records=self.records)

    def __len__(self) -> int:
        return len(self.executions)

    def __iter__(self):
        return iter(self.executions)


@dataclass
class IngestReport:
    """What one :meth:`QueryService.ingest_stream` call did."""

    triples: int = 0
    chunks: int = 0
    modelled_seconds: float = 0.0


class QueryService:
    """Serves queries and whole workload batches from a dual store.

    Parameters
    ----------
    dual:
        The (loaded) dual store to front.  With a delta log the service
        registers a mutation listener on it; call :meth:`close` (or use the
        service as a context manager) to detach it.
    config:
        Serving tunables; defaults are fine for the bundled benchmarks.
    """

    def __init__(self, dual: DualStore, config: Optional[ServiceConfig] = None):
        self.dual = dual
        self.config = config or ServiceConfig()
        self.plan_cache = PlanCache(PLAN_CACHE_SIZE)
        #: canonical key → served execution, under the query's read stamp.
        self.result_cache: LRUCache[str, ProcessedQuery] = LRUCache(
            RESULT_CACHE_SIZE, "result cache"
        )
        # Memo for parsed-query canonical keys: to_sparql() + re-tokenization
        # is parser-comparable work, so equal queries (not just the same
        # object) share one computation.  Per-service, so the memory lives
        # and dies with the service rather than pinning ASTs process-wide.
        self._key_memo: LRUCache[SelectQuery, str] = LRUCache(
            PLAN_CACHE_SIZE, what="canonical-key memo"
        )
        self.metrics = ServiceMetrics()
        self._metrics_lock = threading.Lock()
        self._closed = False
        #: The serving gate: serves hold it shared; mutations, delta-log
        #: catch-up, tuning epochs and checkpoint captures hold it exclusive.
        self._gate = ReadWriteLock()
        #: Durable checkpointing (ServiceConfig.snapshot): checkpoint()
        #: captures under the writer gate (the consistent cut) and commits
        #: after the gate is released (serving resumes while the fsyncs
        #: run), serialized by its own I/O lock.
        self._snapshot_policy = self.config.snapshot
        self._snapshot_io_lock = threading.Lock()
        self.last_snapshot: Optional[SnapshotManifest] = None
        #: The online adaptive tuning subsystem (``None`` unless opted in via
        #: ``ServiceConfig.adaptive``).
        self.adaptive: Optional[TuningDaemon] = None
        if self.config.adaptive is not None:
            adaptive = self.config.adaptive
            self.adaptive = TuningDaemon(
                dual=dual,
                tuner=adaptive.tuner_factory(dual),
                window=WorkloadWindow(adaptive.window_size),
            )
        #: The write-ahead delta log (SnapshotPolicy.log): mutations append
        #: delta records through the dual store's mutation-listener seam,
        #: checkpoints on the policy path rotate.  Append/rotate failures are recorded
        #: here and in ``wal_failures`` — never raised out of a mutation.
        self.delta_log: Optional[DeltaLog] = None
        self.last_wal_error: Optional[Exception] = None
        if self._snapshot_policy is not None and self._snapshot_policy.log:
            self.delta_log = DeltaLog(
                self._snapshot_policy.path, keep_segments=max(2, self._snapshot_policy.keep)
            )
            self._anchor_delta_log()
            dual.add_mutation_listener(self._on_wal_event)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the dual store and close the delta log.

        A closed service refuses further serving (``RuntimeError``).
        """
        if self._closed:
            return
        self._closed = True
        if self.delta_log is not None:
            self.dual.remove_mutation_listener(self._on_wal_event)
            self.delta_log.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Plan resolution (text → parsed query + complex subquery)
    # ------------------------------------------------------------------ #
    def resolve(self, query: QueryLike) -> QueryPlan:
        """The cached plan for ``query``, parsing/identifying on a miss.

        Every submission is keyed by :func:`canonical_query_text`, so
        whitespace/comment/keyword-case variants of one template instantiation
        share a plan; pre-parsed queries are canonicalized via their
        deterministic SPARQL rendering, so a parsed query and its
        expanded-IRI text form share one cache entry too.
        """
        if isinstance(query, SelectQuery):
            key = self._key_memo.memo(query, None, lambda: canonical_query_text(query.to_sparql()))
            parsed: Optional[SelectQuery] = query
        else:
            key = canonical_query_text(query)
            parsed = None
        plan, _ = self.plan_cache.get(key)
        if plan is not None:
            with self._metrics_lock:
                self.metrics.counters.plan_cache_hits += 1
            return plan
        if parsed is None:
            parsed = parse_query(query)
        plan = QueryPlan(key=key, query=parsed, complex_subquery=self.dual.identifier.identify(parsed))
        self.plan_cache.put(plan)
        with self._metrics_lock:
            self.metrics.counters.plan_cache_misses += 1
        return plan

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def run_query(
        self, query: QueryLike, *, deadline_seconds: Optional[float] = None
    ) -> ProcessedQuery:
        """Serve one query (cache-aware single-query admission).

        ``deadline_seconds`` caps the wall-clock execution budget
        (overriding ``ServiceConfig.default_deadline_seconds``); an
        over-budget execution raises
        :class:`~repro.errors.QueryTimeoutError` — cooperatively, so the
        executor thread is freed, never left hung.  Without it, a caller
        already running under an ambient deadline (the endpoint opens one
        per request, shared by execution and result encoding) executes
        under that one.
        """
        return self._serve(
            [query], count_batch=False, deadline_seconds=deadline_seconds
        ).executions[0]

    def run_batch(
        self, queries: Sequence[QueryLike], *, deadline_seconds: Optional[float] = None
    ) -> ServedBatch:
        """Serve a whole batch: dedup within the batch, check the result
        cache per distinct query, execute the misses inline in submission
        order, and emit one :class:`QueryRecord` per submitted query in
        submission order.
        ``deadline_seconds`` is one shared budget for the whole batch; the
        first over-budget execution raises
        :class:`~repro.errors.QueryTimeoutError` for the batch."""
        return self._serve(list(queries), count_batch=True, deadline_seconds=deadline_seconds)

    def _serve(
        self,
        queries: List[QueryLike],
        count_batch: bool,
        deadline_seconds: Optional[float] = None,
    ) -> ServedBatch:
        if self._closed:
            raise RuntimeError("QueryService is closed; create a new service to keep serving")
        self.dual._require_loaded()
        if not queries:
            # An empty batch admits nothing: it must not count as a served
            # batch, move the queue gauge, or touch any cache counter —
            # otherwise per-batch averages and hit rates drift on no-op
            # submissions (see tests/test_serve.py::TestRunBatchEdgeCases).
            return ServedBatch()
        plans = [self.resolve(query) for query in queries]

        # One wall-clock budget per submission (shared across a batch): the
        # clock starts here, after resolution, so the budget measures store
        # execution — what the cooperative probes can actually cancel —
        # unless the caller's ambient deadline already runs.
        deadline = current_deadline() if deadline_seconds is None else None
        if deadline is None:
            deadline = self.request_deadline(deadline_seconds)

        # Serves hold the gate shared, so no mutation routed through the
        # service can land between the samples and the executions they tag:
        # the generation goes on the answers, each query's read stamp on its
        # cache lookup and its cache entry.
        self._gate.acquire_read()
        try:
            generation = self.dual.generation

            # First-appearance index per distinct key (within-batch dedup).
            primaries: Dict[str, int] = {}
            for index, plan in enumerate(plans):
                primaries.setdefault(plan.key, index)

            hits: Dict[str, ProcessedQuery] = {}
            to_execute: List[Tuple[QueryPlan, object]] = []
            dropped = 0
            for key, index in primaries.items():
                plan, stamp, entry = plans[index], None, None
                if self.config.cache_results:
                    stamp = self.dual.read_stamp(plan.query)
                    entry, drop = self.result_cache.get(key, stamp)
                    dropped += drop
                if entry is not None:
                    hits[key] = entry
                else:
                    to_execute.append((plan, stamp))

            executed = {
                plan.key: self._execute(plan, stamp, generation, deadline)
                for plan, stamp in to_execute
            }
        finally:
            self._gate.release_read()

        # Assemble per-submission entries outside the metrics lock, so the
        # result/record copies cannot serialize concurrent serves.
        entries: List[ProcessedQuery] = []
        primary_emitted: Set[str] = set()
        hit_count = 0
        coalesced_count = 0
        miss_count = 0
        for plan in plans:
            if plan.key in hits:
                hit = hits[plan.key]
                record = hit.record.replicate(from_cache=True)
                entries.append(
                    ProcessedQuery(result=hit.result.view(), record=record, generation=generation)
                )
                hit_count += 1
            else:
                processed = executed[plan.key]
                if plan.key in primary_emitted:
                    record = processed.record.replicate(from_cache=True)
                    entries.append(
                        ProcessedQuery(
                            result=processed.result.view(), record=record, generation=generation
                        )
                    )
                    coalesced_count += 1
                else:
                    primary_emitted.add(plan.key)
                    entries.append(processed)
                    miss_count += 1

        with self._metrics_lock:
            counters = self.metrics.counters
            counters.invalidation_events += dropped
            counters.result_cache_hits += hit_count
            counters.duplicates_coalesced += coalesced_count
            counters.result_cache_misses += miss_count
            counters.queries_served += len(plans)
            for entry in entries:
                self.metrics.modelled_latency.observe(entry.record.seconds)
            if count_batch:
                counters.batches_served += 1

        if self.adaptive is not None:
            # Harvest per submission (hits and duplicates included): the
            # tuner weighs partitions by traffic frequency, and a cache
            # absorbing a hot template must not hide its heat.
            window = self.adaptive.window
            for plan in plans:
                if plan.complex_subquery is not None:
                    window.record(plan.key, plan.query, plan.complex_subquery)
        return ServedBatch(executions=entries, cache_hits=hit_count, coalesced=coalesced_count)

    def _execute(
        self, plan: QueryPlan, stamp: object, generation: int, deadline: Optional[Deadline]
    ) -> ProcessedQuery:
        """Execute one plan under the caller's read gate; ``generation`` is
        the serve's one sample, stamped on the answer, and ``stamp`` the
        query's read stamp, its cache entry's."""
        with self._metrics_lock:
            self.metrics.queue.enter()
        start = time.perf_counter()
        try:
            # The deadline rides the executing thread as ambient state
            # (thread-local), so the engine hot loops can probe it without
            # any signature change; a trip raises QueryTimeoutError out of
            # the probe, the finally below releases the queue slot, and the
            # result-cache put is skipped (it only runs on success) — a
            # timed-out query is never cached.
            with deadline_scope(deadline):
                processed = self.dual.processor.process(plan.query, plan.complex_subquery)
        except QueryTimeoutError:
            with self._metrics_lock:
                self.metrics.counters.query_timeouts += 1
            raise
        finally:
            wall = time.perf_counter() - start
            with self._metrics_lock:
                self.metrics.queue.leave()
                self.metrics.wall_latency.observe(wall)
                self.metrics.counters.executions += 1
        processed.generation = generation
        if self.config.cache_results:
            # Cache a view, not the object handed to the caller: served
            # results cross the cache boundary in both directions (stored on
            # a miss, returned on a hit), and one consumer's in-place edit
            # (sorting bindings, merging counters) must not reach another's.
            # Views share the immutable columns, so a put or a hit is O(1).
            self.result_cache.put(
                plan.key,
                ProcessedQuery(
                    result=processed.result.view(),
                    record=processed.record.replicate(from_cache=False),
                ),
                stamp,
            )
        return processed

    # ------------------------------------------------------------------ #
    # Mutations (delegated).  Each delegation takes the write side of the
    # gate so it is exclusive with in-flight serves and tuning epochs.
    # ------------------------------------------------------------------ #
    def _gated_mutation(self, mutate: Callable[[], float]) -> float:
        """One delegated mutation, exclusive with serves/epochs via the
        write gate."""
        with self._gate.write_locked():
            return mutate()

    def insert(self, triples: Iterable[Triple]) -> float:
        return self._gated_mutation(lambda: self.dual.insert(triples))

    def delete(self, triples: Iterable[Triple]) -> int:
        """Remove triples from the relational master copy (gated like
        :meth:`insert`); returns how many were actually removed."""
        return self._gated_mutation(lambda: self.dual.delete(triples))

    def ingest_stream(
        self,
        triples: Iterable[Triple],
        *,
        chunk_size: int = 1024,
    ) -> IngestReport:
        """Bulk streaming ingest: consume ``triples`` in chunks.

        Each chunk is one gated :meth:`insert` — one generation bump and (in
        delta-log mode) one log record — so a million-triple stream costs
        thousands of cheap boundaries, not millions.  Statistics are left
        to the next reader, which recomputes only the predicates the stream
        wrote.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        report = IngestReport()
        chunk: List[Triple] = []
        for triple in triples:
            chunk.append(triple)
            if len(chunk) >= chunk_size:
                report.modelled_seconds += self.insert(chunk)
                report.triples += len(chunk)
                report.chunks += 1
                chunk = []
        if chunk:
            report.modelled_seconds += self.insert(chunk)
            report.triples += len(chunk)
            report.chunks += 1
        return report

    def apply_wal_records(self, records: Sequence[WalRecord]) -> int:
        """Apply committed delta-log records to the live store — the
        follower catch-up path (:mod:`repro.endpoint.worker`).

        Runs under the write gate, so in-flight serves never observe a
        half-applied record; each record bumps the generation once, exactly
        like the leader-side mutation that produced it.  Returns the framed
        bytes applied (the churn benchmark's delta-cost measure).  Replay
        errors propagate — a drifted store must be discarded, not served.
        """
        nbytes = 0
        with self._gate.write_locked():
            for record in records:
                apply_record(self.dual, record)
                nbytes += record.nbytes
        return nbytes

    def transfer_partition(self, predicate: IRI) -> float:
        """Replicate one partition into the graph store; returns modelled
        import seconds."""
        return self._gated_mutation(lambda: self.dual.transfer_partition(predicate))

    def evict_partition(self, predicate: IRI) -> float:
        """Remove one partition from the graph store; returns modelled
        eviction seconds (symmetric with :meth:`transfer_partition`)."""
        return self._gated_mutation(lambda: self.dual.evict_partition(predicate))

    def request_deadline(self, deadline_seconds: Optional[float] = None) -> Optional[Deadline]:
        """A started deadline for one submission: ``deadline_seconds``, else
        ``ServiceConfig.default_deadline_seconds``; ``None`` when neither
        sets a budget."""
        budget = (
            deadline_seconds if deadline_seconds is not None else self.config.default_deadline_seconds
        )
        return Deadline(budget) if budget is not None else None

    def record_query_timeout(self) -> None:
        """Count a request that ran out of its deadline after execution —
        while the endpoint encoded its results — like an execution that
        did (``query_timeouts``)."""
        with self._metrics_lock:
            self.metrics.counters.query_timeouts += 1

    # ------------------------------------------------------------------ #
    # The write-ahead delta log (SnapshotPolicy.log)
    # ------------------------------------------------------------------ #
    def _anchor_delta_log(self) -> None:
        """Make the log resumable before the first serve.

        Warm restart: when the on-disk tail already ends exactly at the live
        store's generation (the store came from :func:`restore_with_log`),
        reopen it — truncating any torn tail — and keep appending.
        Otherwise anchor a fresh full snapshot and rotate onto it, so every
        subsequent mutation has a committed base to replay against.
        """
        assert self.delta_log is not None
        if self.dual.design is None:
            raise SnapshotError(
                "SnapshotPolicy(log=True) needs a loaded store: the delta log must "
                "anchor a full snapshot before mutations can be logged"
            )
        if self.delta_log.recover(self.dual.generation):
            return
        self.checkpoint()

    def _on_wal_event(self, ops: List[dict], generation: int) -> None:
        """Mutation listener: durably append one delta record.

        Failures are recorded (``wal_failures`` / :attr:`last_wal_error`)
        and close the log — the mutation itself already committed in memory,
        so raising here would poison it; restores stay anchored to the last
        complete record until the next snapshot commit rotates a fresh
        segment.  An empty ``ops`` list is a mutation the op vocabulary
        cannot represent (a re-``load``): the log closes for the same
        reason, loudly in the error slot.
        """
        log = self.delta_log
        if log is None or not log.is_open:
            return
        if not ops:
            log.close()
            self.last_wal_error = SnapshotError(
                f"generation {generation} carried no replayable ops (re-load?); "
                "delta log closed until the next snapshot commit"
            )
            with self._metrics_lock:
                self.metrics.counters.wal_failures += 1
            return
        try:
            nbytes = log.append(ops, generation)
        except Exception as exc:
            self.last_wal_error = exc
            with self._metrics_lock:
                self.metrics.counters.wal_failures += 1
            return
        with self._metrics_lock:
            self.metrics.counters.wal_records += 1
            self.metrics.counters.wal_bytes += nbytes

    def _maybe_rotate_log(self, path, manifest: SnapshotManifest) -> None:
        """Rotate the delta log after a successful snapshot commit on the
        policy path (ad-hoc side checkpoints leave the log anchored where it
        is).  Rotation failures are recorded, not raised — the snapshot
        itself committed."""
        log = self.delta_log
        # A delta log implies a policy: SnapshotPolicy(log=True) opened it.
        if log is None or Path(path).resolve() != Path(self._snapshot_policy.path).resolve():
            return
        try:
            log.rotate(manifest.generation, snapshot_name=manifest.name)
        except Exception as exc:
            self.last_wal_error = exc
            with self._metrics_lock:
                self.metrics.counters.wal_failures += 1

    # ------------------------------------------------------------------ #
    # Durable checkpoints (ServiceConfig.snapshot)
    # ------------------------------------------------------------------ #
    def checkpoint(self, path=None, keep: Optional[int] = None) -> SnapshotManifest:
        """Snapshot the dual store (and adaptive state) right now — the one
        way the service takes a snapshot.

        The in-memory capture happens under the writer gate (a consistent
        cut even with serves in flight); the disk write happens after the
        gate is released, so serving resumes while the fsyncs run.  ``path``
        defaults to the configured policy's path; without a policy it must
        be given explicitly.  A commit on the policy path rotates the delta
        log onto the new snapshot.  ``keep`` overrides the retention for
        this call — important for ad-hoc backup roots, which otherwise
        rotate at the policy's (or the default) retention and would silently
        drop older manual backups.  A capture older than the root's
        committed snapshot is skipped (the newer manifest is returned).
        Write failures count in ``snapshot_failures`` and propagate.
        """
        policy = self._snapshot_policy
        if path is None:
            if policy is None:
                raise RuntimeError(
                    "no snapshot path: configure ServiceConfig(snapshot=SnapshotPolicy(...)) "
                    "or pass checkpoint(path=...)"
                )
            path = policy.path
        if keep is None:
            keep = policy.keep if policy is not None else 2
        extras = None
        with self._gate.write_locked():
            if self.adaptive is not None:
                extras = {"adaptive": self.adaptive.snapshot_state()}
            captured = capture_snapshot(self.dual, extras=extras)
        return self._commit_captured(captured, path, keep)

    def _commit_captured(self, captured: CapturedSnapshot, path, keep: int) -> SnapshotManifest:
        """The I/O half of a checkpoint, outside the writer gate."""
        try:
            with self._snapshot_io_lock:
                manifest = commit_snapshot(captured, path, keep=keep)
        except Exception:
            with self._metrics_lock:
                self.metrics.counters.snapshot_failures += 1
            raise
        self.last_snapshot = manifest
        if manifest.generation == captured.generation:
            # A returned manifest with a *newer* generation means the commit
            # was a stale-capture no-op (another checkpoint already committed
            # a younger cut): nothing was written, so nothing is counted.
            with self._metrics_lock:
                self.metrics.counters.snapshots_taken += 1
            self._maybe_rotate_log(path, manifest)
        return manifest

    @classmethod
    def restore(
        cls,
        path,
        config: Optional[ServiceConfig] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        throttle: Optional[ResourceThrottle] = None,
    ) -> "QueryService":
        """Warm-restart a service from a committed snapshot.

        Rebuilds the dual store (placement, statistics, and generation
        intact) and — when ``config`` enables adaptive tuning and the
        snapshot carries adaptive state — the workload window and the
        tuner's learned Q-state, so the restored service serves at the
        snapshotted placement's modelled TTI immediately, with **zero**
        tuning epochs (``benchmarks/bench_warm_restart.py`` pins this).

        The restore replays the root's delta-log tail, when it has one, on
        top of the snapshot (:func:`~repro.persist.wal.restore_with_log`),
        resuming at the exact pre-crash generation whatever ``config`` says.
        With ``SnapshotPolicy(log=True)`` in ``config``, a torn final record
        is truncated and the new service keeps appending where the log left
        off.  Adaptive Q-state restores to the last *full* snapshot (the log
        records store mutations, not tuner learning).
        """
        restored = restore_with_log(path, cost_model=cost_model, throttle=throttle)
        service = cls(restored.dual, config)
        if (
            service.adaptive is not None
            and restored.extras is not None
            and "adaptive" in restored.extras
        ):
            service.adaptive.restore_state(restored.extras["adaptive"])
        if service.last_snapshot is None:
            # A delta-log service that found no resumable tail already
            # anchored (and reported) a newer snapshot of its own.
            service.last_snapshot = restored.manifest
        return service

    # ------------------------------------------------------------------ #
    # Online adaptive tuning (ServiceConfig.adaptive)
    # ------------------------------------------------------------------ #
    def tune_now(self) -> EpochReport:
        """Run one tuning epoch synchronously (adaptive mode only) — the one
        way the service tunes.  The epoch holds the write gate: in-flight
        serves drain first, and concurrent calls run one after the other."""
        if self.adaptive is None:
            raise RuntimeError(
                "adaptive tuning is not enabled; construct the service with "
                "ServiceConfig(adaptive=AdaptiveConfig(...))"
            )
        with self._gate.write_locked():
            return self.adaptive.run_epoch()

    def adaptive_metrics(self) -> Optional[Dict[str, float]]:
        """Cumulative epoch metrics, or ``None`` when adaptive tuning is off."""
        if self.adaptive is None:
            return None
        return self.adaptive.metrics_as_dict()

    # ------------------------------------------------------------------ #
    # Shard observability (sharded relational backends only)
    # ------------------------------------------------------------------ #
    def shard_metrics(self) -> Optional[List[Dict[str, float]]]:
        """Per-shard modelled probe snapshot, or ``None`` when the dual
        store's relational master copy is not sharded.

        One dict per shard: probe counts, rows scanned, physical index
        lookups, and modelled busy seconds (mean/max per probe).
        """
        backend = self.dual.relational
        if isinstance(backend, ShardedRelationalStore):
            return backend.shard_metrics.snapshot()
        return None
