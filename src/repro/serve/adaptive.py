"""Online adaptive tuning: re-place partitions while the service keeps serving.

The paper's headline property is *incremental* tuning — DOTIL keeps
re-learning which triple partitions deserve the bounded graph store as the
workload drifts.  Until now the tuner only ran in offline experiment scripts;
a :class:`~repro.serve.service.QueryService` served whatever placement it was
given, forever.  This module closes the loop:

* :class:`WorkloadWindow` — a bounded sliding window of the complex
  subqueries recently *served* (harvested per submission, cache hits
  included, so the window reflects traffic frequency, not just cache
  misses).  As the template mix drifts, old-phase entries age out.
* :class:`TuningDaemon` — runs epoch-based tuning: snapshot the window, hand
  it to any :class:`~repro.core.tuner.BaseTuner` (DOTIL by default), and let
  the tuner mutate the dual store — all inside
  :meth:`DualStore.batch_mutations <repro.core.dualstore.DualStore.batch_mutations>`,
  so an epoch of k transfers/evictions bumps the generation **once** and the
  service's result cache is emptied once, not k times.
* :class:`ReadWriteLock` — the serving gate every
  :class:`~repro.serve.service.QueryService` holds, adaptive or not.  Store
  mutations must never run concurrently with query execution (the
  :class:`~repro.core.processor.QueryProcessor` contract), so serves hold the
  gate shared and a tuning epoch — like every mutation routed through the
  service — holds it exclusively.  In-flight serves drain, the epoch
  applies, serving resumes against the new placement.

Epochs run when called: ``QueryService.tune_now()`` takes the write gate and
runs :meth:`TuningDaemon.run_epoch`.  Nothing else starts one — the paper
runs DOTIL periodically between batches, and the caller picks the period.

Accounting stays honest: per epoch the daemon records the moves applied, the
modelled import/evict seconds (symmetric — see
:meth:`DualStore.evict_partition`), the modelled TTI of the window before
and after the epoch (so convergence after a drift is measurable), and the
result-cache invalidations *avoided* by batching (k moves − 1 fire).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.core.dualstore import DualStore
from repro.core.identifier import ComplexSubquery
from repro.core.tuner import BaseTuner, Dotil, TuningReport
from repro.errors import TuningError
from repro.sparql.ast import SelectQuery

__all__ = [
    "AdaptiveConfig",
    "AdaptiveMetrics",
    "EpochReport",
    "ReadWriteLock",
    "TuningDaemon",
    "WindowEntry",
    "WorkloadWindow",
]


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Readers (query serves) share the lock; a writer (tuning epoch, or any
    mutation routed through the service) is exclusive.  Writer preference —
    arriving writers block *new* readers — keeps an epoch from starving under
    steady traffic.

    The lock is **not** re-entrant: if the thread currently holding the
    write side tries to acquire either side again (e.g. a tuner epoch
    callback that serves a query — or mutates — *through the service*), it
    would wait for itself forever.  Both cases raise
    :class:`~repro.errors.TuningError` immediately instead of wedging the
    whole service.  Known limitation: re-entrant *read* acquisition by a
    reader thread while a writer waits can still deadlock — detecting it
    would need per-thread read tracking on the hot serve path, and no code
    in this repository nests serves.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._writer_thread: Optional[int] = None

    def acquire_read(self) -> None:
        with self._condition:
            if self._writer and self._writer_thread == threading.get_ident():
                raise TuningError(
                    "re-entrant read acquisition: this thread holds the write side of "
                    "the serving gate (a tuning epoch or mutation in progress) and "
                    "cannot serve a query through it without deadlocking; run the "
                    "query after the epoch, or directly against the store"
                )
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            if self._writer and self._writer_thread == threading.get_ident():
                raise TuningError(
                    "re-entrant write acquisition: this thread already holds the write "
                    "side of the serving gate (a tuning epoch or mutation in progress) "
                    "and would wait on itself forever; mutate the dual store directly "
                    "from inside an epoch instead of going through the service"
                )
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            except BaseException:
                # An interrupt mid-wait (e.g. KeyboardInterrupt) must not
                # leave a phantom waiting writer behind — readers spin on the
                # counter forever and the whole service wedges.
                self._writers_waiting -= 1
                self._condition.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer = True
            self._writer_thread = threading.get_ident()

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._writer_thread = None
            self._condition.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass(frozen=True)
class WindowEntry:
    """One harvested submission: the plan key, the full query, and its
    complex subquery (always present — simple queries are not harvested)."""

    key: str
    query: SelectQuery
    complex_subquery: ComplexSubquery


class WorkloadWindow:
    """A bounded, thread-safe sliding window of served complex subqueries.

    One entry per *submission* (cache hits and within-batch duplicates
    included): the tuner's reward amortisation and the baselines' frequency
    ranking both weigh partitions by how often traffic touches them, and a
    cache absorbing a hot template must not hide that heat from the tuner.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("WorkloadWindow capacity must be at least 1")
        self.capacity = capacity
        self._entries: Deque[WindowEntry] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.harvested = 0

    def record(self, key: str, query: SelectQuery, complex_subquery: ComplexSubquery) -> None:
        with self._lock:
            self._entries.append(WindowEntry(key, query, complex_subquery))
            self.harvested += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> List[WindowEntry]:
        """The current window contents, oldest first."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """JSON-serializable window state.  Queries persist as their
        deterministic SPARQL rendering; the complex subqueries are re-derived
        on restore (the identifier is a pure function of the query).
        Payloads from older builds also carry a ``pending`` count; restore
        ignores it."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "harvested": self.harvested,
                "entries": [[entry.key, entry.query.to_sparql()] for entry in self._entries],
            }

    def restore_state(self, state: dict, dual: DualStore) -> None:
        from repro.sparql.parser import parse_query  # local: parser imports nothing of serve

        with self._lock:
            self._entries.clear()
            for key, text in state["entries"]:
                query = parse_query(text)
                complex_subquery = dual.identifier.identify(query)
                if complex_subquery is None:  # pragma: no cover - harvested entries are complex
                    continue
                self._entries.append(WindowEntry(key, query, complex_subquery))
            self.harvested = int(state["harvested"])


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunables of the online adaptive tuning subsystem.

    Attributes
    ----------
    window_size:
        Sliding-window capacity in harvested submissions.  Size it to roughly
        one traffic epoch so a drifted mix displaces the old phase within an
        epoch or two.
    epoch_queries:
        Only ``0``: epochs run when ``QueryService.tune_now()`` is called,
        never on a submission count.  The field remains so existing callers
        that pass ``epoch_queries=0`` keep constructing.
    tuner_factory:
        Builds the tuner from the dual store; defaults to DOTIL with the
        store's own config.  Any :class:`~repro.core.tuner.BaseTuner` works —
        the daemon only calls ``tune()``.

    Every epoch with a non-empty window prices the window before and after
    its moves (the convergence signal the drift benchmark plots) through
    :meth:`DualStore.routed_seconds`, which executes a query only when what
    it reads changed since its last price (the dual store's pricing memo).
    Only those executions reach the stores, so *physical* observability —
    e.g. the sharded backend's per-shard probe counts behind
    ``QueryService.shard_metrics()`` — includes them and not the memo hits;
    service-level counters (``executions`` etc.) include neither.
    """

    window_size: int = 256
    epoch_queries: int = 0
    tuner_factory: Callable[[DualStore], BaseTuner] = Dotil

    def __post_init__(self) -> None:
        if self.epoch_queries != 0:
            raise ValueError(
                f"epoch_queries={self.epoch_queries!r}: epochs run only when "
                "QueryService.tune_now() is called; leave epoch_queries at 0"
            )


@dataclass
class EpochReport:
    """What one tuning epoch observed and did."""

    index: int
    window_size: int
    report: Optional[TuningReport]
    generation_before: int
    generation_after: int
    tti_before: Optional[float] = None
    tti_after: Optional[float] = None

    @property
    def moves(self) -> int:
        return self.report.moves if self.report is not None else 0

    @property
    def invalidations(self) -> int:
        """Generation bumps (= result-cache invalidations) this epoch caused.

        At most 1 by construction — the whole epoch runs inside
        ``DualStore.batch_mutations``."""
        return self.generation_after - self.generation_before

    @property
    def tti_delta(self) -> Optional[float]:
        """Modelled window-TTI improvement (positive = epoch helped)."""
        if self.tti_before is None or self.tti_after is None:
            return None
        return self.tti_before - self.tti_after


@dataclass
class AdaptiveMetrics:
    """Cumulative epoch accounting, exposed as
    ``QueryService.adaptive_metrics()``.  Payloads from older builds also
    carry ``epoch_failures``; restore ignores it."""

    epochs: int = 0
    epochs_with_moves: int = 0
    transfers_applied: int = 0
    evictions_applied: int = 0
    import_seconds: float = 0.0
    evict_seconds: float = 0.0
    invalidations_avoided: int = 0
    tti_delta_total: float = 0.0
    last_window_tti_before: float = 0.0
    last_window_tti_after: float = 0.0

    @property
    def moves_applied(self) -> int:
        return self.transfers_applied + self.evictions_applied

    def as_dict(self) -> Dict[str, float]:
        return {
            "epochs": float(self.epochs),
            "epochs_with_moves": float(self.epochs_with_moves),
            "moves_applied": float(self.moves_applied),
            "transfers_applied": float(self.transfers_applied),
            "evictions_applied": float(self.evictions_applied),
            "import_seconds": self.import_seconds,
            "evict_seconds": self.evict_seconds,
            "invalidations_avoided": float(self.invalidations_avoided),
            "tti_delta_total": self.tti_delta_total,
            "last_window_tti_before": self.last_window_tti_before,
            "last_window_tti_after": self.last_window_tti_after,
        }


class TuningDaemon:
    """Runs epoch-based tuning against the live workload window.

    The daemon owns no threads and no lock over the store: the caller of
    :meth:`run_epoch` holds the serving gate's write side, so in-flight
    serves have drained and new serves wait.  ``QueryService.tune_now()``
    is that caller.  Every epoch:

    1. snapshots the window,
    2. prices the window's distinct queries (TTI before),
    3. runs ``tuner.tune(window)`` inside ``dual.batch_mutations()`` — the
       tuner transfers/evicts freely, physical effects are immediate, but the
       generation bumps coalesce into **one** (one result-cache invalidation
       per epoch, however many moves were applied),
    4. re-prices the window (TTI after), and
    5. folds the outcome into :class:`AdaptiveMetrics`.
    """

    def __init__(self, dual: DualStore, tuner: BaseTuner, window: WorkloadWindow):
        self.dual = dual
        self.tuner = tuner
        self.window = window
        self.metrics = AdaptiveMetrics()
        self.last_epoch: Optional[EpochReport] = None
        # Guards metrics/last_epoch for observers: _fold mutates field by
        # field, and a reader overlapping it would see a torn snapshot that
        # breaks the moves-vs-invalidations reconciliation mid-update.
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Epochs
    # ------------------------------------------------------------------ #
    def run_epoch(self) -> EpochReport:
        """Run one tuning epoch now.  The caller holds the serving gate's
        write side (``QueryService.tune_now()`` takes it), which also makes
        concurrent epochs run one after the other."""
        entries = self.window.snapshot()
        generation_before = self.dual.generation
        epoch = EpochReport(
            index=self.metrics.epochs,
            window_size=len(entries),
            report=None,
            generation_before=generation_before,
            generation_after=generation_before,
        )
        if not entries:
            with self._metrics_lock:
                self.metrics.epochs += 1
                self.last_epoch = epoch
            return epoch

        epoch.tti_before = self._window_tti(entries)

        log_mark = len(self.dual.transfer_log)
        try:
            with self.dual.batch_mutations():
                epoch.report = self.tuner.tune([e.complex_subquery for e in entries])
        except BaseException:
            # The tuner may have applied moves before failing — the batch
            # context already fired their (single) invalidation, so the
            # epoch accounting must reflect them or the books stop
            # reconciling (invalidations_avoided == moves − fires).
            epoch.report = self._partial_report(log_mark)
            epoch.generation_after = self.dual.generation
            self._fold(epoch)
            raise
        epoch.generation_after = self.dual.generation
        epoch.tti_after = self._window_tti(entries)
        self._fold(epoch)
        return epoch

    def _partial_report(self, log_mark: int) -> TuningReport:
        """What a *failed* ``tune()`` physically did, reconstructed from the
        dual store's transfer log (entries appended since ``log_mark``).

        Seconds are re-priced from the current partition sizes — identical to
        what the aborted calls returned, except under a graph-store throttle
        (close enough for failure-path accounting).
        """
        report = TuningReport()
        sizes = self.dual.partition_sizes()
        model = self.dual.cost_model
        for kind, predicate in self.dual.transfer_log[log_mark:]:
            size = sizes.get(predicate, 0)
            if kind == "transfer":
                report.transferred.append(predicate)
                report.import_seconds += model.graph_import_seconds(size)
            else:
                report.evicted.append(predicate)
                report.evict_seconds += model.graph_evict_seconds(size)
        return report

    def _window_tti(self, entries: List[WindowEntry]) -> float:
        """Modelled TTI of the window under the *current* placement: the sum
        of every entry's routed price (past the serving caches, which must
        not mask a placement change), so it is what serving the window's
        traffic would cost right now."""
        routed_seconds = self.dual.routed_seconds
        total = 0.0
        for entry in entries:
            total += routed_seconds(entry.query)
        return total

    def _fold(self, epoch: EpochReport) -> None:
        with self._metrics_lock:
            metrics = self.metrics
            metrics.epochs += 1
            report = epoch.report
            if report is not None:
                metrics.transfers_applied += len(report.transferred)
                metrics.evictions_applied += len(report.evicted)
                metrics.import_seconds += report.import_seconds
                metrics.evict_seconds += report.evict_seconds
                if epoch.moves:
                    metrics.epochs_with_moves += 1
                    # Unbatched, every move would have fired the invalidation
                    # hook; batched, the epoch fired it epoch.invalidations
                    # (≤ 1) times.
                    metrics.invalidations_avoided += epoch.moves - epoch.invalidations
            if epoch.tti_delta is not None:
                metrics.tti_delta_total += epoch.tti_delta
                metrics.last_window_tti_before = epoch.tti_before or 0.0
                metrics.last_window_tti_after = epoch.tti_after or 0.0
            self.last_epoch = epoch

    def metrics_as_dict(self) -> Dict[str, float]:
        """A consistent snapshot of the cumulative epoch metrics."""
        with self._metrics_lock:
            return self.metrics.as_dict()

    # ------------------------------------------------------------------ #
    # Durable snapshots (repro.persist)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The adaptive layer's warm-restart payload: the workload window,
        the tuner's learned state (when the tuner supports it — DOTIL does),
        and the cumulative epoch metrics."""
        state: dict = {"window": self.window.snapshot_state()}
        tuner_snapshot = getattr(self.tuner, "snapshot_state", None)
        if callable(tuner_snapshot):
            state["tuner"] = tuner_snapshot()
        with self._metrics_lock:
            state["metrics"] = self.metrics.as_dict()
        return state

    def restore_state(self, state: dict) -> None:
        self.window.restore_state(state["window"], self.dual)
        tuner_state = state.get("tuner")
        tuner_restore = getattr(self.tuner, "restore_state", None)
        if tuner_state is not None and callable(tuner_restore):
            if tuner_state.get("name") == getattr(self.tuner, "name", None):
                tuner_restore(tuner_state)
        metrics = state.get("metrics")
        if metrics:
            with self._metrics_lock:
                m = self.metrics
                m.epochs = int(metrics.get("epochs", 0))
                m.epochs_with_moves = int(metrics.get("epochs_with_moves", 0))
                m.transfers_applied = int(metrics.get("transfers_applied", 0))
                m.evictions_applied = int(metrics.get("evictions_applied", 0))
                m.import_seconds = float(metrics.get("import_seconds", 0.0))
                m.evict_seconds = float(metrics.get("evict_seconds", 0.0))
                m.invalidations_avoided = int(metrics.get("invalidations_avoided", 0))
                m.tti_delta_total = float(metrics.get("tti_delta_total", 0.0))
                m.last_window_tti_before = float(metrics.get("last_window_tti_before", 0.0))
                m.last_window_tti_after = float(metrics.get("last_window_tti_after", 0.0))
