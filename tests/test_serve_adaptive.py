"""Tests for the online adaptive tuning subsystem (repro.serve.adaptive) and
the batched-mutation machinery underneath it, plus regressions for the
serve-metrics fixes that landed with it."""

from __future__ import annotations

import threading

import pytest

from repro import (
    AdaptiveConfig,
    Dotil,
    DotilConfig,
    DualStore,
    LRUTuner,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
    generate_watdiv,
    parse_query,
    watdiv_workload,
)
from repro.errors import TuningError
from repro.rdf.namespace import WATDIV
from repro.serve.adaptive import ReadWriteLock, WorkloadWindow
from repro.serve.metrics import LatencyDigest, ServiceCounters

TUNER_CONFIG = DotilConfig(r_bg=0.15, prob=1.0, gamma=0.7, lam=4.5)


@pytest.fixture(scope="module")
def dataset():
    return generate_watdiv(target_triples=2500, seed=7)


@pytest.fixture(scope="module")
def family_mixes(dataset):
    def mix(*families):
        queries = []
        for family in families:
            queries.extend(watdiv_workload(dataset, family=family, seed=19).ordered())
        return queries

    return {"a": mix("linear", "star"), "b": mix("snowflake", "complex")}


@pytest.fixture()
def dual(dataset):
    return DualStore(TUNER_CONFIG).load(dataset.triples)


def adaptive_config(**overrides):
    defaults = dict(
        window_size=128,
        tuner_factory=lambda dual: Dotil(dual, TUNER_CONFIG),
    )
    defaults.update(overrides)
    return AdaptiveConfig(**defaults)


# ---------------------------------------------------------------------- #
# Batched mutations on the dual store
# ---------------------------------------------------------------------- #
def _smallest_partitions(dual, count):
    """The `count` smallest partitions (they always fit the r_bg budget)."""
    sizes = dual.partition_sizes()
    return sorted(sizes, key=lambda p: (sizes[p], p.value))[:count]


class TestBatchedMutations:
    def test_apply_moves_bumps_generation_once(self, dual, dataset):
        predicates = _smallest_partitions(dual, 4)
        before = dual.generation
        receipt = dual.apply_moves(transfers=predicates)
        assert dual.generation == before + 1
        assert receipt.transferred == predicates
        assert receipt.moves == len(predicates)
        assert receipt.import_seconds > 0.0 and receipt.evict_seconds == 0.0

        before = dual.generation
        receipt = dual.apply_moves(evictions=predicates[:2], transfers=[])
        assert dual.generation == before + 1
        assert receipt.evicted == predicates[:2]
        assert receipt.evict_seconds > 0.0

    def test_apply_moves_fires_listeners_once(self, dual):
        fired = []
        dual.add_mutation_listener(lambda ops, generation: fired.append((len(ops), generation)))
        predicates = _smallest_partitions(dual, 3)
        dual.apply_moves(transfers=predicates)
        assert fired == [(3, dual.generation)]

    def test_apply_moves_evicts_before_transferring(self, dual):
        sizes = dual.partition_sizes()
        resident = _smallest_partitions(dual, 3)
        incoming = resident.pop()
        dual.apply_moves(transfers=resident)
        # Clamp the budget so the incoming partition only fits if the batch
        # frees room first: evictions must precede transfers.
        dual.graph.storage_budget = dual.graph.used_capacity() + sizes[incoming] - 1
        receipt = dual.apply_moves(transfers=[incoming], evictions=[resident[0]])
        assert receipt.evicted == [resident[0]]
        assert receipt.transferred == [incoming]

    def test_batch_mutations_without_mutation_does_not_bump(self, dual):
        before = dual.generation
        with dual.batch_mutations():
            pass
        assert dual.generation == before

    def test_batch_mutations_nests(self, dual):
        predicates = _smallest_partitions(dual, 2)
        before = dual.generation
        with dual.batch_mutations():
            with dual.batch_mutations():
                dual.transfer_partition(predicates[0])
            # The inner exit must not fire: still inside the outer batch.
            assert dual.generation == before
            dual.transfer_partition(predicates[1])
        assert dual.generation == before + 1

    def test_evict_returns_modelled_seconds_symmetric_with_transfer(self, dual):
        predicate = _smallest_partitions(dual, 1)[0]
        size = dual.partition_sizes()[predicate]
        import_seconds = dual.transfer_partition(predicate)
        evict_seconds = dual.evict_partition(predicate)
        assert isinstance(evict_seconds, float)
        assert import_seconds == dual.cost_model.graph_import_seconds(size)
        assert evict_seconds == dual.cost_model.graph_evict_seconds(size)
        assert 0.0 < evict_seconds < import_seconds

    def test_service_delegations_return_modelled_seconds(self, dual):
        predicate = _smallest_partitions(dual, 1)[0]
        with QueryService(dual) as service:
            imported = service.transfer_partition(predicate)
            evicted = service.evict_partition(predicate)
        assert isinstance(imported, float) and isinstance(evicted, float)
        assert evicted == dual.cost_model.graph_evict_seconds(dual.partition_sizes()[predicate])


# ---------------------------------------------------------------------- #
# The workload window
# ---------------------------------------------------------------------- #
class TestWorkloadWindow:
    @staticmethod
    def _entry(dual, text):
        query = parse_query(text)
        return "key:" + text, query, dual.identify(query)

    def test_slides_at_capacity(self, dual):
        window = WorkloadWindow(capacity=3)
        for index in range(5):
            key, query, subquery = self._entry(
                dual, f"SELECT ?u WHERE {{ ?u wsdbm:likes ?p{index} . ?p{index} wsdbm:hasGenre ?g . }}"
            )
            window.record(key, query, subquery)
        assert len(window) == 3
        assert window.harvested == 5
        assert [e.key for e in window.snapshot()] == [
            "key:" + f"SELECT ?u WHERE {{ ?u wsdbm:likes ?p{i} . ?p{i} wsdbm:hasGenre ?g . }}"
            for i in (2, 3, 4)
        ]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WorkloadWindow(capacity=0)


class TestAdaptiveConfig:
    def test_epoch_queries_accepts_only_zero(self):
        with pytest.raises(ValueError, match="tune_now"):
            AdaptiveConfig(epoch_queries=8)
        # The frozen benchmark spine's call keeps constructing.
        config = AdaptiveConfig(window_size=64, epoch_queries=0)
        assert config.window_size == 64 and config.epoch_queries == 0


# ---------------------------------------------------------------------- #
# The tuning daemon through the service
# ---------------------------------------------------------------------- #
class TestAdaptiveService:
    def test_plain_service_has_no_adaptive_subsystem(self, dual):
        with QueryService(dual) as service:
            assert service.adaptive is None
            assert service.adaptive_metrics() is None
            with pytest.raises(RuntimeError):
                service.tune_now()

    def test_serves_harvest_into_the_window_hits_included(self, dual, family_mixes):
        with QueryService(dual, ServiceConfig(adaptive=adaptive_config())) as service:
            batch = family_mixes["a"][:10]
            service.run_batch(batch)
            harvested = service.adaptive.window.harvested
            assert harvested > 0
            service.run_batch(batch)  # all result-cache hits
            assert service.adaptive.window.harvested == 2 * harvested

    def test_epoch_applies_moves_with_one_generation_bump(self, dual, family_mixes):
        with QueryService(dual, ServiceConfig(adaptive=adaptive_config())) as service:
            batch = family_mixes["a"]
            service.run_batch(batch)
            assert len(service.result_cache) > 0
            generation, resident = dual.generation, set(dual.graph.loaded_predicates)
            epoch = service.tune_now()
            assert epoch.moves > 1
            assert dual.generation == generation + 1
            metrics = service.adaptive_metrics()
            assert metrics["epochs"] == 1.0
            assert metrics["moves_applied"] == epoch.moves
            # The re-serve drops exactly the cached queries over a partition
            # that changed residency (one evicted and transferred back is
            # the same replica); every other query still hits.
            moved = resident ^ dual.graph.loaded_predicates
            stale = {service.resolve(q).key for q in batch if q.predicates() & moved}
            assert 0 < len(stale) < len({service.resolve(q).key for q in batch})
            again = service.run_batch(batch)
            assert service.metrics.counters.invalidation_events == len(stale)
            assert again.cache_hits == sum(service.resolve(q).key not in stale for q in batch)

    def test_epoch_on_empty_window_is_a_noop(self, dual):
        with QueryService(dual, ServiceConfig(adaptive=adaptive_config())) as service:
            epoch = service.tune_now()
            assert epoch.window_size == 0
            assert epoch.moves == 0
            assert dual.generation == 1  # only the load bump

    def test_epoch_without_moves_does_not_invalidate(self, dual, family_mixes):
        # The LRU tuner converges on a stable desired set under a repeating
        # mix: the second epoch applies no moves, so the generation (and
        # every cached answer) must be left alone.
        config = adaptive_config(tuner_factory=LRUTuner)
        with QueryService(dual, ServiceConfig(adaptive=config)) as service:
            service.run_batch(family_mixes["a"])
            first = service.tune_now()
            assert first.moves > 0
            service.run_batch(family_mixes["a"])
            cached = len(service.result_cache)
            assert cached > 0
            generation = dual.generation
            second = service.tune_now()
            assert second.moves == 0
            assert dual.generation == generation
            assert len(service.result_cache) == cached
            assert service.run_batch(family_mixes["a"]).cache_hits == len(family_mixes["a"])

    def test_served_answers_track_the_new_placement(self, dual, family_mixes, fingerprint):
        with QueryService(dual, ServiceConfig(adaptive=adaptive_config())) as service:
            batch = family_mixes["a"]
            cold = service.run_batch(batch)
            service.tune_now()
            warm = service.run_batch(batch)
            # Fresh executions of the queries over moved partitions, hits
            # for the rest, identical answers, and routing and prices that
            # match the uncached store for every one of them.
            assert warm.cache_hits < len(batch)
            for before, after, query in zip(cold, warm, batch):
                assert fingerprint(after.result) == fingerprint(before.result)
                uncached = dual.run_query(query).record
                assert (after.record.route, after.record.seconds) == (uncached.route, uncached.seconds)

    def test_modelled_tti_delta_is_measured(self, dual, family_mixes):
        with QueryService(dual, ServiceConfig(adaptive=adaptive_config())) as service:
            service.run_batch(family_mixes["a"])
            epoch = service.tune_now()
            assert epoch.tti_before is not None and epoch.tti_after is not None
            assert epoch.tti_delta == epoch.tti_before - epoch.tti_after
            metrics = service.adaptive_metrics()
            assert metrics["last_window_tti_before"] == epoch.tti_before
            assert metrics["last_window_tti_after"] == epoch.tti_after

    def test_baseline_tuners_plug_in(self, dual, family_mixes):
        config = adaptive_config(tuner_factory=LRUTuner)
        with QueryService(dual, ServiceConfig(adaptive=config)) as service:
            service.run_batch(family_mixes["a"])
            generation = dual.generation
            epoch = service.tune_now()
            assert epoch.moves > 0
            assert dual.generation == generation + 1

    def test_tune_now_propagates_a_tuner_error(self, dual, family_mixes):
        class FailingTuner(LRUTuner):
            def tune(self, recent, upcoming=None):
                raise RuntimeError("tuner failure")

        config = adaptive_config(tuner_factory=FailingTuner)
        with QueryService(dual, ServiceConfig(adaptive=config)) as service:
            service.run_batch(family_mixes["a"][:4])
            with pytest.raises(RuntimeError, match="tuner failure"):
                service.tune_now()

    def test_failed_epoch_still_accounts_applied_moves(self, dual, family_mixes):
        """A tuner that dies mid-epoch leaves its already-applied moves (and
        their single generation bump) on the books."""

        class DiesAfterOneMove(LRUTuner):
            def tune(self, recent, upcoming=None):
                predicate = _smallest_partitions(self.dual, 1)[0]
                self.dual.transfer_partition(predicate)
                raise RuntimeError("died mid-epoch")

        config = adaptive_config(tuner_factory=DiesAfterOneMove)
        with QueryService(dual, ServiceConfig(adaptive=config)) as service:
            service.run_batch(family_mixes["a"][:6])
            generation = dual.generation
            with pytest.raises(RuntimeError):
                service.tune_now()
            # The batched context bumped the generation once on unwind.
            assert dual.generation == generation + 1
            metrics = service.adaptive_metrics()
            assert metrics["moves_applied"] == 1.0
            assert metrics["epochs_with_moves"] == 1.0
            assert metrics["import_seconds"] > 0.0

    def test_mutations_through_an_adaptive_service_take_the_write_gate(self, dual):
        with QueryService(dual, ServiceConfig(adaptive=adaptive_config())) as service:
            predicate = _smallest_partitions(dual, 1)[0]
            generation = dual.generation
            assert service.transfer_partition(predicate) > 0.0
            assert service.evict_partition(predicate) > 0.0
            assert service.insert([]) >= 0.0
            # Three mutations, three generation bumps (no batching outside
            # an epoch).
            assert dual.generation == generation + 3

    def test_concurrent_serves_and_epochs_stay_consistent(self, dual, family_mixes, fingerprint):
        """Serving threads race tuning epochs; every answer must match the
        uncached truth of some placement — and the final pass exactly."""
        errors = []
        config = adaptive_config(window_size=64)
        with QueryService(dual, ServiceConfig(adaptive=config)) as service:
            batch = family_mixes["a"][:12]
            truth = [fingerprint(dual.run_query(q).result) for q in batch]

            def serve():
                try:
                    for _ in range(8):
                        served = service.run_batch(batch)
                        for expected, entry in zip(truth, served):
                            if fingerprint(entry.result) != expected:
                                errors.append("served answer diverged")
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(repr(exc))

            def tune():
                try:
                    for _ in range(4):
                        service.tune_now()
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(repr(exc))

            threads = [threading.Thread(target=serve) for _ in range(3)]
            threads.append(threading.Thread(target=tune))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "adaptive stress deadlocked"
            assert not errors, errors[:5]
            # Every epoch bumped the generation at most once, and every
            # dropped cache entry was re-executed.
            metrics = service.adaptive_metrics()
            assert dual.generation <= 1 + metrics["epochs"]
            counters = service.metrics.counters
            assert counters.invalidation_events <= counters.executions

    def test_service_starts_no_threads(self, dual, family_mixes, tmp_path):
        """Serving, writes, epochs and checkpoints all run on the caller's
        thread: the service never starts one of its own."""
        before = set(threading.enumerate())
        config = ServiceConfig(
            adaptive=adaptive_config(),
            snapshot=SnapshotPolicy(path=tmp_path / "snap", log=True),
        )
        with QueryService(dual, config) as service:
            service.run_batch(family_mixes["a"])
            service.transfer_partition(_smallest_partitions(dual, 1)[0])
            assert service.tune_now().moves > 0
            service.checkpoint()
            service.run_batch(family_mixes["b"][:6])
            assert set(threading.enumerate()) == before
        assert set(threading.enumerate()) == before

    def test_concurrent_tune_now_calls_run_one_after_the_other(self, dual, family_mixes):
        """The write gate is the epochs' only lock: two callers racing
        tune_now() get two whole epochs, never two overlapping ones."""
        import time

        spans = []
        spans_lock = threading.Lock()

        class RecordingTuner(LRUTuner):
            def tune(self, recent, upcoming=None):
                with spans_lock:
                    spans.append(("enter", threading.get_ident()))
                time.sleep(0.05)  # widen the window an overlap would need
                try:
                    return super().tune(recent, upcoming)
                finally:
                    with spans_lock:
                        spans.append(("exit", threading.get_ident()))

        config = adaptive_config(tuner_factory=RecordingTuner)
        errors = []
        with QueryService(dual, ServiceConfig(adaptive=config)) as service:
            service.run_batch(family_mixes["a"][:10])
            start = threading.Barrier(2)

            def tune():
                try:
                    start.wait(timeout=10)
                    service.tune_now()
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(repr(exc))

            threads = [threading.Thread(target=tune) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "concurrent tune_now() deadlocked"
            assert not errors, errors
            assert [kind for kind, _ in spans] == ["enter", "exit", "enter", "exit"]
            assert spans[0][1] == spans[1][1] and spans[2][1] == spans[3][1]
            assert service.adaptive.metrics.epochs == 2


# ---------------------------------------------------------------------- #
# The read/write gate
# ---------------------------------------------------------------------- #
class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        state = {"concurrent_readers": 0, "peak_readers": 0, "writer_saw_readers": False}
        state_lock = threading.Lock()
        barrier = threading.Barrier(3)

        def reader():
            barrier.wait(timeout=10)
            with lock.read_locked():
                with state_lock:
                    state["concurrent_readers"] += 1
                    state["peak_readers"] = max(state["peak_readers"], state["concurrent_readers"])
                threading.Event().wait(0.05)
                with state_lock:
                    state["concurrent_readers"] -= 1

        def writer():
            barrier.wait(timeout=10)
            with lock.write_locked():
                with state_lock:
                    if state["concurrent_readers"]:
                        state["writer_saw_readers"] = True

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert state["peak_readers"] == 2
        assert not state["writer_saw_readers"]


# ---------------------------------------------------------------------- #
# Serve-metrics regressions (the satellite bugfixes)
# ---------------------------------------------------------------------- #
class TestBoundedLatencyDigest:
    def test_exact_percentiles_under_the_cap(self):
        digest = LatencyDigest(capacity=16)
        for value in [5.0, 1.0, 2.0, 4.0, 3.0]:
            digest.observe(value)
        assert digest.p50 == 3.0
        assert digest.p95 == 5.0
        assert digest.sample_size == 5

    def test_count_mean_total_stay_exact_past_the_cap(self):
        digest = LatencyDigest(capacity=32)
        observations = [float(i % 97) for i in range(10 * 32)]
        for value in observations:
            digest.observe(value)
        assert digest.count == len(observations)
        assert digest.total == pytest.approx(sum(observations))
        assert digest.mean == pytest.approx(sum(observations) / len(observations))
        # Memory is bounded and percentiles stay plausible estimates.
        assert digest.sample_size == 32
        assert 0.0 <= digest.p50 <= 96.0

    def test_identically_fed_digests_agree(self):
        a, b = LatencyDigest(capacity=8), LatencyDigest(capacity=8)
        for value in range(100):
            a.observe(float(value))
            b.observe(float(value))
        assert a.percentile(50.0) == b.percentile(50.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LatencyDigest(capacity=0)

    def test_service_digest_is_bounded(self, dual):
        with QueryService(dual) as service:
            digest = service.metrics.modelled_latency
            assert digest.capacity == LatencyDigest.DEFAULT_CAPACITY


class TestReadWriteLockReentrancy:
    """Regression: the writer thread re-entering ``acquire_read`` (e.g. a
    tuner epoch callback that tries to serve a query through the service)
    used to wait on its own writer flag forever — a silent deadlock.  It now
    raises a clear ``TuningError`` instead."""

    def test_writer_thread_reacquiring_read_raises(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with pytest.raises(TuningError, match="re-entrant read acquisition"):
                lock.acquire_read()
        # The write side was released cleanly: readers proceed afterwards.
        with lock.read_locked():
            pass

    def test_other_threads_still_block_not_raise(self):
        lock = ReadWriteLock()
        acquired = threading.Event()
        release = threading.Event()
        outcome = {}

        def writer():
            with lock.write_locked():
                acquired.set()
                release.wait(timeout=10)

        def reader():
            # A *different* thread must block (normal contention), not raise.
            lock.acquire_read()
            outcome["read"] = True
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert acquired.wait(timeout=10)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        reader_thread.join(timeout=0.2)
        assert reader_thread.is_alive()  # blocked on the held write lock
        release.set()
        writer_thread.join(timeout=10)
        reader_thread.join(timeout=10)
        assert outcome.get("read") is True

    def test_epoch_callback_serving_through_the_service_fails_loudly(self, dataset):
        """The end-to-end shape of the bug: a tuner that serves a query
        through the service mid-epoch must get a TuningError, not wedge."""

        class ServingTuner(Dotil):
            def __init__(self, dual, service_ref):
                super().__init__(dual, TUNER_CONFIG)
                self._service_ref = service_ref

            def tune(self, recent, upcoming=None):
                self._service_ref["service"].run_query(
                    "SELECT ?s WHERE { ?s wsdbm:follows ?o . ?o wsdbm:follows ?s . }"
                )
                return super().tune(recent, upcoming)

        service_ref = {}
        dual = DualStore(TUNER_CONFIG).load(dataset.triples)
        config = ServiceConfig(
            adaptive=AdaptiveConfig(
                tuner_factory=lambda d: ServingTuner(d, service_ref),
            )
        )
        with QueryService(dual, config) as service:
            service_ref["service"] = service
            service.run_batch(watdiv_workload(dataset, family="star", seed=3).ordered()[:8])
            with pytest.raises(TuningError, match="re-entrant read acquisition"):
                service.tune_now()
