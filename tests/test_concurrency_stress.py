"""Concurrency stress: a QueryService over a sharded store under mixed
readers and mutators must never serve a stale cache hit or drop bindings.

The stores' documented contract is that physical mutations must not run
concurrently with query processing, so the harness wraps traffic in a
reader-writer lock: readers (service queries) share the store, mutators
(insert / transfer / evict) take it exclusively.  What *is* being stressed
is everything the serving layer owns — plan/result caches, generation
validation, batch dedup, the serving gate, and the sharded store's
lazily filled placement memos — all hammered from 8 caller threads at once.

Correctness oracle: every mutation bumps ``DualStore.generation``, and for
each generation the first reader to see it computes the expected answer
straight from the store (bypassing every cache).  Every served answer must
equal the expectation of the generation it was served under:

* a *stale cache hit* would surface an older generation's (different)
  answer — the mutators keep inserting rows that change it;
* a *dropped binding* would surface a subset of the expectation.
"""

from __future__ import annotations

import random
import threading
import time

from repro import DualStore, QueryService, ServiceConfig, ShardingConfig, generate_watdiv
from repro.rdf.namespace import WATDIV
from repro.rdf.terms import IRI, Triple

THREADS_READERS = 6
THREADS_MUTATORS = 2
ITERATIONS_PER_READER = 30
ITERATIONS_PER_MUTATOR = 12

QUERY_TEXTS = [
    # Targets wsdbm:likes / wsdbm:hasGenre, which the mutators grow.
    "SELECT ?u ?p WHERE { ?u wsdbm:likes ?p . }",
    "SELECT ?u ?g WHERE { ?u wsdbm:likes ?p . ?p wsdbm:hasGenre ?g . }",
    "SELECT ?p ?r WHERE { ?p wsdbm:soldBy ?r . ?r wsdbm:locatedIn ?c . }",
]


class ReaderWriterLock:
    """A writer-preferring RW lock (readers share, writers are exclusive)."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
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
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()


def test_mixed_readers_and_mutators_never_observe_staleness_or_dropped_bindings(
    fingerprint, lock_graph
):
    # ``lock_graph`` (conftest) watches every project lock the run touches
    # and fails the test at teardown if any acquisition-order cycle —
    # a potential deadlock — was observed.
    dataset = generate_watdiv(target_triples=2500, seed=31)
    dual = DualStore(
        shards=4, sharding=ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)
    ).load(dataset.triples)

    rw = ReaderWriterLock()
    expected_lock = threading.Lock()
    #: (generation, query text) -> fingerprint computed straight off the store.
    expected: dict = {}
    errors: list = []
    served_generations: set = set()

    likes = WATDIV.term("likes")
    genre = WATDIV.term("hasGenre")
    transferable = [WATDIV.term("soldBy"), WATDIV.term("locatedIn"), WATDIV.term("reviewer")]

    with QueryService(dual, ServiceConfig()) as service:

        def expectation(generation: int, text: str):
            key = (generation, text)
            with expected_lock:
                cached = expected.get(key)
            if cached is not None:
                return cached
            # Uncached ground truth via the store itself (a pure read, safe
            # under the read lock; QueryService caches are bypassed).
            plan = service.resolve(text)
            truth = fingerprint(dual.processor.process(plan.query, plan.complex_subquery).result)
            with expected_lock:
                return expected.setdefault(key, truth)

        start_barrier = threading.Barrier(THREADS_READERS + THREADS_MUTATORS)

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                start_barrier.wait(timeout=30)
                for _ in range(ITERATIONS_PER_READER):
                    time.sleep(rng.random() * 0.002)  # let mutators interleave
                    text = rng.choice(QUERY_TEXTS)
                    rw.acquire_read()
                    try:
                        generation = dual.generation
                        if rng.random() < 0.3:
                            batch = service.run_batch([text, text])
                            results = [entry.result for entry in batch]
                        else:
                            results = [service.run_query(text).result]
                        truth = expectation(generation, text)
                        for result in results:
                            observed = fingerprint(result)
                            if observed != truth:
                                errors.append(
                                    f"generation {generation}: served answer diverged for {text!r} "
                                    f"({len(observed)} vs {len(truth)} rows)"
                                )
                        served_generations.add(generation)
                    finally:
                        rw.release_read()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"reader crashed: {exc!r}")

        def mutator(seed: int) -> None:
            rng = random.Random(seed)
            transferred: list = []
            try:
                start_barrier.wait(timeout=30)
                for step in range(ITERATIONS_PER_MUTATOR):
                    time.sleep(rng.random() * 0.004)
                    rw.acquire_write()
                    try:
                        roll = step % 3
                        if roll == 0:
                            # Grow the queried partitions: changes answers.
                            salt = f"{seed}-{step}"
                            user = IRI(f"http://example.org/stress/u{salt}")
                            product = IRI(f"http://example.org/stress/p{salt}")
                            g = IRI(f"http://example.org/stress/g{salt}")
                            service.insert(
                                [Triple(user, likes, product), Triple(product, genre, g)]
                            )
                        elif roll == 1 and transferable:
                            predicate = transferable.pop(rng.randrange(len(transferable)))
                            service.transfer_partition(predicate)
                            transferred.append(predicate)
                        elif transferred:
                            service.evict_partition(transferred.pop(0))
                    finally:
                        rw.release_write()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"mutator crashed: {exc!r}")

        threads = [
            threading.Thread(target=reader, args=(100 + i,)) for i in range(THREADS_READERS)
        ] + [threading.Thread(target=mutator, args=(200 + i,)) for i in range(THREADS_MUTATORS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "stress threads deadlocked"

        assert not errors, "\n".join(errors[:10])
        # The run actually interleaved: answers were served under several
        # distinct generations, and the mutators really changed them.
        assert len(served_generations) > 1
        assert dual.generation > 1

        # Post-race sanity: the caches converge to the final ground truth.
        for text in QUERY_TEXTS:
            final = service.run_query(text)
            uncached = dual.run_query(service.resolve(text).query)
            assert fingerprint(final.result) == fingerprint(uncached.result)
