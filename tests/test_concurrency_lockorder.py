"""Full-system lock-order stress under the lockgraph detector.

Drives every concurrent subsystem at once over one live HTTP endpoint —
query serving (gate read side), explicit ``tune_now()`` epochs (gate write
side), explicit checkpointing on the policy path and on a side path
(capture under the write gate, commit under the snapshot I/O lock), and
endpoint ``swap_service`` (service lock against in-flight requests) —
while ``lock_graph`` (conftest) records every
project lock acquisition.  The acceptance contract: the run completes
live (answers are served, mutations land, snapshots commit, swaps happen)
and the observed acquisition-order graph is **acyclic** — the fixture's
teardown assertion turns any AB/BA ordering anywhere in these paths into
a test failure with both witness stacks.
"""

from __future__ import annotations

import threading

from repro import (
    AdaptiveConfig,
    DualStore,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
)
from repro.endpoint import EndpointConfig, SparqlEndpoint
from repro.endpoint.client import sparql_request
from repro.persist import list_snapshots
from repro.rdf.terms import IRI, Triple

CLIENT_THREADS = 3
REQUESTS_PER_CLIENT = 25
MUTATION_ROUNDS = 18
POLICY_CHECKPOINT_EVERY = 3
TUNING_EPOCHS = 6
EXPLICIT_CHECKPOINTS = 4
SERVICE_SWAPS = 4

BASE = "http://stress.example/"


def _triples(count: int, offset: int = 0):
    predicate = IRI(BASE + "links")
    genre = IRI(BASE + "genre")
    rows = []
    for index in range(offset, offset + count):
        subject = IRI(f"{BASE}user{index}")
        target = IRI(f"{BASE}item{index % 7}")
        rows.append(Triple(subject, predicate, target))
        rows.append(Triple(target, genre, IRI(f"{BASE}g{index % 3}")))
    return rows


QUERY = f"SELECT ?u ?g WHERE {{ ?u <{BASE}links> ?p . ?p <{BASE}genre> ?g . }}"


def test_serving_tuning_checkpoint_and_swap_stress_is_lock_order_clean(
    lock_graph, tmp_path
):
    dual = DualStore().load(_triples(60))
    primary = QueryService(
        dual,
        ServiceConfig(
            adaptive=AdaptiveConfig(window_size=32),
            snapshot=SnapshotPolicy(path=tmp_path / "snaps"),
        ),
    )
    endpoint = SparqlEndpoint(primary, EndpointConfig(max_inflight=4, queue_depth=8))
    endpoint.start()
    spares = []
    errors = []
    served = []
    stop_swapping = threading.Event()

    def client(index: int) -> None:
        try:
            for _ in range(REQUESTS_PER_CLIENT):
                response = sparql_request(endpoint.url, QUERY, timeout=30.0)
                if response.status == 200:
                    served.append(len(response.json()["results"]["bindings"]))
                elif response.status != 503:
                    errors.append(f"client{index}: unexpected status {response.status}")
        except Exception as exc:  # pragma: no cover - failure reporting only
            errors.append(f"client{index}: {exc!r}")

    def mutator() -> None:
        try:
            for round_number in range(MUTATION_ROUNDS):
                batch = _triples(4, offset=1000 + 4 * round_number)
                primary.insert(batch)
                primary.delete(batch[:2])
                if round_number % POLICY_CHECKPOINT_EVERY == POLICY_CHECKPOINT_EVERY - 1:
                    primary.checkpoint()  # on the policy path
        except Exception as exc:  # pragma: no cover
            errors.append(f"mutator: {exc!r}")

    def tuner() -> None:
        try:
            for _ in range(TUNING_EPOCHS):
                primary.tune_now()
        except Exception as exc:  # pragma: no cover
            errors.append(f"tuner: {exc!r}")

    def checkpointer() -> None:
        try:
            for _ in range(EXPLICIT_CHECKPOINTS):
                primary.checkpoint(tmp_path / "explicit")
        except Exception as exc:  # pragma: no cover
            errors.append(f"checkpointer: {exc!r}")

    def swapper() -> None:
        # Repeatedly swap a fresh standby in and the primary back,
        # racing the admission path and the counter fold against live
        # clients.  Old services are kept open until the very end —
        # in-flight requests may still be inside them.
        try:
            for swap_number in range(SERVICE_SWAPS):
                standby = QueryService(DualStore().load(_triples(60)))
                spares.append(standby)
                endpoint.swap_service(standby)
                endpoint.swap_service(primary)
        except Exception as exc:  # pragma: no cover
            errors.append(f"swapper: {exc!r}")
        finally:
            stop_swapping.set()

    threads = [
        threading.Thread(target=client, args=(index,), name=f"stress-client-{index}", daemon=True)
        for index in range(CLIENT_THREADS)
    ]
    threads.append(threading.Thread(target=mutator, name="stress-mutator", daemon=True))
    threads.append(threading.Thread(target=tuner, name="stress-tuner", daemon=True))
    threads.append(threading.Thread(target=checkpointer, name="stress-checkpoint", daemon=True))
    threads.append(threading.Thread(target=swapper, name="stress-swapper", daemon=True))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive(), f"{thread.name} wedged (possible deadlock)"
    finally:
        endpoint.stop()
        primary.close()
        for spare in spares:
            spare.close()

    assert errors == [], "\n".join(errors)
    assert served, "no query was ever answered during the stress run"
    assert endpoint.reloads == 2 * SERVICE_SWAPS
    assert primary.adaptive.metrics.epochs >= 1, "no tuning epoch ran during the run"
    assert list_snapshots(tmp_path / "snaps"), "no snapshot committed on the policy path"

    # The headline assertion (also re-checked by the fixture's teardown):
    # heavy cross-subsystem concurrency produced a rich acquisition-order
    # graph — and not a single cycle.
    assert lock_graph.edges, "instrumentation observed no nested acquisitions"
    lock_graph.assert_acyclic()
