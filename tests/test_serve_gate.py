"""The serving gate every ``QueryService`` holds.

Serves hold the gate shared; every mutation routed through the service
holds it exclusive.  A default-configured service — no adaptive tuning, no
snapshot policy — is gated like any other, so a write can neither run while
a serve is mid-execution nor slip between the generation a serve samples
and the answer it returns.
"""

from __future__ import annotations

import threading

import pytest

from repro import DualStore, QueryService, ServiceConfig
from repro.endpoint.client import sparql_request
from repro.rdf.terms import IRI, Triple

BASE = "http://gate.example/"
LINKS = IRI(BASE + "links")
GENRE = IRI(BASE + "genre")
#: A one-triple partition: small enough for any graph-store budget.
LABEL = IRI(BASE + "label")
QUERY = f"SELECT ?u ?g WHERE {{ ?u <{BASE}links> ?p . ?p <{BASE}genre> ?g . }}"


def _triples(count: int, offset: int = 0):
    rows = []
    for index in range(offset, offset + count):
        item = IRI(f"{BASE}item{index}")
        rows.append(Triple(IRI(f"{BASE}user{index}"), LINKS, item))
        rows.append(Triple(item, GENRE, IRI(f"{BASE}g{index % 3}")))
    return rows


def test_generation_header_is_the_generation_the_body_reflects(lock_graph, endpoint_factory):
    """A write landing after the request read the store but before the serve
    took the gate must not leave the response stamped with the older
    generation while its body was computed at the newer one."""
    endpoint, service = endpoint_factory(triples=_triples(5))
    before = service.dual.generation
    gate = service._gate
    original = gate.acquire_read
    injected = threading.Event()

    def acquire_read_after_a_write():
        if not injected.is_set():
            injected.set()
            writer = threading.Thread(target=service.insert, args=(_triples(1, offset=100),))
            writer.start()
            writer.join(timeout=30)
        original()

    gate.acquire_read = acquire_read_after_a_write
    try:
        response = sparql_request(endpoint.url, QUERY, timeout=30.0)
    finally:
        gate.acquire_read = original
    assert injected.is_set()
    assert response.status == 200
    assert service.dual.generation == before + 1
    # The body holds the inserted row: it was computed at before + 1 ...
    assert len(response.json()["results"]["bindings"]) == 6
    # ... and the header says so.
    assert response.generation == before + 1


@pytest.mark.parametrize("mutation", ["insert", "transfer_partition", "checkpoint"])
def test_default_service_mutations_wait_for_an_in_flight_serve(lock_graph, mutation, tmp_path):
    dual = DualStore().load(_triples(8) + [Triple(IRI(BASE + "user0"), LABEL, IRI(BASE + "a"))])
    with QueryService(dual, ServiceConfig()) as service:
        processor = dual.processor
        original = processor.process
        executing = threading.Event()
        release = threading.Event()

        def held_process(*args, **kwargs):
            executing.set()
            assert release.wait(timeout=30)
            return original(*args, **kwargs)

        processor.process = held_process
        mutate = {
            "insert": lambda: service.insert(_triples(1, offset=100)),
            "transfer_partition": lambda: service.transfer_partition(LABEL),
            "checkpoint": lambda: service.checkpoint(tmp_path / "snapshots"),
        }[mutation]
        served = []
        mutated = threading.Event()
        reader = threading.Thread(target=lambda: served.append(service.run_query(QUERY)))
        writer = threading.Thread(target=lambda: (mutate(), mutated.set()))
        try:
            reader.start()
            assert executing.wait(timeout=30)
            writer.start()
            # The serve is parked inside execution, holding the read gate:
            # the mutation must not complete underneath it.
            assert not mutated.wait(timeout=0.3)
        finally:
            release.set()
            reader.join(timeout=30)
            writer.join(timeout=30)
            processor.process = original
        assert mutated.is_set()
        assert not reader.is_alive() and not writer.is_alive()
        # The held serve answered at the generation it sampled, before the
        # mutation (a checkpoint does not move the generation).
        assert len(served) == 1 and served[0].generation == 1
