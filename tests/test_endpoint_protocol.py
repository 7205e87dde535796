"""SPARQL-protocol conformance for the live HTTP endpoint.

Every test here talks to a real in-process :class:`SparqlEndpoint` over a
socket (the ``live_endpoint`` fixture), not to handler objects, so what is
pinned is the actual wire behaviour: request forms, status codes, headers,
and — the central invariant — that the response bytes for every workload
template family are **byte-identical** to encoding the direct
:class:`QueryService` answer with the one canonical encoder.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import DualStore, QueryService
from repro.core.processor import ProcessedQuery
from repro.endpoint import (
    ERROR_JSON,
    GENERATION_HEADER,
    RESULTS_JSON,
    encode_results,
    sparql_request,
)
from repro.rdf import IRI, Literal, Triple, TripleSet, XSD, YAGO
from repro.rdf.terms import BlankNode


def _raw(url: str, *, method: str = "GET", data: bytes | None = None, headers: dict | None = None):
    """One raw HTTP exchange; 4xx/5xx come back as data, not exceptions."""
    request = urllib.request.Request(url, data=data, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def _families(workload):
    """One representative query text per template family, deterministically."""
    chosen = {}
    for entry in workload.queries:
        chosen.setdefault(entry.family, entry.query.to_sparql())
    return dict(sorted(chosen.items()))


class TestRequestForms:
    def test_get_returns_results_json(self, live_endpoint, endpoint_workload):
        endpoint, _service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        response = sparql_request(endpoint.url, query)
        assert response.status == 200
        assert response.headers["content-type"] == RESULTS_JSON
        document = response.json()
        assert set(document) == {"head", "results"}
        assert isinstance(document["head"]["vars"], list)
        assert isinstance(document["results"]["bindings"], list)

    def test_post_forms_match_get_bytes(self, live_endpoint, endpoint_workload):
        """GET, form-encoded POST, and direct POST are the same query; the
        protocol requires they produce the same answer — here, the same bytes."""
        endpoint, _service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        via_get = sparql_request(endpoint.url, query)
        via_form = sparql_request(endpoint.url, query, method="POST")
        via_direct = sparql_request(endpoint.url, query, method="POST", post_form=False)
        assert via_get.status == via_form.status == via_direct.status == 200
        assert via_get.body == via_form.body == via_direct.body

    def test_every_family_byte_identical_to_direct_service(
        self, live_endpoint, endpoint_workload
    ):
        """The tentpole pin: for every template family the wire bytes equal
        ``encode_results`` over the backing service's own answer."""
        endpoint, service = live_endpoint
        families = _families(endpoint_workload)
        assert families, "workload produced no template families"
        for family, query in families.items():
            over_http = sparql_request(endpoint.url, query)
            direct = encode_results(service.run_query(query).result)
            assert over_http.status == 200, family
            assert over_http.body == direct, f"wire bytes diverge for family {family!r}"

    def test_generation_header_stamped(self, live_endpoint, endpoint_workload):
        endpoint, service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        response = sparql_request(endpoint.url, query)
        assert response.generation == service.dual.generation


class TestResultTerms:
    """Typed / language-tagged literals and bnodes on the wire."""

    @pytest.fixture
    def term_endpoint(self, endpoint_factory):
        given = YAGO.term("hasGivenName")
        motto = YAGO.term("hasMotto")
        age = YAGO.term("hasAge")
        located = YAGO.term("isLocatedIn")
        alice, berlin = YAGO.term("Alice"), YAGO.term("Berlin")
        triples = TripleSet(
            [
                Triple(alice, given, Literal("Alice")),
                Triple(alice, motto, Literal("sei ruhig", language="de")),
                Triple(alice, age, Literal("42", datatype=XSD.term("integer").value)),
                Triple(BlankNode("station7"), located, berlin),
            ]
        )
        return endpoint_factory(triples=triples)

    def _one_binding(self, endpoint, query):
        response = sparql_request(endpoint.url, query)
        assert response.status == 200
        bindings = response.json()["results"]["bindings"]
        assert len(bindings) == 1
        return bindings[0]

    def test_plain_literal_has_no_datatype(self, term_endpoint):
        endpoint, _service = term_endpoint
        binding = self._one_binding(
            endpoint, "SELECT ?name WHERE { ?p y:hasGivenName ?name . }"
        )
        assert binding["name"] == {"type": "literal", "value": "Alice"}

    def test_language_literal_carries_xml_lang(self, term_endpoint):
        endpoint, _service = term_endpoint
        binding = self._one_binding(
            endpoint, "SELECT ?m WHERE { ?p y:hasMotto ?m . }"
        )
        assert binding["m"] == {
            "type": "literal",
            "value": "sei ruhig",
            "xml:lang": "de",
        }

    def test_typed_literal_carries_datatype(self, term_endpoint):
        endpoint, _service = term_endpoint
        binding = self._one_binding(endpoint, "SELECT ?a WHERE { ?p y:hasAge ?a . }")
        assert binding["a"] == {
            "type": "literal",
            "value": "42",
            "datatype": XSD.term("integer").value,
        }

    def test_bnode_and_uri_terms(self, term_endpoint):
        endpoint, _service = term_endpoint
        binding = self._one_binding(
            endpoint, "SELECT ?s ?where WHERE { ?s y:isLocatedIn ?where . }"
        )
        assert binding["s"] == {"type": "bnode", "value": "station7"}
        assert binding["where"] == {
            "type": "uri",
            "value": YAGO.term("Berlin").value,
        }


class TestContentNegotiation:
    def test_explicit_results_json_accepted(self, live_endpoint, endpoint_workload):
        endpoint, _service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        response = sparql_request(endpoint.url, query, accept=RESULTS_JSON)
        assert response.status == 200

    def test_plain_json_and_wildcard_accepted(self, live_endpoint, endpoint_workload):
        endpoint, _service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        for accept in ("application/json", "*/*", "application/*", "text/html, */*;q=0.1"):
            response = sparql_request(endpoint.url, query, accept=accept)
            assert response.status == 200, accept
            assert response.headers["content-type"] == RESULTS_JSON

    def test_unproducible_accept_is_406(self, live_endpoint, endpoint_workload):
        endpoint, _service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        response = sparql_request(endpoint.url, query, accept="text/html")
        assert response.status == 406
        assert response.json()["error"]["code"] == "not-acceptable"


class TestClientErrors:
    def test_malformed_query_is_400_with_machine_readable_body(self, live_endpoint):
        endpoint, _service = live_endpoint
        response = sparql_request(endpoint.url, "SELECT ?x WHERE { ?x y:unclosed")
        assert response.status == 400
        assert response.headers["content-type"] == ERROR_JSON
        error = response.json()["error"]
        assert error["code"] == "parse-error"
        assert error["message"]

    def test_missing_query_parameter_is_400(self, live_endpoint):
        endpoint, _service = live_endpoint
        status, _headers, body = _raw(f"{endpoint.url}/sparql")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "missing-query"

    def test_duplicate_query_parameter_is_400(self, live_endpoint):
        endpoint, _service = live_endpoint
        status, _headers, body = _raw(
            f"{endpoint.url}/sparql?query=SELECT&query=SELECT"
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "duplicate-query"

    def test_unknown_path_is_404(self, live_endpoint):
        endpoint, _service = live_endpoint
        status, _headers, body = _raw(f"{endpoint.url}/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"

    def test_unsupported_method_is_405(self, live_endpoint):
        endpoint, _service = live_endpoint
        status, headers, body = _raw(f"{endpoint.url}/sparql", method="PUT", data=b"x")
        assert status == 405
        assert "GET" in headers["Allow"] and "POST" in headers["Allow"]
        assert json.loads(body)["error"]["code"] == "method-not-allowed"

    def test_post_to_control_path_is_405(self, live_endpoint):
        endpoint, _service = live_endpoint
        status, headers, _body = _raw(f"{endpoint.url}/healthz", method="POST", data=b"")
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_unsupported_post_media_type_is_415(self, live_endpoint):
        endpoint, _service = live_endpoint
        status, _headers, body = _raw(
            f"{endpoint.url}/sparql",
            method="POST",
            data=b"SELECT ?s WHERE { ?s y:wasBornIn ?c . }",
            headers={"Content-Type": "text/plain"},
        )
        assert status == 415
        assert json.loads(body)["error"]["code"] == "unsupported-media-type"


class TestControlPlane:
    def test_healthz_reports_role_and_generation(self, live_endpoint):
        endpoint, service = live_endpoint
        status, _headers, body = _raw(f"{endpoint.url}/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["role"] == "standalone"
        assert payload["generation"] == service.dual.generation
        assert payload["reloads"] == 0

    def test_metrics_spans_endpoint_and_service(self, live_endpoint, endpoint_workload):
        endpoint, _service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        assert sparql_request(endpoint.url, query).status == 200
        status, headers, body = _raw(f"{endpoint.url}/metrics")
        assert status == 200
        payload = json.loads(body)
        assert payload["endpoint"]["admitted"] >= 1
        assert payload["endpoint"]["shed_load"] == 0
        assert payload["service"]["counters"]["queries_served"] >= 1
        assert int(headers[GENERATION_HEADER]) == payload["generation"]

    def test_swap_keeps_the_invalidation_event_total(
        self, live_endpoint, endpoint_dataset, endpoint_workload
    ):
        """A stale-entry drop counted before a hot swap survives it: the
        swap adds the old service's counters into the new one's, and a serve
        on the new service adds only its own drops."""
        endpoint, service = live_endpoint
        query = endpoint_workload.queries[0].query.to_sparql()
        cold = service.run_query(query)
        # An entry stored under a stamp the store has moved past.
        planted = ProcessedQuery(result=cold.result, record=cold.record)
        service.result_cache.put(service.resolve(query).key, planted, ("outdated",))
        assert sparql_request(endpoint.url, query).status == 200
        assert service.metrics.counters.invalidation_events == 1

        with QueryService(DualStore().load(endpoint_dataset.triples)) as fresh:
            endpoint.swap_service(fresh)
            try:
                assert fresh.metrics.counters.invalidation_events == 1
                assert sparql_request(endpoint.url, query).status == 200
                assert fresh.metrics.counters.invalidation_events == 1
            finally:
                endpoint.swap_service(service)


class TestPoolRetryBackoff:
    """The pool's retry discipline (no live sockets: the request function and
    the clock are stubbed, so these pin exactly what sleeps happen when)."""

    @staticmethod
    def _response(status: int, headers: dict | None = None, body: bytes = b""):
        from repro.endpoint.client import EndpointResponse

        return EndpointResponse(status, headers or {}, body)

    @staticmethod
    def _pool(monkeypatch, outcomes, **kwargs):
        """An EndpointPool whose requests replay ``outcomes`` (an exception
        instance to raise, or an EndpointResponse to return) and whose sleeps
        are recorded instead of slept."""
        from repro.endpoint import client as client_module
        from repro.endpoint.client import EndpointPool

        script = iter(outcomes)
        slept: list[float] = []

        def fake_request(url, query, **_kwargs):
            outcome = next(script)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(client_module, "sparql_request", fake_request)
        monkeypatch.setattr(client_module.time, "sleep", slept.append)
        pool = EndpointPool(["http://a", "http://b"], **kwargs)
        return pool, slept

    def test_transport_errors_back_off_exponentially_with_a_cap(self, monkeypatch):
        pool, slept = self._pool(
            monkeypatch,
            [ConnectionError("down")] * 4 + [self._response(200, body=b"ok")],
            max_attempts=5,
            retry_backoff_seconds=0.05,
            retry_backoff_cap_seconds=0.15,
        )
        response = pool.query("SELECT * WHERE { ?s ?p ?o . }")
        assert response.status == 200
        assert pool.transport_retries == 4
        # 0.05, 0.10, then capped at 0.15 — never a zero-sleep hot loop.
        assert slept == [0.05, 0.10, 0.15, 0.15]

    def test_no_sleep_after_the_final_attempt(self, monkeypatch):
        pool, slept = self._pool(
            monkeypatch,
            [ConnectionError("down")] * 3,
            max_attempts=3,
            retry_backoff_seconds=0.05,
        )
        with pytest.raises(ConnectionError):
            pool.query("SELECT * WHERE { ?s ?p ?o . }")
        assert len(slept) == 2  # sleeps *between* attempts only

    def test_retry_after_hint_overrides_backoff_up_to_its_cap(self, monkeypatch):
        pool, slept = self._pool(
            monkeypatch,
            [
                self._response(503, {"retry-after": "0.3"}, b"shed"),
                self._response(503, {"retry-after": "60"}, b"shed"),
                self._response(503, {}, b"shed"),
                self._response(200, body=b"ok"),
            ],
            max_attempts=4,
            retry_backoff_seconds=0.05,
            retry_backoff_cap_seconds=1.0,
            retry_after_cap_seconds=2.0,
        )
        response = pool.query("SELECT * WHERE { ?s ?p ?o . }")
        assert response.status == 200
        assert pool.shed_retries == 3
        # Hint honored (0.3), adversarial hint clamped (60 -> 2.0), no hint
        # falls back to the exponential schedule for attempt index 2.
        assert slept == [0.3, 2.0, 0.2]

    def test_exhausted_sheds_return_the_last_503(self, monkeypatch):
        pool, _slept = self._pool(
            monkeypatch,
            [self._response(503, {"retry-after": "0"}, b"shed")] * 2,
            max_attempts=2,
        )
        response = pool.query("SELECT * WHERE { ?s ?p ?o . }")
        assert response.status == 503
        assert pool.shed_retries == 2
