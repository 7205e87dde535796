"""Network-facing SPARQL endpoint and multi-process replicated serving.

The wire layer over :class:`~repro.serve.service.QueryService`:

* :mod:`repro.endpoint.protocol` — SPARQL 1.1 protocol request parsing and
  ``application/sparql-results+json`` serialization (pure functions, so the
  conformance suite pins the wire bytes against direct service answers);
* :mod:`repro.endpoint.server` — the stdlib HTTP server: ``/sparql`` (GET +
  both POST forms), ``/healthz``, ``/metrics``, bounded-queue admission
  control with exact shed accounting, generation-stamped responses;
* :mod:`repro.endpoint.worker` — the leader/follower multi-process mode:
  read-only worker processes restore :mod:`repro.persist` snapshot
  generations and hot-reload when the leader commits a new one, plus the
  :class:`WorkerSupervisor` that spawns and fault-injects the fleet;
* :mod:`repro.endpoint.client` — stdlib client helpers, including the
  retrying round-robin :class:`EndpointPool` the benchmarks use.
"""

from repro.endpoint.client import EndpointPool, EndpointResponse, fetch_json, sparql_request
from repro.endpoint.protocol import (
    ERROR_JSON,
    RESULTS_JSON,
    ProtocolError,
    SparqlRequest,
    encode_error,
    encode_results,
    request_from_get,
    request_from_post,
)
from repro.endpoint.server import (
    GENERATION_HEADER,
    AdmissionGate,
    EndpointConfig,
    SparqlEndpoint,
)
from repro.endpoint.worker import WorkerOptions, WorkerSupervisor, run_worker

__all__ = [
    "AdmissionGate",
    "EndpointConfig",
    "EndpointPool",
    "EndpointResponse",
    "ERROR_JSON",
    "GENERATION_HEADER",
    "ProtocolError",
    "RESULTS_JSON",
    "SparqlEndpoint",
    "SparqlRequest",
    "WorkerOptions",
    "WorkerSupervisor",
    "encode_error",
    "encode_results",
    "fetch_json",
    "request_from_get",
    "request_from_post",
    "run_worker",
    "sparql_request",
]
