"""SPARQL 1.1 Protocol codec: request parsing and result serialization.

The wire format the endpoint speaks is deliberately the standard one so any
SPARQL client can talk to it:

* **Requests** (`SPARQL 1.1 Protocol`_): ``GET /sparql?query=...`` with the
  query URL-encoded, ``POST /sparql`` with an
  ``application/x-www-form-urlencoded`` body carrying ``query=...``, or
  ``POST /sparql`` with the bare query text as an
  ``application/sparql-query`` body.
* **Responses** (`SPARQL 1.1 Query Results JSON Format`_):
  ``application/sparql-results+json`` documents of the shape
  ``{"head": {"vars": [...]}, "results": {"bindings": [...]}}`` where every
  bound term is rendered as a typed JSON object (``uri`` / ``literal`` with
  optional ``xml:lang`` or ``datatype`` / ``bnode``).
* **Errors**: machine-readable JSON bodies
  ``{"error": {"code": ..., "message": ...}}`` carried on the appropriate
  4xx/5xx status, so clients never have to scrape HTML error pages.

Everything here is pure functions over bytes and :class:`ExecutionResult`
objects — no sockets — so the protocol conformance suite can pin the encoder
byte-for-byte against direct :class:`~repro.serve.service.QueryService`
results, and the HTTP layer (:mod:`repro.endpoint.server`) stays a thin
transport.

.. _SPARQL 1.1 Protocol: https://www.w3.org/TR/sparql11-protocol/
.. _SPARQL 1.1 Query Results JSON Format: https://www.w3.org/TR/sparql11-results-json/
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.execution import ExecutionResult, ResultColumns
from repro.rdf.terms import BlankNode, IRI, Literal, TermLike, XSD_STRING
from repro.relstore import columnar
from repro.resilience.deadline import current_deadline

__all__ = [
    "RESULTS_JSON",
    "ERROR_JSON",
    "ProtocolError",
    "encode_results",
    "encode_error",
    "negotiate_accept",
    "SparqlRequest",
    "request_from_get",
    "request_from_post",
]

#: The response media type of every successful query answer.
RESULTS_JSON = "application/sparql-results+json"
#: Error bodies are plain JSON (they are not result sets).
ERROR_JSON = "application/json"

#: Media types a client may list in ``Accept`` and still receive
#: :data:`RESULTS_JSON` (the JSON results format *is* JSON, and wildcard
#: ranges delegate the choice to the server).
_ACCEPTABLE = {
    RESULTS_JSON,
    "application/json",
    "application/*",
    "*/*",
}

_FORM_URLENCODED = "application/x-www-form-urlencoded"
_SPARQL_QUERY = "application/sparql-query"


class ProtocolError(ReproError):
    """A request violated the SPARQL protocol (client error, 4xx).

    Carries everything the HTTP layer needs to render the response: the
    status code, a stable machine-readable ``code`` slug for the JSON error
    body, and the human-readable message.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


# --------------------------------------------------------------------------- #
# Result serialization
# --------------------------------------------------------------------------- #
#: What ``json.dumps`` itself calls for a string under ``ensure_ascii=True``,
#: so a fragment's escapes equal those of ``json.dumps`` over the dict form.
_quote = json.encoder.encode_basestring_ascii


def _term_fragment(term: TermLike) -> str:
    """One bound term as its compact SPARQL-results-JSON object text."""
    if isinstance(term, IRI):
        return '{"type":"uri","value":' + _quote(term.value) + "}"
    if isinstance(term, Literal):
        fragment = '{"type":"literal","value":' + _quote(term.lexical)
        if term.language is not None:
            return fragment + ',"xml:lang":' + _quote(term.language) + "}"
        if term.datatype and term.datatype != XSD_STRING:
            return fragment + ',"datatype":' + _quote(term.datatype) + "}"
        return fragment + "}"
    if isinstance(term, BlankNode):
        return '{"type":"bnode","value":' + _quote(term.label) + "}"
    raise ProtocolError(  # pragma: no cover - executor never binds variables
        500, "unencodable-term", f"cannot serialize term of kind {term.kind!r}"
    )


def _column_fragments(columns: ResultColumns, index: int, start: int, stop: int) -> List[str]:
    """Rows ``start:stop`` of one result column as JSON fragments, each term
    serialized at most once.

    Dictionary ids read the fragment table that lives on the dictionary
    (:meth:`~repro.rdf.dictionary.TermDictionary.fragments`) and outlives the
    request; term columns (the graph route) and columns of a space that
    handed out execution-local ids memoize per call.
    """
    entries = columns.entries(index, start, stop)
    space = columns.space
    if space is None or space.has_local_ids:
        distinct = set(entries)
        terms = zip(distinct, distinct) if space is None else space.decode_map(distinct).items()
        memo = {entry: _term_fragment(term) for entry, term in terms}
        return list(map(memo.__getitem__, entries))
    dictionary = space.dictionary
    table = dictionary.fragments()
    fragments = list(map(table.__getitem__, entries))
    if not all(fragments):  # a None: some id is served for the first time
        missing = {entry for entry, fragment in zip(entries, fragments) if fragment is None}
        for term_id, term in zip(missing, dictionary.decode_many(missing)):
            table[term_id] = _term_fragment(term)
        fragments = list(map(table.__getitem__, entries))
    return fragments


def encode_results(result: ExecutionResult) -> bytes:
    """The canonical wire bytes of one execution's results.

    This is the single serialization both the live endpoint and the
    conformance tests use, so "byte-identical to a direct
    ``QueryService`` answer" is checkable with ``==`` on bytes.  The bytes
    equal ``json.dumps`` (compact separators) over the results document's
    dict form (the test oracle in ``tests/results_json_oracle.py``),
    assembled from the result's columns by joining strings: per column a
    list of term fragments, zipped into rows at C speed, with no per-row
    object in between.

    Rows are assembled :data:`~repro.relstore.columnar.GATHER_CHUNK_ROWS` at
    a time, and the ambient deadline (:mod:`repro.resilience.deadline`), if
    any, is probed before each chunk: encoding a large result is part of the
    request's budget, and a timeout raises
    :class:`~repro.errors.QueryTimeoutError` with the execution's counters as
    the partial work.
    """
    columns = result.columns
    names = columns.names
    head = '{"head":{"vars":%s},"results":{"bindings":[' % json.dumps(
        list(result.variables), separators=(",", ":")
    )
    if not (columns.count and names):
        # No rows, or rows that bind no projected variable.
        return (head + ",".join(["{}"] * columns.count) + "]}}").encode("utf-8")
    keys = [_quote(name) + ":" for name in names]
    opening = "{" + keys[0]
    separator = "}," + opening
    deadline = current_deadline()
    chunk_rows = columnar.GATHER_CHUNK_ROWS
    # Each chunk leaves as bytes at once, so no body-sized string outlives
    # the chunk that made it.
    parts = [(head + opening).encode("utf-8")]
    for start in range(0, columns.count, chunk_rows):
        if deadline is not None:
            deadline.check(result.counters)
        stop = min(start + chunk_rows, columns.count)
        rows = _column_fragments(columns, 0, start, stop)
        for index in range(1, len(names)):
            rows = map(
                ("," + keys[index]).join, zip(rows, _column_fragments(columns, index, start, stop))
            )
        parts.append(((separator if start else "") + separator.join(rows)).encode("utf-8"))
    parts.append(b"}]}}")
    return b"".join(parts)


def encode_error(code: str, message: str, **extra) -> bytes:
    """A machine-readable error body: ``{"error": {"code", "message", ...}}``."""
    payload: Dict[str, object] = {"code": code, "message": message}
    for key, value in extra.items():
        if value is not None:
            payload[key] = value
    return json.dumps({"error": payload}, separators=(",", ":")).encode("utf-8")


# --------------------------------------------------------------------------- #
# Request parsing
# --------------------------------------------------------------------------- #
def _media_type(header: str) -> Tuple[str, Dict[str, str]]:
    """Split ``type/subtype; key=value; ...`` into the type and its params."""
    parts = header.split(";")
    params: Dict[str, str] = {}
    for raw in parts[1:]:
        if "=" in raw:
            key, value = raw.split("=", 1)
            params[key.strip().lower()] = value.strip().strip('"')
    return parts[0].strip().lower(), params


def negotiate_accept(header: Optional[str]) -> str:
    """Check an ``Accept`` header and return the response media type.

    The endpoint produces exactly one representation (:data:`RESULTS_JSON`),
    so negotiation reduces to: is that type — or plain JSON, or a wildcard —
    in the client's list?  A missing header means "anything".  Raises a 406
    :class:`ProtocolError` otherwise.
    """
    if header is None or not header.strip():
        return RESULTS_JSON
    for entry in header.split(","):
        media, _params = _media_type(entry)
        if media in _ACCEPTABLE:
            return RESULTS_JSON
    raise ProtocolError(
        406,
        "not-acceptable",
        f"this endpoint only produces {RESULTS_JSON}; "
        f"the Accept header {header!r} excludes it",
    )


def _single_query_param(params: Dict[str, List[str]], where: str) -> str:
    values = params.get("query", [])
    if not values:
        raise ProtocolError(
            400, "missing-query", f"no 'query' parameter in the {where}"
        )
    if len(values) > 1:
        raise ProtocolError(
            400, "duplicate-query", f"multiple 'query' parameters in the {where}"
        )
    query = values[0]
    if not query.strip():
        raise ProtocolError(400, "missing-query", f"empty 'query' parameter in the {where}")
    return query


@dataclass(frozen=True)
class SparqlRequest:
    """One parsed protocol request: the query text plus request options.

    ``timeout_seconds`` is the optional per-request wall-clock deadline
    (the ``timeout`` parameter, in seconds), carried into
    ``QueryService.run_query(deadline_seconds=...)`` by the HTTP layer;
    ``None`` defers to the service's configured default.
    """

    query: str
    timeout_seconds: Optional[float] = None


def _timeout_param(params: Dict[str, List[str]], where: str) -> Optional[float]:
    """The optional ``timeout`` parameter: a positive, finite float."""
    values = params.get("timeout", [])
    if not values:
        return None
    if len(values) > 1:
        raise ProtocolError(
            400, "duplicate-timeout", f"multiple 'timeout' parameters in the {where}"
        )
    try:
        seconds = float(values[0])
    except ValueError:
        raise ProtocolError(
            400, "invalid-timeout", f"'timeout' is not a number: {values[0]!r}"
        )
    if not math.isfinite(seconds) or seconds <= 0:
        raise ProtocolError(
            400, "invalid-timeout", "'timeout' must be a positive number of seconds"
        )
    return seconds


def request_from_get(query_string: str) -> SparqlRequest:
    """Parse a ``GET /sparql?query=...[&timeout=...]`` URL."""
    params = parse_qs(query_string)
    return SparqlRequest(
        query=_single_query_param(params, "query string"),
        timeout_seconds=_timeout_param(params, "query string"),
    )


def request_from_post(
    content_type: Optional[str], body: bytes, query_string: str = ""
) -> SparqlRequest:
    """Parse a ``POST /sparql`` body (plus the URL's own parameters).

    Supports both protocol-mandated request forms: URL-encoded form
    parameters and the direct ``application/sparql-query`` body.  Anything
    else is a 415 (the protocol's "unsupported media type" case, not a 400:
    the request may be perfectly well-formed for a media type this endpoint
    simply does not consume).  The ``timeout`` option is read from the form
    body in the form-encoded case and from the URL query string in the
    direct-body case (the body *is* the query there).
    """
    if content_type is None or not content_type.strip():
        raise ProtocolError(
            415, "missing-content-type", "POST requires a Content-Type header"
        )
    media, params = _media_type(content_type)
    charset = params.get("charset", "utf-8")
    try:
        text = body.decode(charset)
    except (LookupError, UnicodeDecodeError) as exc:
        raise ProtocolError(400, "undecodable-body", f"cannot decode request body: {exc}")
    if media == _FORM_URLENCODED:
        form = parse_qs(text)
        return SparqlRequest(
            query=_single_query_param(form, "form body"),
            timeout_seconds=_timeout_param(form, "form body"),
        )
    if media == _SPARQL_QUERY:
        if not text.strip():
            raise ProtocolError(400, "missing-query", "empty application/sparql-query body")
        return SparqlRequest(
            query=text,
            timeout_seconds=_timeout_param(parse_qs(query_string), "query string"),
        )
    raise ProtocolError(
        415,
        "unsupported-media-type",
        f"POST bodies must be {_FORM_URLENCODED} or {_SPARQL_QUERY}, not {media!r}",
    )
