"""The dict-form results-JSON oracle for the wire encoder.

:func:`results_to_json` builds the SPARQL 1.1 Query Results JSON document of
one execution as plain dicts, one binding dict per row, and shares no code
with :func:`repro.endpoint.protocol.encode_results`, which assembles the
bytes straight from the result's columns.  It is the reference
``tests/test_endpoint_encoder_oracle.py`` holds the encoder to::

    encode_results(r) == json.dumps(results_to_json(r), separators=(",", ":")).encode()

Oracles live with the tests; nothing under ``src/`` imports them (lint rule
REP009), and the serving path never builds this form.
"""

from __future__ import annotations

from typing import Dict, List

from repro.endpoint import ProtocolError
from repro.execution import ExecutionResult
from repro.rdf.terms import XSD_STRING, BlankNode, IRI, Literal, TermLike

__all__ = ["term_to_json", "results_to_json"]


def term_to_json(term: TermLike) -> Dict[str, str]:
    """One bound term as a SPARQL-results-JSON term object."""
    if isinstance(term, IRI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, Literal):
        obj = {"type": "literal", "value": term.lexical}
        if term.language is not None:
            obj["xml:lang"] = term.language
        elif term.datatype and term.datatype != XSD_STRING:
            obj["datatype"] = term.datatype
        return obj
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    raise ProtocolError(500, "unencodable-term", f"cannot serialize term of kind {term.kind!r}")


def results_to_json(result: ExecutionResult) -> Dict[str, object]:
    """The results-JSON document for one execution, as plain dicts.

    Binding keys are emitted in the projection order (``result.variables``),
    not dict-insertion order, so the document is deterministic for a given
    solution sequence no matter how the executor assembled its binding dicts.
    """
    variables = list(result.variables)
    bindings: List[Dict[str, Dict[str, str]]] = []
    for binding in result.bindings:
        bindings.append(
            {name: term_to_json(binding[name]) for name in variables if name in binding}
        )
    return {"head": {"vars": variables}, "results": {"bindings": bindings}}
