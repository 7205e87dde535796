"""An oracle for the results encoder that is not the encoder.

``encode_results`` assembles the wire bytes from a result's columns by joining
per-term JSON fragments; ``results_to_json`` (``results_json_oracle.py``
next to this file) is the dict form of the same document and shares no code
with it beyond the term classes.  The contract pinned here is::

    encode_results(r) == json.dumps(results_to_json(r), separators=(",", ":")).encode()

for every template family of the three datasets — untuned (relational route)
and on a ``PAPER_TUNED_CONFIG`` store after tuning epochs (graph and split
routes), bulk-loaded and written in small batches, served fresh and from
the result cache — plus hand-built results for every term form and result
shape the assembler special-cases, and a hypothesis property over random term
strings whose shrunk counterexamples are replayed by name.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from results_json_oracle import results_to_json
from repro import (
    PAPER_TUNED_CONFIG,
    AdaptiveConfig,
    DualStore,
    QueryService,
    ServiceConfig,
)
from repro.endpoint import EndpointConfig, SparqlEndpoint, encode_results, sparql_request
from repro.errors import TermError
from repro.execution import ExecutionResult, ResultColumns, ResultTable
from repro.rdf import IRI, Literal, Triple, TripleSet, XSD
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import XSD_STRING, BlankNode
from repro.relstore.executor import QueryTermSpace
from repro.sparql import parse_query
from repro.workload import (
    bio2rdf_workload,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    watdiv_workload,
    yago_workload,
)

def oracle(result: ExecutionResult) -> bytes:
    return json.dumps(results_to_json(result), separators=(",", ":")).encode("utf-8")


def check(result: ExecutionResult, context=None) -> bytes:
    body = encode_results(result)
    assert body == oracle(result), context
    return body


# --------------------------------------------------------------------------- #
# Every template family, every route, cached and uncached
# --------------------------------------------------------------------------- #
DATASETS = {
    "yago": (generate_yago, yago_workload),
    "watdiv": (generate_watdiv, watdiv_workload),
    "bio2rdf": (generate_bio2rdf, bio2rdf_workload),
}


@pytest.fixture(scope="module")
def inventories():
    """Per dataset: its triples and one query text per (family, template)."""
    built = {}
    for name, (generate, workload) in DATASETS.items():
        dataset = generate(1200)
        texts = {}
        for entry in workload(dataset).queries:
            texts.setdefault((entry.family, entry.template), entry.query.to_sparql())
        built[name] = (dataset.triples, [texts[key] for key in sorted(texts)])
    return built


def _tuned_service(triples, texts, writer=None) -> QueryService:
    """A ``PAPER_TUNED_CONFIG`` store after three tuning epochs over ``texts``
    (what makes the graph and split routes occur at all); ``writer`` says
    how its master copy was written (one bulk load by default)."""
    if writer is None:
        dual = DualStore(PAPER_TUNED_CONFIG).load(triples)
    else:
        dual = writer.dual(triples, config=PAPER_TUNED_CONFIG)
    service = QueryService(dual, ServiceConfig(adaptive=AdaptiveConfig()))
    for _epoch in range(3):
        for text in texts:
            service.run_query(text)
        service.tune_now()
    return service


@pytest.mark.parametrize("tuned", [False, True], ids=["untuned", "tuned"])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_family_equals_the_dict_oracle(inventories, dataset, tuned, writer):
    triples, texts = inventories[dataset]
    cached = _tuned_service(triples, texts, writer) if tuned else QueryService(writer.dual(triples))
    routes = set()
    with cached, QueryService(cached.dual, ServiceConfig(cache_results=False)) as uncached:
        for text in texts:
            fresh = uncached.run_query(text)
            routes.add(fresh.record.route)
            body = check(fresh.result, text)
            miss = cached.run_query(text)
            hit = cached.run_query(text)
            assert hit.record.from_cache and not fresh.record.from_cache
            assert check(miss.result, text) == body
            assert check(hit.result, text) == body
    assert (routes != {"relational"}) == tuned, routes


def test_tuned_stores_exercise_graph_and_split_routes(inventories):
    """Across the three datasets both non-relational routes are encoded (one
    dataset alone need not show both)."""
    routes = set()
    for triples, texts in inventories.values():
        with _tuned_service(triples, texts) as service:
            for text in texts:
                processed = service.run_query(text)
                routes.add(processed.record.route)
                check(processed.result, text)
    assert {"graph", "split"} <= routes


# --------------------------------------------------------------------------- #
# Hand-built cases: every term form, every shape the assembler special-cases
# --------------------------------------------------------------------------- #
EX = "http://example.org/"
P = IRI(EX + "p")
Q = IRI(EX + "q")

#: (object term, the exact fragment it must serialize to)
TERM_FORMS = [
    (Literal("plain"), '{"type":"literal","value":"plain"}'),
    (Literal("typed as string", XSD_STRING), '{"type":"literal","value":"typed as string"}'),
    (
        Literal("42", XSD.term("integer").value),
        '{"type":"literal","value":"42","datatype":"http://www.w3.org/2001/XMLSchema#integer"}',
    ),
    (Literal("bonjour", language="fr"), '{"type":"literal","value":"bonjour","xml:lang":"fr"}'),
    (BlankNode("b0"), '{"type":"bnode","value":"b0"}'),
    (Literal('say "hi"'), '{"type":"literal","value":"say \\"hi\\""}'),
    (Literal("back\\slash"), '{"type":"literal","value":"back\\\\slash"}'),
    (Literal("tab\there\nnul\x00del\x7f"), '{"type":"literal","value":"tab\\there\\nnul\\u0000del\\u007f"}'),
    (Literal("café 中文 \U0001f600"), '{"type":"literal","value":"caf\\u00e9 \\u4e2d\\u6587 \\ud83d\\ude00"}'),
    (Literal("line\u2028sep\u2029"), '{"type":"literal","value":"line\\u2028sep\\u2029"}'),
    (IRI(EX + "résumé"), '{"type":"uri","value":"http://example.org/r\\u00e9sum\\u00e9"}'),
    (Literal(""), '{"type":"literal","value":""}'),
    (Literal("100%s %d"), '{"type":"literal","value":"100%s %d"}'),
]


def _term_store(writer) -> DualStore:
    triples = [Triple(IRI(f"{EX}s{i}"), P, term) for i, (term, _) in enumerate(TERM_FORMS)]
    triples += [Triple(IRI(f"{EX}s{i}"), Q, IRI(f"{EX}s{i % 3}")) for i in range(len(TERM_FORMS))]
    return writer.dual(TripleSet(triples))


def test_term_forms_serialize_to_the_expected_fragments(writer):
    dual = _term_store(writer)
    result = dual.relational.execute(parse_query(f"SELECT ?s ?o WHERE {{ ?s <{P.value}> ?o . }}"))
    body = check(result).decode("ascii")  # ensure_ascii: the wire is pure ASCII
    rows = dict(zip(result.column("s"), result.column("o")))
    for index, (term, fragment) in enumerate(TERM_FORMS):
        assert rows[IRI(f"{EX}s{index}")] == term
        assert f'{{"s":{{"type":"uri","value":"{EX}s{index}"}},"o":{fragment}}}' in body, term
    # The same terms through a dict-built result (the oracle engines' form).
    assert check(ExecutionResult(bindings=result.bindings, variables=result.variables)) == body.encode()


def test_result_shapes(writer):
    dual = _term_store(writer)
    execute = dual.relational.execute

    empty = execute(parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}absent> ?o . }}"))
    assert check(empty) == b'{"head":{"vars":["s","o"]},"results":{"bindings":[]}}'

    no_variables = execute(parse_query(f"SELECT * WHERE {{ <{EX}s0> <{Q.value}> <{EX}s0> . }}"))
    assert len(no_variables) == 1
    assert check(no_variables) == b'{"head":{"vars":[]},"results":{"bindings":[{}]}}'

    unbound = execute(parse_query(f"SELECT ?s ?zz WHERE {{ ?s <{Q.value}> <{EX}s1> . }}"))
    assert len(unbound) > 1 and unbound.columns.names == ("s",)
    body = check(unbound)
    assert body.startswith(b'{"head":{"vars":["s","zz"]},"results":{"bindings":[{"s":{')
    assert b"zz" not in body[body.index(b"results") :]

    only_unbound = ExecutionResult(None, ("zz",), columns=ResultColumns((), [], 2))
    assert check(only_unbound) == b'{"head":{"vars":["zz"]},"results":{"bindings":[{},{}]}}'

    limited = execute(parse_query(f"SELECT DISTINCT ?o WHERE {{ ?s <{Q.value}> ?o . }} LIMIT 2"))
    assert len(limited) == 2
    assert len(json.loads(check(limited))["results"]["bindings"]) == 2

    three = execute(parse_query(f"SELECT ?s ?o ?x WHERE {{ ?s <{Q.value}> ?o . ?s <{P.value}> ?x . }}"))
    assert len(three) == len(TERM_FORMS)
    check(three)


def test_execution_local_negative_ids(writer):
    """A migrated table (the split route's graph leg) may carry terms the
    relational dictionary has never seen; they get negative ids, which must
    never index the dictionary's fragment table."""
    dual = _term_store(writer)
    foreign = [IRI(EX + "not-in-the-dictionary"), Literal("nor this", language="en")]
    table = ResultTable.from_rows("migrated", ("s", "f"), [(IRI(EX + "s0"), foreign[0]), (IRI(EX + "s1"), foreign[1])])
    query = parse_query(f"SELECT ?s ?f ?o WHERE {{ ?s <{P.value}> ?o . }}")
    result = dual.relational.execute(query, extra_tables=[table])
    assert result.columns.space.has_local_ids
    assert result.column("f") == foreign
    body = check(result)
    assert b"not-in-the-dictionary" in body and b'"xml:lang":"en"' in body
    dictionary = dual.relational.table.dictionary
    assert len(dictionary.fragments()) == len(dictionary)
    assert all(term not in dictionary for term in foreign)


# --------------------------------------------------------------------------- #
# Random term strings
# --------------------------------------------------------------------------- #
def _terms_of(text: str, other: str):
    """Every term form that accepts ``text`` (and ``other`` as tag/datatype)."""
    terms = [Literal(text), Literal(text, other), BlankNode(text or "b")]
    if other:
        terms.append(Literal(text, language=other))
    try:
        terms.append(IRI(text))
    except TermError:
        pass
    return terms


def _check_strings(text: str, other: str) -> None:
    terms = _terms_of(text, other)
    names = ("a", text or "v")  # variable names are keys: quoted like any string
    bindings = [{names[0]: term, names[1]: terms[-1 - i]} for i, term in enumerate(terms)]
    check(ExecutionResult(bindings=bindings, variables=names), (text, other))
    # The same rows as dictionary ids reading the persistent fragment table,
    # twice: the second pass is served from the table.
    dictionary = TermDictionary()
    ids = [dictionary.encode(term) for term in terms]
    columns = ResultColumns(names, [ids, ids[::-1]], len(ids), QueryTermSpace(dictionary))
    for _pass in range(2):
        check(ExecutionResult(None, names, columns=columns), (text, other))
    assert len(dictionary.fragments()) == len(dictionary)


_any_text = st.text(st.characters(exclude_categories=()), max_size=12)  # surrogates included


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_any_text, other=_any_text)
def test_random_term_strings(text, other):
    assume((text or "v") != "a")  # the two variable names must differ
    _check_strings(text, other)


#: Strings a json encoder is most likely to get wrong, by name.
COUNTEREXAMPLES = {
    "quote": '"',
    "backslash_then_quote": '\\"',
    "nul": "\x00",
    "unit_separator": "\x1f",
    "del": "\x7f",
    "line_separator": "\u2028",
    "lone_high_surrogate": "\ud800",
    "lone_low_surrogate": "\udfff",
    "astral_plane": "\U0001f600",
    "percent_directive": "%s%(x)d%%",
    "brace_lookalike": '"},{"',
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
def test_checked_in_counterexample(name):
    text = COUNTEREXAMPLES[name]
    _check_strings(text, text)
    _check_strings(text, "")


# --------------------------------------------------------------------------- #
# The fragment table: shared by handler threads, owned by the dictionary
# --------------------------------------------------------------------------- #
def _filled(dictionary) -> int:
    return sum(fragment is not None for fragment in dictionary.fragments())


def test_eight_clients_share_one_fragment_table(endpoint_factory, endpoint_dataset, endpoint_workload):
    endpoint, service = endpoint_factory(service_config=ServiceConfig(cache_results=False))
    dictionary = service.dual.relational.table.dictionary
    texts = sorted({entry.query.to_sparql() for entry in endpoint_workload.queries})
    # Expected bodies from a second store: the server's table starts empty.
    with QueryService(DualStore().load(endpoint_dataset.triples)) as reference:
        expected = {text: oracle(reference.run_query(text).result) for text in texts}
    assert _filled(dictionary) == 0
    failures = []

    def client(offset: int) -> None:
        try:
            for step in range(3 * len(texts)):
                text = texts[(offset + step) % len(texts)]  # overlapping term sets
                response = sparql_request(endpoint.url, text)
                assert response.status == 200 and response.body == expected[text], text
        except Exception as exc:  # surfaced below, in the main thread
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,), name=f"client-{i}", daemon=True) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # handler threads interleave inside the table fill
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert 0 < _filled(dictionary) <= len(dictionary.fragments()) == len(dictionary)

    # An insert that adds terms mid-stream: the next read serves them.
    newcomer = IRI(EX + "newcomer")
    predicate = next(iter(endpoint_dataset.triples)).predicate
    before = len(dictionary)
    service.insert([Triple(newcomer, predicate, Literal("fresh \u2028 term"))])
    assert len(dictionary) > before
    response = sparql_request(endpoint.url, f"SELECT ?o WHERE {{ <{newcomer.value}> <{predicate.value}> ?o . }}")
    assert response.body == b'{"head":{"vars":["o"]},"results":{"bindings":[{"o":{"type":"literal","value":"fresh \\u2028 term"}}]}}'
    assert len(dictionary.fragments()) == len(dictionary)


def test_fragment_table_dies_with_its_dictionary(endpoint_dataset, tmp_path):
    """No registry, no generation: after ``restore`` + ``swap_service`` the
    old dictionary — and the table that lives on it — is garbage."""
    config = ServiceConfig(cache_results=False)
    service = QueryService(DualStore().load(endpoint_dataset.triples), config)
    endpoint = SparqlEndpoint(service, EndpointConfig())
    endpoint.start()
    try:
        text = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . } LIMIT 50"
        body = sparql_request(endpoint.url, text).body
        old_dictionary = weakref.ref(service.dual.relational.table.dictionary)
        assert _filled(old_dictionary()) > 0

        service.checkpoint(tmp_path / "snap")
        restored = QueryService.restore(tmp_path / "snap", config)
        new_dictionary = restored.dual.relational.table.dictionary
        assert new_dictionary is not old_dictionary() and _filled(new_dictionary) == 0
        endpoint.swap_service(restored).close()
        assert sparql_request(endpoint.url, text).body == body
        assert _filled(new_dictionary) > 0
        del service
        gc.collect()
        assert old_dictionary() is None
    finally:
        endpoint.stop()
        endpoint.service.close()
