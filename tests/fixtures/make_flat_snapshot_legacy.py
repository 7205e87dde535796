"""Write ``flat_snapshot_legacy/``: a flat (unsharded) v1 snapshot and what it answered.

The committed snapshot was written by a build whose snapshots also carried
derived values: a ``dataset_fingerprint`` in ``MANIFEST.json`` and the
planner ``statistics`` plus an ``engine`` tag in ``relational.json``.
Current builds write neither and ignore both on read;
``tests/test_persist.py::test_flat_snapshot_of_an_older_build_restores``
restores the snapshot and requires the answers recorded here.

The store is ``DualStore(TUNER_CONFIG)`` over ``generate_watdiv(800,
seed=23)``.  DOTIL tunes it on a two-hop ``follows`` path (the complex
subquery of :data:`PATH`), which transfers that one partition to the graph
store; then one ``follows`` triple is deleted, so the graph-store replica
lags the relational master copy.

The recorded queries are the first :data:`QUERIES_PER_FAMILY` of each
WatDiv template family (all relational at this placement) and the
``follows`` queries of :data:`GRAPH_QUERIES`, which take the graph and
split routes.  ``expected.json`` holds the generation, the resident
predicates, the transfer log, the triple count and, per query, the SPARQL
text, the route, the row count, a digest of the answers in result order,
the work counters and ``repr`` of the modelled seconds (the record's and
the result's).

Running this script with a current build writes a snapshot without the
derived keys, which no longer tests the legacy read; it documents how the
committed files were made::

    PYTHONPATH=src python tests/fixtures/make_flat_snapshot_legacy.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from repro import Dotil, DotilConfig, DualStore, generate_watdiv, watdiv_workload
from repro.sparql import parse_query

FIXTURE = Path(__file__).with_name("flat_snapshot_legacy")

TUNER_CONFIG = DotilConfig(r_bg=0.2, prob=1.0, gamma=0.7, lam=4.5)
FAMILIES = ("linear", "star", "snowflake", "complex")
QUERIES_PER_FAMILY = 3

W = "http://db.uwaterloo.ca/~galuc/wsdbm/"
#: The query DOTIL tunes on: its complex subquery is the two ``follows`` hops.
PATH = (
    f"SELECT ?a ?c WHERE {{ ?a <{W}follows> ?b . ?b <{W}follows> ?c . "
    f"?a <{W}age> ?x . ?c <{W}age> ?y . }}"
)
GRAPH_QUERIES = (
    PATH,
    f"SELECT ?b WHERE {{ ?a <{W}follows> ?b . ?b <{W}follows> ?c . "
    f"?a <{W}userName> ?n . ?c <{W}email> ?e . }}",
    f"SELECT ?a ?b WHERE {{ ?a <{W}follows> ?b . ?b <{W}follows> ?a . }}",
    f"SELECT ?a ?b ?c WHERE {{ ?a <{W}follows> ?b . ?b <{W}follows> ?c . ?c <{W}follows> ?a . }}",
)


def ordered_answers_sha256(result) -> str:
    """SHA-256 over the answers' N-Triples renderings, in result order."""
    lines = (
        " ".join(f"{name}={term.n3()}" for name, term in sorted(binding.items()))
        for binding in result.bindings
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def build_store():
    """The tuned store with one resident partition and one delete, and the
    queries whose answers the fixture records."""
    dataset = generate_watdiv(target_triples=800, seed=23)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    Dotil(dual, TUNER_CONFIG).tune([dual.identify(parse_query(PATH))])
    (resident,) = dual.design.in_graph_store
    dual.delete([dual.relational.partition(resident)[0]])
    queries = [
        parse_query(query.to_sparql())
        for family in FAMILIES
        for query in watdiv_workload(dataset, family=family, seed=4).ordered()[:QUERIES_PER_FAMILY]
    ]
    return dual, queries + [parse_query(text) for text in GRAPH_QUERIES]


def main() -> None:
    dual, queries = build_store()
    if FIXTURE.exists():
        shutil.rmtree(FIXTURE)
    dual.snapshot(FIXTURE / "snapshot", keep=1)
    cases = []
    for query in queries:
        processed = dual.run_query(query)
        result = processed.result
        cases.append(
            {
                "sparql": query.to_sparql(),
                "route": processed.record.route,
                "rows": len(result),
                "answers_sha256": ordered_answers_sha256(result),
                "counters": result.counters.as_dict(),
                "record_seconds": repr(processed.record.seconds),
                "result_seconds": repr(result.seconds),
            }
        )
    expected = {
        "generation": dual.generation,
        "resident": sorted(p.value for p in dual.design.in_graph_store),
        "transfer_log": [[kind, predicate.value] for kind, predicate in dual.transfer_log],
        "triple_count": len(dual.relational),
        "queries": cases,
    }
    (FIXTURE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
