"""Experiment E1 — Table 1: MySQL vs Neo4j latency as the data size grows.

The paper answers the complex SPARQL query

    SELECT ?p WHERE { ?p y:wasBornIn ?city .
                      ?p y:hasAcademicAdvisor ?a .
                      ?a y:wasBornIn ?city . }

in MySQL and Neo4j while varying the triple count from 500k to 5M and reports
that MySQL's latency grows from ~11 s to ~99 s while Neo4j stays under 4 s.

The reproduction runs the same query over the relational and graph engines on
synthetic YAGO slices whose sizes follow the same 1×..10× progression
(scaled down to laptop size).  The expectation is the same *shape*: relational
latency grows roughly linearly with the triple count, graph latency stays
nearly flat, and the gap widens with scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graphstore.store import GraphStore
from repro.relstore.store import RelationalStore
from repro.sparql.parser import parse_query
from repro.workload.yago import generate_yago

__all__ = ["Table1Row", "TABLE1_QUERY", "run_table1", "format_table1"]

#: The paper's Table 1 query (its motivating complex query).
TABLE1_QUERY = (
    "SELECT ?p WHERE { "
    "?p y:wasBornIn ?city . "
    "?p y:hasAcademicAdvisor ?a . "
    "?a y:wasBornIn ?city . }"
)

#: The paper sweeps 500k..5M in steps of 500k — a 1×..10× progression.
PAPER_SCALE_STEPS = 10


@dataclass(frozen=True)
class Table1Row:
    """One column of Table 1: a triple count and both engines' latencies."""

    triples: int
    relational_seconds: float
    graph_seconds: float

    @property
    def speedup(self) -> float:
        if self.graph_seconds <= 0:
            return float("inf")
        return self.relational_seconds / self.graph_seconds


def run_table1(base_triples: int = 1000, steps: int = PAPER_SCALE_STEPS, seed: int = 7) -> List[Table1Row]:
    """Measure both engines on ``steps`` dataset sizes (1×..steps× the base)."""
    query = parse_query(TABLE1_QUERY)
    rows: List[Table1Row] = []
    for step in range(1, steps + 1):
        dataset = generate_yago(base_triples * step, seed=seed)
        relational = RelationalStore()
        relational.load(dataset.triples)
        graph = GraphStore(storage_budget=None, dictionary=relational.dictionary)
        for predicate in query.predicates():
            graph.load_block(predicate, relational.partition_block(predicate))

        relational_result = relational.execute(query)
        graph_result = graph.execute(query)
        if relational_result.distinct_rows() != graph_result.distinct_rows():
            raise AssertionError("relational and graph answers diverged in Table 1 experiment")
        rows.append(
            Table1Row(
                triples=len(dataset.triples),
                relational_seconds=relational_result.seconds,
                graph_seconds=graph_result.seconds,
            )
        )
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """Render the rows in the layout of the paper's Table 1."""
    lines = ["Table 1 — query latency varying #triples (seconds)"]
    header = "  ".join(f"{row.triples:>9d}" for row in rows)
    relational = "  ".join(f"{row.relational_seconds:>9.4f}" for row in rows)
    graph = "  ".join(f"{row.graph_seconds:>9.4f}" for row in rows)
    lines.append(f"#triples    {header}")
    lines.append(f"relational  {relational}")
    lines.append(f"graph       {graph}")
    return "\n".join(lines)
