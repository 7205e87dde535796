"""Basic-graph-pattern matching by graph traversal with work accounting.

The matcher evaluates a BGP by expanding a frontier of bindings one pattern
at a time through the adjacency of each resident partition — the
index-free-adjacency evaluation style the paper attributes to Neo4j.  A
resident partition is a :class:`~repro.relstore.columnar.ColumnBlock` (the
master copy's subject and object id columns); its memoized group indexes
are the out adjacency (grouped by subject) and the in adjacency (grouped by
object), each neighbour list in block order.  The frontier is a schema plus
one term-id column per variable, and each pattern extends it with the
relational engine's own two-phase kernels (``join_matches`` /
``cartesian_matches``, then a deadline-chunked gather):

* a forward (backward) expansion joins the bound subject (object) column
  against the out (in) adjacency;
* containment (both ends bound) is the forward expansion's pairs, kept where
  the neighbour is the bound object — a semi-join on the (subject, object)
  key, since a partition holds each pair once;
* a relationship-type scan (neither end bound) pairs every frontier row
  with every edge.

Work is charged as:

* ``nodes_expanded`` — each time a vertex's adjacency list is opened (one
  per frontier row of an expansion or containment step),
* ``edges_traversed`` — each neighbour (or type-scan edge) inspected: the
  sum of the opened degrees, or frontier rows × partition size for a scan.

Both are known from the group sizes before anything output-sized exists.
Output order is that of a per-row walk of adjacency lists: frontier rows in
order, neighbours in block order.  FILTER, DISTINCT and LIMIT run the
relational engine's columnar epilogue, and the projected id columns leave as
the result.  Because each step extends existing bindings through adjacency,
the work is proportional to the traversed neighbourhood rather than the
total graph size, which is what keeps the graph store's latency flat as the
knowledge graph grows (the paper's Table 1).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, TermLike, Variable
from repro.relstore.columnar import (
    ColumnBlock,
    cartesian_matches,
    finish_columnar_pipeline,
    gather_columns,
    join_matches,
)
from repro.relstore.executor import QueryTermSpace
from repro.resilience.deadline import current_deadline
from repro.sparql.algebra import order_patterns_greedily
from repro.sparql.ast import SelectQuery, TriplePattern

__all__ = ["match_query"]


def match_query(
    query: SelectQuery,
    blocks: Mapping[IRI, ColumnBlock],
    dictionary: TermDictionary,
    pattern_order: Sequence[TriplePattern] | None = None,
) -> ExecutionResult:
    """Match the query's BGP over the resident ``blocks`` and return the
    projected solutions as id columns of ``dictionary``.

    ``pattern_order`` overrides the traversal order (used by the planner
    ablation benchmark); by default patterns are ordered greedily by
    selectivity and per-predicate edge counts.
    """
    for pattern in query.patterns:
        if not isinstance(pattern.predicate, IRI):
            raise QueryExecutionError(
                "the graph store only evaluates patterns with concrete predicates"
            )
    if pattern_order is None:
        cardinality = {}
        for pattern in query.patterns:
            block = blocks.get(pattern.predicate)
            cardinality[pattern.predicate] = block.count if block is not None else 0
        ordered = order_patterns_greedily(query.patterns, cardinality=cardinality)
    else:
        ordered = list(pattern_order)

    counters = WorkCounters(queries_issued=1)
    schema: Tuple[str, ...] = ()
    cols: list = []
    count = 1  # the seed frontier: one zero-width row
    for pattern in ordered:
        schema, cols, count = _extend(
            schema, cols, count, pattern, blocks[pattern.predicate], dictionary, counters
        )
        if count == 0:
            break
    return finish_columnar_pipeline(schema, cols, count, query, counters, QueryTermSpace(dictionary))


def _extend(
    schema: Tuple[str, ...],
    cols: list,
    count: int,
    pattern: TriplePattern,
    block: ColumnBlock,
    dictionary: TermDictionary,
    counters: WorkCounters,
):
    """Extend the frontier through one pattern's adjacency.

    With an ambient deadline active (:mod:`repro.resilience.deadline`) the
    step probes it on entry and between gather chunks; probes never touch
    the counters' values.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    subjects, subject_var = _operand(pattern.subject, schema, cols, count, dictionary)
    objects, object_var = _operand(pattern.object, schema, cols, count, dictionary)

    def extended(matches, total: int, names: Tuple[str, ...], targets: list):
        # Frontier columns follow `left`; the new columns are neighbours.
        def produce(left, right):
            return [column[left] for column in cols] + [target[right] for target in targets]

        return schema + names, gather_columns(matches, total, produce, counters), total

    if subject_var is None:
        # Open each bound subject's out adjacency.
        counters.nodes_expanded += count
        matches, total = _adjacency(subjects, block, block.subjects)
        counters.edges_traversed += total
        if object_var is not None:  # forward expansion: the object is new
            return extended(matches, total, (object_var,), [block.objects])
        # Containment: keep the rows whose neighbour list holds the object.
        stored = block.objects
        (kept,) = gather_columns(
            matches, total, lambda left, right: [left[stored[right] == objects[left]]], counters
        )
        return schema, [column[kept] for column in cols], len(kept)

    if object_var is None:
        # Backward expansion: open each bound object's in adjacency.
        counters.nodes_expanded += count
        matches, total = _adjacency(objects, block, block.objects)
        counters.edges_traversed += total
        return extended(matches, total, (subject_var,), [block.subjects])

    # Neither end bound: a relationship-type scan per frontier row.
    counters.edges_traversed += count * block.count
    if subject_var == object_var:
        loops = block.subjects[block.subjects == block.objects]
        return extended(*cartesian_matches(count, len(loops)), (subject_var,), [loops])
    pairs = cartesian_matches(count, block.count)
    return extended(*pairs, (subject_var, object_var), [block.subjects, block.objects])


def _adjacency(probe, block: ColumnBlock, column):
    """Pair each probe id with its neighbour list in the adjacency grouped
    by ``column`` (one of the block's own, so the index is memoized)."""
    if block.count == 0:
        return cartesian_matches(len(probe), 0)
    return join_matches(probe, column, block.group_index(column))


def _operand(
    term: TermLike, schema: Tuple[str, ...], cols: list, count: int, dictionary: TermDictionary
) -> Tuple[Optional[object], Optional[str]]:
    """Lower one pattern endpoint against the frontier.

    Returns ``(id column, None)`` for a bound endpoint — a frontier column,
    or a constant repeated per row (``-1``, which no stored id equals, for a
    term the dictionary lacks) — and ``(None, name)`` for a new variable.
    """
    if isinstance(term, Variable):
        if term.name in schema:
            return cols[schema.index(term.name)], None
        return None, term.name
    term_id = dictionary.lookup(term)
    return np.full(count, -1 if term_id is None else term_id, dtype=np.int64), None
