"""Basic-graph-pattern matching by graph traversal with work accounting.

The matcher evaluates a BGP by expanding bindings one pattern at a time using
the adjacency lists of :class:`~repro.graphstore.property_graph.PropertyGraph`
— the index-free-adjacency evaluation style the paper attributes to Neo4j.
Work is charged as:

* ``nodes_expanded`` — each time a vertex's adjacency list is opened,
* ``edges_traversed`` — each neighbour (or type-scan edge) inspected.

Because each step extends existing bindings through adjacency lists, the work
is proportional to the traversed neighbourhood rather than the total graph
size, which is what keeps the graph store's latency flat as the knowledge
graph grows (the paper's Table 1).

Like the relational columnar engine, the matcher follows the
**late-materialization** discipline: the pipeline is a flat variable schema
plus positional tuples (extending a solution is one tuple concatenation, not
a dict copy), and the rows that survived filters, DISTINCT, and LIMIT leave
as columns (:class:`~repro.execution.ResultColumns`), never as per-solution
dictionaries.  The graph side has no term dictionary — vertices *are* terms —
so its tuples and columns hold terms rather than ids, but the
decode-late/allocate-late structure is the same, keeping DualStore
store-vs-store comparisons apples-to-apples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult, ResultColumns
from repro.resilience.deadline import current_deadline, probed_rows
from repro.rdf.terms import IRI, TermLike, Variable
from repro.sparql.ast import SelectQuery, TriplePattern
from repro.sparql.algebra import order_patterns_greedily

from repro.graphstore.property_graph import PropertyGraph

__all__ = ["GraphMatcher"]

#: One pipeline row: bound terms, positionally aligned with the schema.
_TermRow = Tuple[TermLike, ...]


class GraphMatcher:
    """Evaluates SELECT queries against a property graph by traversal."""

    def __init__(self, graph: PropertyGraph):
        self._graph = graph

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SelectQuery,
        pattern_order: Sequence[TriplePattern] | None = None,
    ) -> ExecutionResult:
        """Match the query's BGP and return projected solutions.

        ``pattern_order`` overrides the traversal order (used by the planner
        ablation benchmark); by default patterns are ordered greedily by
        selectivity and per-predicate edge counts.
        """
        for pattern in query.patterns:
            if not isinstance(pattern.predicate, IRI):
                raise QueryExecutionError(
                    "the graph store only evaluates patterns with concrete predicates"
                )

        cardinality = {p: self._graph.predicate_count(p) for p in {pt.predicate for pt in query.patterns}}
        if pattern_order is None:
            ordered = order_patterns_greedily(query.patterns, cardinality=cardinality)
        else:
            ordered = list(pattern_order)

        counters = WorkCounters(queries_issued=1)
        schema: Tuple[str, ...] = ()
        rows: List[_TermRow] = [()]
        for pattern in ordered:
            schema, rows = self._extend(schema, rows, pattern, counters)
            if not rows:
                break

        if query.filters and rows:
            rows = self._filter_rows(schema, rows, query.filters)

        names = query.projected_names()
        positions = tuple(schema.index(n) if n in schema else -1 for n in names)
        if query.distinct:
            deadline = current_deadline()
            row_iter = rows if deadline is None else probed_rows(rows, deadline, counters)
            seen: set = set()
            unique: List[_TermRow] = []
            for row in row_iter:
                key = tuple(row[p] if p >= 0 else None for p in positions)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if query.limit is not None:
            rows = rows[: query.limit]

        # The survivors leave as term columns; no per-solution object is built.
        bound = [(name, p) for name, p in zip(names, positions) if p >= 0]
        by_position = list(zip(*rows))
        counters.results_produced += len(rows)

        return ExecutionResult(
            bindings=None,
            variables=tuple(names),
            counters=counters,
            store="graph",
            columns=ResultColumns(
                tuple(name for name, _ in bound),
                [by_position[p] if rows else () for _, p in bound],
                len(rows),
            ),
        )

    # ------------------------------------------------------------------ #
    # Pattern extension
    # ------------------------------------------------------------------ #
    def _extend(
        self,
        schema: Tuple[str, ...],
        rows: List[_TermRow],
        pattern: TriplePattern,
        counters: WorkCounters,
    ) -> Tuple[Tuple[str, ...], List[_TermRow]]:
        """Extend every pipeline row through one pattern's adjacency lists.

        Cancellation: with an ambient deadline active
        (:mod:`repro.resilience.deadline`) the expansion loops probe it —
        per stride for the bounded adjacency expansions, per pipeline row
        for the relationship-type scans (whose per-row cost is the whole
        edge list).  Probes never touch the counters.
        """
        graph = self._graph
        predicate = pattern.predicate
        assert isinstance(predicate, IRI)
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(counters)

        subject_pos, subject_const, subject_var = self._operand(pattern.subject, schema)
        object_pos, object_const, object_var = self._operand(pattern.object, schema)

        out: List[_TermRow] = []
        append = out.append
        probed = rows if deadline is None else probed_rows(rows, deadline, counters)

        if subject_var is None and object_var is None:
            # Both endpoints known per row: containment along the adjacency list.
            for row in probed:
                subject = subject_const if subject_pos < 0 else row[subject_pos]
                obj = object_const if object_pos < 0 else row[object_pos]
                counters.nodes_expanded += 1
                neighbours = graph.out_neighbours(subject, predicate)
                counters.edges_traversed += len(neighbours)
                if obj in neighbours:
                    append(row)
            return schema, out

        if subject_var is None:
            # Forward expansion: the object variable is new.
            for row in probed:
                subject = subject_const if subject_pos < 0 else row[subject_pos]
                counters.nodes_expanded += 1
                neighbours = graph.out_neighbours(subject, predicate)
                counters.edges_traversed += len(neighbours)
                for target in neighbours:
                    append(row + (target,))
            return schema + (object_var,), out

        if object_var is None:
            # Backward expansion: the subject variable is new.
            for row in probed:
                obj = object_const if object_pos < 0 else row[object_pos]
                counters.nodes_expanded += 1
                neighbours = graph.in_neighbours(obj, predicate)
                counters.edges_traversed += len(neighbours)
                for source in neighbours:
                    append(row + (source,))
            return schema + (subject_var,), out

        # Neither endpoint bound: relationship-type scan (per pipeline row,
        # exactly like expanding each solution through the type index).
        if subject_var == object_var:
            for row in rows:
                if deadline is not None:
                    deadline.check(counters)
                for source, target in graph.edges(predicate):
                    counters.edges_traversed += 1
                    if source == target:
                        append(row + (source,))
            return schema + (subject_var,), out
        for row in rows:
            if deadline is not None:
                deadline.check(counters)
            for source, target in graph.edges(predicate):
                counters.edges_traversed += 1
                append(row + (source, target))
        return schema + (subject_var, object_var), out

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _operand(
        term: TermLike, schema: Tuple[str, ...]
    ) -> Tuple[int, Optional[TermLike], Optional[str]]:
        """Lower one pattern endpoint against the schema.

        Returns ``(schema position | -1, constant | None, new var name |
        None)``: a bound operand has a position or a constant; an operand
        with a new-variable name is unresolved and will extend the schema.
        """
        if isinstance(term, Variable):
            if term.name in schema:
                return schema.index(term.name), None, None
            return -1, None, term.name
        return -1, term, None

    def _filter_rows(
        self, schema: Tuple[str, ...], rows: List[_TermRow], filters
    ) -> List[_TermRow]:
        """Apply FILTERs to tuple rows, materializing only each filter's own
        operands (semantics delegate to :meth:`Filter.evaluate`)."""
        compiled = []
        for flt in filters:
            var_slots = tuple(
                (v.name, schema.index(v.name) if v.name in schema else -1)
                for v in flt.variables()
            )
            compiled.append((flt, var_slots))
        out: List[_TermRow] = []
        for row in rows:
            keep = True
            for flt, var_slots in compiled:
                operand_binding = {name: row[p] for name, p in var_slots if p >= 0}
                if not flt.evaluate(operand_binding):
                    keep = False
                    break
            if keep:
                out.append(row)
        return out
