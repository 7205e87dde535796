"""The object-space graph oracle: a property graph of term objects and the
traversal matcher that walks it, row by row.

This was the graph store's own storage and matcher before resident
partitions became id-column blocks; it stays here as the reference the
production matcher (:mod:`repro.graphstore.matcher`) is held to by
``tests/test_differential_graph.py`` — the same ordered rows and the same
``nodes_expanded``/``edges_traversed``/``results_produced`` — the way the
relational engine is held to ``ReferenceStore`` in ``relational_oracle.py``
next to it.  Oracles live with the tests; nothing under ``src/`` imports
them (lint rule REP009).

* :class:`PropertyGraph` — vertex → predicate → neighbour list (out and in),
  plus per-predicate edge lists (the relationship-type scan); vertices are
  RDF terms and a repeated (subject, predicate, object) edge is kept once.
* :class:`GraphMatcher` — expands positional term tuples one pattern at a
  time through those lists and charges ``nodes_expanded`` per adjacency
  list opened and ``edges_traversed`` per neighbour (or type-scan edge)
  inspected.
* :func:`oracle_graph` — the oracle graph of a :class:`GraphStore`'s
  resident partitions, decoded in residency order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError
from repro.execution import ExecutionResult, ResultColumns
from repro.graphstore import GraphStore
from repro.rdf.terms import IRI, TermLike, Triple, Variable
from repro.sparql.ast import SelectQuery, TriplePattern
from repro.sparql.algebra import order_patterns_greedily


class PropertyGraph:
    """In-memory labelled multigraph with per-predicate edge indexes."""

    def __init__(self) -> None:
        self._out: Dict[TermLike, Dict[IRI, List[TermLike]]] = defaultdict(lambda: defaultdict(list))
        self._in: Dict[TermLike, Dict[IRI, List[TermLike]]] = defaultdict(lambda: defaultdict(list))
        self._edges_by_predicate: Dict[IRI, List[Tuple[TermLike, TermLike]]] = defaultdict(list)
        self._edge_set: Set[Tuple[TermLike, IRI, TermLike]] = set()
        self._vertices: Set[TermLike] = set()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, subject: TermLike, predicate: IRI, obj: TermLike) -> bool:
        """Add one labelled edge; returns ``True`` when it was new."""
        key = (subject, predicate, obj)
        if key in self._edge_set:
            return False
        self._edge_set.add(key)
        self._out[subject][predicate].append(obj)
        self._in[obj][predicate].append(subject)
        self._edges_by_predicate[predicate].append((subject, obj))
        self._vertices.add(subject)
        self._vertices.add(obj)
        return True

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Add RDF triples as edges; returns the number of new edges."""
        return sum(1 for t in triples if self.add_edge(t.subject, t.predicate, t.object))

    def remove_predicate(self, predicate: IRI) -> int:
        """Remove every edge with the given label; returns edges removed.

        This is how a triple partition is *evicted* from the graph store.
        Vertex entries left with no edges are dropped as well.
        """
        pairs = self._edges_by_predicate.pop(predicate, [])
        for subject, obj in pairs:
            self._edge_set.discard((subject, predicate, obj))
            out_lists = self._out.get(subject)
            if out_lists is not None and predicate in out_lists:
                out_lists.pop(predicate, None)
            in_lists = self._in.get(obj)
            if in_lists is not None and predicate in in_lists:
                in_lists.pop(predicate, None)
        # Drop now-isolated vertices.
        for subject, obj in pairs:
            for vertex in (subject, obj):
                if not self._out.get(vertex) and not self._in.get(vertex):
                    self._out.pop(vertex, None)
                    self._in.pop(vertex, None)
                    self._vertices.discard(vertex)
        return len(pairs)

    # ------------------------------------------------------------------ #
    # Size
    # ------------------------------------------------------------------ #
    def edge_count(self) -> int:
        return len(self._edge_set)

    def vertex_count(self) -> int:
        return len(self._vertices)

    def predicate_count(self, predicate: IRI) -> int:
        return len(self._edges_by_predicate.get(predicate, ()))

    def predicates(self) -> List[IRI]:
        return sorted((p for p, pairs in self._edges_by_predicate.items() if pairs), key=lambda p: p.value)

    def __len__(self) -> int:
        return self.edge_count()

    def __contains__(self, edge: Tuple[TermLike, IRI, TermLike]) -> bool:
        return edge in self._edge_set

    # ------------------------------------------------------------------ #
    # Traversal access paths (index-free adjacency)
    # ------------------------------------------------------------------ #
    def out_neighbours(self, vertex: TermLike, predicate: IRI) -> List[TermLike]:
        """Targets of ``vertex --predicate-->``; empty when none."""
        return self._out.get(vertex, {}).get(predicate, [])

    def in_neighbours(self, vertex: TermLike, predicate: IRI) -> List[TermLike]:
        """Sources of ``--predicate--> vertex``; empty when none."""
        return self._in.get(vertex, {}).get(predicate, [])

    def edges(self, predicate: IRI) -> Iterator[Tuple[TermLike, TermLike]]:
        """All (subject, object) pairs carrying ``predicate`` (type scan)."""
        return iter(self._edges_by_predicate.get(predicate, ()))

    def has_vertex(self, vertex: TermLike) -> bool:
        return vertex in self._vertices

    def degree(self, vertex: TermLike) -> int:
        """Total degree of a vertex across all predicates."""
        out_degree = sum(len(v) for v in self._out.get(vertex, {}).values())
        in_degree = sum(len(v) for v in self._in.get(vertex, {}).values())
        return out_degree + in_degree

    def triples(self) -> Iterator[Triple]:
        """Decode the stored edges back into RDF triples."""
        for subject, predicate, obj in self._edge_set:
            yield Triple(subject, predicate, obj)


#: One pipeline row: bound terms, positionally aligned with the schema.
_TermRow = Tuple[TermLike, ...]


class GraphMatcher:
    """Evaluates SELECT queries against a :class:`PropertyGraph` by
    traversal: positional term tuples, extended one pattern at a time."""

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
            seen: set = set()
            unique: List[_TermRow] = []
            for row in rows:
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
        """Extend every pipeline row through one pattern's adjacency lists
        (an oracle: no deadline probes)."""
        graph = self._graph
        predicate = pattern.predicate
        assert isinstance(predicate, IRI)

        subject_pos, subject_const, subject_var = self._operand(pattern.subject, schema)
        object_pos, object_const, object_var = self._operand(pattern.object, schema)

        out: List[_TermRow] = []
        append = out.append

        if subject_var is None and object_var is None:
            # Both endpoints known per row: containment along the adjacency list.
            for row in rows:
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
            for row in rows:
                subject = subject_const if subject_pos < 0 else row[subject_pos]
                counters.nodes_expanded += 1
                neighbours = graph.out_neighbours(subject, predicate)
                counters.edges_traversed += len(neighbours)
                for target in neighbours:
                    append(row + (target,))
            return schema + (object_var,), out

        if object_var is None:
            # Backward expansion: the subject variable is new.
            for row in rows:
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
                for source, target in graph.edges(predicate):
                    counters.edges_traversed += 1
                    if source == target:
                        append(row + (source,))
            return schema + (subject_var,), out
        for row in rows:
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


def oracle_graph(store: GraphStore) -> PropertyGraph:
    """The property graph holding ``store``'s resident partitions, added in
    residency order, each in block order."""
    graph = PropertyGraph()
    decode_many = store.dictionary.decode_many
    for predicate in store.partition_sizes():
        block = store.partition_block(predicate)
        subjects = decode_many(block.subjects.tolist())
        objects = decode_many(block.objects.tolist())
        graph.add_triples(Triple(s, predicate, o) for s, o in zip(subjects, objects))
    return graph


def oracle_execute(
    store: GraphStore,
    query: SelectQuery,
    pattern_order: Sequence[TriplePattern] | None = None,
) -> ExecutionResult:
    """What ``store.execute`` must return, computed by the object-space
    matcher over the oracle graph and priced by the store's cost model."""
    result = GraphMatcher(oracle_graph(store)).execute(query, pattern_order=pattern_order)
    result.seconds = store.cost_model.graph_query_seconds(result.counters)
    if store.throttle is not None:
        result.seconds = store.throttle.apply(result.seconds)
    return result
