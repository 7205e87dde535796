"""Abstract syntax tree for the SPARQL subset used by the dual store.

The paper's workloads are basic-graph-pattern SELECT queries (optionally with
DISTINCT, LIMIT, and simple FILTER constraints).  The AST mirrors that:

* :class:`TriplePattern` — one ``subject predicate object`` pattern where any
  position may be a variable.
* :class:`Filter` — a simple comparison between a variable and a constant or
  between two variables.
* :class:`SelectQuery` — projection + basic graph pattern + filters.

Every node is immutable and hashable so that queries can serve as dictionary
keys (the materialized-view manager and the workload generators rely on
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.rdf.terms import IRI, Literal, TermLike, Variable

__all__ = [
    "TriplePattern",
    "Filter",
    "SelectQuery",
    "Binding",
    "COMPARISON_OPERATORS",
    "compare_terms",
]

#: A solution mapping from variable name to a concrete term.
Binding = Dict[str, TermLike]

COMPARISON_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


def compare_terms(operator: str, left: TermLike, right: TermLike) -> bool:
    """Evaluate one FILTER comparison between two concrete terms.

    This is the single source of the subset's comparison semantics: typed
    literals coerce to their Python values (so ``"30"^^xsd:integer`` compares
    numerically, not lexicographically), everything else compares on its
    string form, and an incomparable pair (``TypeError``) is ``False``.  Both
    the engines (via :meth:`Filter.evaluate`) and the SQLite oracle's filter
    function (``tests/sql_oracle.py``) delegate here, which is what keeps the
    SQL path answer-identical to the work-accounted engines.
    """
    left_value = left.to_python() if isinstance(left, Literal) else str(left)
    right_value = right.to_python() if isinstance(right, Literal) else str(right)
    try:
        if operator == "=":
            return left_value == right_value
        if operator == "!=":
            return left_value != right_value
        if operator == "<":
            return left_value < right_value
        if operator == "<=":
            return left_value <= right_value
        if operator == ">":
            return left_value > right_value
        return left_value >= right_value
    except TypeError:
        return False


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern; any of the three positions may be a variable."""

    subject: TermLike
    predicate: TermLike
    object: TermLike

    def variables(self) -> Tuple[Variable, ...]:
        """Variables in this pattern, in subject/predicate/object order."""
        return tuple(t for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable))

    def variable_names(self) -> FrozenSet[str]:
        return frozenset(v.name for v in self.variables())

    @property
    def has_concrete_predicate(self) -> bool:
        return isinstance(self.predicate, IRI)

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.n3()


@dataclass(frozen=True, slots=True)
class Filter:
    """A simple comparison filter, e.g. ``FILTER(?age >= 30)``."""

    left: TermLike
    operator: str
    right: TermLike

    def __post_init__(self) -> None:
        if self.operator not in COMPARISON_OPERATORS:
            raise ParseError(f"unsupported filter operator {self.operator!r}")

    def variables(self) -> Tuple[Variable, ...]:
        return tuple(t for t in (self.left, self.right) if isinstance(t, Variable))

    def evaluate(self, binding: Binding) -> bool:
        """Evaluate the filter against a solution mapping.

        Unbound variables make the filter fail (an error in full SPARQL; a
        plain ``False`` here keeps execution total).
        """
        left = self._resolve(self.left, binding)
        right = self._resolve(self.right, binding)
        if left is None or right is None:
            return False
        return compare_terms(self.operator, left, right)

    @staticmethod
    def _resolve(term: TermLike, binding: Binding) -> Optional[TermLike]:
        if isinstance(term, Variable):
            return binding.get(term.name)
        return term

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"FILTER({self.left.n3()} {self.operator} {self.right.n3()})"


@dataclass(frozen=True, slots=True)
class SelectQuery:
    """A SELECT query over a basic graph pattern.

    Attributes
    ----------
    projection:
        Variables to return.  An empty tuple means ``SELECT *``.
    patterns:
        The triple patterns of the WHERE clause, in source order.
    filters:
        FILTER constraints applied to complete solutions.
    distinct:
        Whether duplicate solutions are removed.
    limit:
        Optional cap on the number of returned solutions.
    """

    projection: Tuple[Variable, ...]
    patterns: Tuple[TriplePattern, ...]
    filters: Tuple[Filter, ...] = field(default_factory=tuple)
    distinct: bool = False
    limit: Optional[int] = None
    #: The hash, computed on first use: every cache lookup keys on a query,
    #: and re-hashing each pattern and term costs more than the lookup.
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ParseError("a SELECT query must contain at least one triple pattern")
        if self.limit is not None and self.limit < 0:
            raise ParseError("LIMIT must be non-negative")

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.projection, self.patterns, self.filters, self.distinct, self.limit))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------ #
    # Introspection used by the identifier, planner, and tuner
    # ------------------------------------------------------------------ #
    def variables(self) -> FrozenSet[str]:
        """Names of every variable mentioned in the WHERE clause."""
        names: set[str] = set()
        for pattern in self.patterns:
            names.update(pattern.variable_names())
        for flt in self.filters:
            names.update(v.name for v in flt.variables())
        return frozenset(names)

    def projected_names(self) -> Tuple[str, ...]:
        if self.projection:
            return tuple(v.name for v in self.projection)
        return tuple(sorted(self.variables()))

    def predicates(self) -> FrozenSet[IRI]:
        """The concrete predicates used by the WHERE clause.

        This is ``getPredicateSet()`` from the paper's Table 2 and drives
        both the query processor's routing cases and the tuner's partition
        selection.
        """
        return frozenset(p.predicate for p in self.patterns if isinstance(p.predicate, IRI))

    def variable_occurrences(self) -> Dict[str, int]:
        """How many triple patterns mention each variable."""
        counts: Dict[str, int] = {}
        for pattern in self.patterns:
            for name in pattern.variable_names():
                counts[name] = counts.get(name, 0) + 1
        return counts

    def with_patterns(
        self,
        patterns: Sequence[TriplePattern],
        projection: Sequence[Variable] | None = None,
    ) -> "SelectQuery":
        """Derive a new query that keeps this query's modifiers."""
        return SelectQuery(
            projection=tuple(projection) if projection is not None else self.projection,
            patterns=tuple(patterns),
            filters=tuple(f for f in self.filters if set(n.name for n in f.variables()) <= _pattern_vars(patterns)),
            distinct=self.distinct,
            limit=self.limit,
        )

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def to_sparql(self) -> str:
        """Render the query back to SPARQL surface syntax."""
        if self.projection:
            head = " ".join(v.n3() for v in self.projection)
        else:
            head = "*"
        distinct = "DISTINCT " if self.distinct else ""
        lines = [f"SELECT {distinct}{head} WHERE {{"]
        for pattern in self.patterns:
            lines.append(f"  {pattern.n3()}")
        for flt in self.filters:
            lines.append(f"  {flt}")
        lines.append("}")
        if self.limit is not None:
            lines.append(f"LIMIT {self.limit}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_sparql()


def _pattern_vars(patterns: Sequence[TriplePattern]) -> set[str]:
    names: set[str] = set()
    for pattern in patterns:
        names.update(pattern.variable_names())
    return names
