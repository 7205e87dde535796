"""Materialized views over the relational store (the RDB-views baseline).

Section 6.2 of the paper compares the dual-store structure against
``RDB-views``: a relational store that, during each offline phase, creates
materialized views for the most frequent complex subqueries of the historical
workload (subject to the same storage budget the graph store gets).  This
module implements that baseline:

* :func:`canonical_pattern_key` — a variable-renaming-invariant key for a set
  of triple patterns, used to count how often a subquery shape recurs.
* :class:`MaterializedView` — one stored view: the canonical key, the defining
  patterns, and the materialized result rows.
* :class:`MaterializedViewManager` — frequency-based view selection under a
  row budget, plus matching of incoming queries against stored views.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.execution import ResultTable
from repro.rdf.terms import IRI, TermLike, Variable
from repro.sparql.ast import TriplePattern

__all__ = ["canonical_pattern_key", "MaterializedView", "MaterializedViewManager"]


def canonical_pattern_key(patterns: Sequence[TriplePattern]) -> Tuple:
    """A hashable key identifying a pattern set up to variable renaming.

    Patterns are sorted by their textual form with variables blanked, then
    variables are renumbered in first-appearance order.  Two subqueries that
    differ only in variable names map to the same key; subqueries that differ
    in constants (the workload's *mutations*) map to different keys — which
    is precisely why frequency-selected views generalise poorly compared with
    predicate-level partitions.
    """

    def skeleton(pattern: TriplePattern) -> Tuple[str, str, str]:
        def show(term: TermLike) -> str:
            if isinstance(term, Variable):
                return "?"
            return term.n3()

        return (show(pattern.subject), show(pattern.predicate), show(pattern.object))

    ordered = sorted(patterns, key=skeleton)
    numbering: Dict[str, int] = {}

    def canonical_term(term: TermLike) -> str:
        if isinstance(term, Variable):
            if term.name not in numbering:
                numbering[term.name] = len(numbering)
            return f"?v{numbering[term.name]}"
        return term.n3()

    return tuple((canonical_term(p.subject), canonical_term(p.predicate), canonical_term(p.object)) for p in ordered)


@dataclass
class MaterializedView:
    """A materialized subquery result kept in the relational store."""

    key: Tuple
    patterns: Tuple[TriplePattern, ...]
    table: ResultTable
    hits: int = 0

    @property
    def row_count(self) -> int:
        return len(self.table)

    def predicates(self) -> frozenset[IRI]:
        return frozenset(p.predicate for p in self.patterns if isinstance(p.predicate, IRI))


@dataclass
class MaterializedViewManager:
    """Selects and serves materialized views under a row budget.

    Parameters
    ----------
    row_budget:
        Maximum total number of materialized rows across all views.  The
        experiments set this to the same fraction of the knowledge graph the
        graph store gets (``r_BG``), keeping the comparison fair as in the
        paper.
    """

    row_budget: int
    views: Dict[Tuple, MaterializedView] = field(default_factory=dict)
    _frequency: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------ #
    # Observation and selection
    # ------------------------------------------------------------------ #
    def observe(self, patterns: Sequence[TriplePattern]) -> None:
        """Record one occurrence of a (complex) subquery shape."""
        if patterns:
            self._frequency[canonical_pattern_key(patterns)] += 1

    def frequent_keys(self) -> List[Tuple]:
        """Canonical keys ordered by descending observation frequency."""
        return [key for key, _count in self._frequency.most_common()]

    def total_rows(self) -> int:
        return sum(view.row_count for view in self.views.values())

    def select_views(
        self,
        candidates: Dict[Tuple, Tuple[Tuple[TriplePattern, ...], ResultTable]],
    ) -> List[Tuple]:
        """Pick views by frequency until the row budget is exhausted.

        ``candidates`` maps canonical keys to (patterns, materialized rows)
        pairs that the store has computed during the offline phase.  Existing
        views not re-selected are dropped (the offline phase rebuilds the view
        set from scratch, as the paper's description implies).
        """
        self.views.clear()
        selected: List[Tuple] = []
        remaining = self.row_budget
        for key in self.frequent_keys():
            if key not in candidates:
                continue
            patterns, table = candidates[key]
            if len(table) > remaining:
                continue
            self.views[key] = MaterializedView(key=key, patterns=tuple(patterns), table=table)
            remaining -= len(table)
            selected.append(key)
        return selected

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def match(self, patterns: Sequence[TriplePattern]) -> Optional[MaterializedView]:
        """Return a stored view whose definition matches ``patterns`` exactly."""
        view = self.views.get(canonical_pattern_key(patterns))
        if view is not None:
            view.hits += 1
        return view

    def __len__(self) -> int:
        return len(self.views)

    def clear(self) -> None:
        self.views.clear()
        self._frequency.clear()
