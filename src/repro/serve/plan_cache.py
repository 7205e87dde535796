"""Parsed-query/identifier cache (the serving layer's "plan cache").

Workloads are template-driven: the same query text (or a handful of mutations
of it) arrives again and again.  Parsing and complex-subquery identification
are pure functions of the text, so the service caches their combined output —
a :class:`QueryPlan` — keyed by the canonical query text from
:func:`repro.sparql.parser.canonical_query_text`.  A hit skips both the SPARQL
parser and the :class:`~repro.core.identifier.ComplexSubqueryIdentifier`.

Plans stay valid across physical-design changes (transfers/evictions change
*routing*, which the query processor decides per execution, not the parse or
the complex-subquery decomposition), so its entries carry the constant stamp
(:class:`~repro.lru.LRUCache`) and leave only by LRU capacity eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.identifier import ComplexSubquery
from repro.sparql.ast import SelectQuery

from repro.lru import LRUCache

__all__ = ["QueryPlan", "PlanCache"]


@dataclass(frozen=True)
class QueryPlan:
    """A query ready for routed execution: parsed AST + complex subquery."""

    key: str
    query: SelectQuery
    complex_subquery: Optional[ComplexSubquery]


class PlanCache(LRUCache[str, QueryPlan]):
    """A thread-safe LRU cache of :class:`QueryPlan` objects."""

    def __init__(self, capacity: int = 1024):
        super().__init__(capacity, what="plan cache")

    def put(self, plan: QueryPlan) -> None:  # type: ignore[override]
        super().put(plan.key, plan)
