"""An in-memory set of triples with pattern-matching access paths.

:class:`TripleSet` is the neutral exchange format between the dataset
generators, the relational store loader, and the graph store loader.  It is
*not* one of the two stores of the dual-store structure; it is the "entire
knowledge graph" that both stores are loaded from, and the unit in which
triple partitions are shipped between them.

It maintains SPO/POS/OSP-style dictionary indexes so that membership tests
and per-predicate partition extraction are O(1)/O(partition) respectively.
Iteration follows insertion order (the triples are dict keys, not set
members), so a store loaded from a :class:`TripleSet` gets a row order that
is a function of its input — never of per-process hash values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import TermError
from repro.rdf.terms import IRI, Term, TermLike, Triple

__all__ = ["TripleSet"]


class TripleSet:
    """A mutable, indexed collection of concrete RDF triples."""

    def __init__(self, triples: Iterable[Triple] | None = None):
        # Insertion-ordered triples (dict keys; the values are unused).
        self._triples: Dict[Triple, None] = {}
        # predicate -> list of (subject, object); the primary partition index
        self._by_predicate: Dict[IRI, List[Tuple[TermLike, TermLike]]] = defaultdict(list)
        # subject -> triples and object -> triples for pattern matching
        self._by_subject: Dict[TermLike, Dict[Triple, None]] = defaultdict(dict)
        self._by_object: Dict[TermLike, Dict[Triple, None]] = defaultdict(dict)
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add a triple; return ``True`` if it was not already present."""
        if not isinstance(triple, Triple):
            raise TermError(f"expected a Triple, got {type(triple).__name__}")
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_predicate[triple.predicate].append((triple.subject, triple.object))
        self._by_subject[triple.subject][triple] = None
        self._by_object[triple.object][triple] = None
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple in ``triples``; return how many were new."""
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present; return ``True`` when removed."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        pairs = self._by_predicate[triple.predicate]
        pairs.remove((triple.subject, triple.object))
        if not pairs:
            del self._by_predicate[triple.predicate]
        del self._by_subject[triple.subject][triple]
        if not self._by_subject[triple.subject]:
            del self._by_subject[triple.subject]
        del self._by_object[triple.object][triple]
        if not self._by_object[triple.object]:
            del self._by_object[triple.object]
        return True

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: object) -> bool:
        return triple in self._triples

    @property
    def predicates(self) -> List[IRI]:
        """Every distinct predicate, in deterministic sorted order."""
        return sorted(self._by_predicate, key=lambda p: p.value)

    def predicate_count(self, predicate: IRI) -> int:
        """Number of triples whose predicate is ``predicate``."""
        return len(self._by_predicate.get(predicate, ()))

    def partition(self, predicate: IRI) -> List[Triple]:
        """All triples of one predicate — the paper's *triple partition*."""
        return [Triple(s, predicate, o) for s, o in self._by_predicate.get(predicate, ())]

    def subjects(self) -> Set[TermLike]:
        return set(self._by_subject)

    def objects(self) -> Set[TermLike]:
        return set(self._by_object)

    def entity_count(self) -> int:
        """``#-S ∪ O`` as reported in the paper's Table 3."""
        return len(self.subjects() | self.objects())

    def predicate_histogram(self) -> Dict[IRI, int]:
        """Map each predicate to its triple count (used for statistics)."""
        return {p: len(pairs) for p, pairs in self._by_predicate.items()}

    # ------------------------------------------------------------------ #
    # Pattern matching
    # ------------------------------------------------------------------ #
    def match(
        self,
        subject: Optional[TermLike] = None,
        predicate: Optional[IRI] = None,
        object: Optional[TermLike] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the given concrete positions.

        ``None`` (or a :class:`~repro.rdf.terms.Variable`) acts as a wildcard.
        The most selective available index is chosen automatically.
        """
        subject = None if _is_wildcard(subject) else subject
        predicate = None if _is_wildcard(predicate) else predicate
        object = None if _is_wildcard(object) else object

        if subject is not None and subject in self._by_subject:
            candidates: Iterable[Triple] = self._by_subject[subject]
        elif subject is not None:
            return iter(())
        elif object is not None and object in self._by_object:
            candidates = self._by_object[object]
        elif object is not None:
            return iter(())
        elif predicate is not None:
            candidates = (Triple(s, predicate, o) for s, o in self._by_predicate.get(predicate, ()))
        else:
            candidates = self._triples

        def _filtered() -> Iterator[Triple]:
            for triple in candidates:
                if predicate is not None and triple.predicate != predicate:
                    continue
                if subject is not None and triple.subject != subject:
                    continue
                if object is not None and triple.object != object:
                    continue
                yield triple

        return _filtered()

    # ------------------------------------------------------------------ #
    # Set-like helpers
    # ------------------------------------------------------------------ #
    def copy(self) -> "TripleSet":
        return TripleSet(self._triples)

    def union(self, other: "TripleSet") -> "TripleSet":
        merged = self.copy()
        merged.add_all(other)
        return merged

    def subset_for_predicates(self, predicates: Iterable[IRI]) -> "TripleSet":
        """A new :class:`TripleSet` limited to the given predicates."""
        subset = TripleSet()
        for predicate in predicates:
            subset.add_all(self.partition(predicate))
        return subset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self._triples.keys() == other._triples.keys()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TripleSet({len(self._triples)} triples, {len(self._by_predicate)} predicates)"


def _is_wildcard(term: Optional[TermLike]) -> bool:
    return term is None or (isinstance(term, Term) and term.is_variable)
