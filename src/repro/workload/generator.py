"""Shared machinery for synthetic knowledge-graph generation.

The paper evaluates on YAGO, WatDiv, and Bio2RDF — datasets of 14M to 60M
triples that cannot be shipped or loaded in this environment.  Each dataset
module builds a *shape-preserving* synthetic stand-in instead: the same kind
of entities, the same predicate-partitioned structure, skewed degree
distributions, and enough distinct predicates that the graph-store budget
(``r_BG`` of the total size) forces the tuner to choose.

:class:`SyntheticGraphBuilder` is the common toolkit those modules use:
deterministic entity minting, Zipf-skewed choice, and fact emission with
per-predicate bookkeeping.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.rdf.graph import TripleSet
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal, Triple

__all__ = ["SyntheticGraphBuilder", "zipf_weights"]


def zipf_weights(count: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf weights for ``count`` ranks (rank 1 most popular)."""
    if count <= 0:
        raise WorkloadError("cannot build a Zipf distribution over zero items")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


class SyntheticGraphBuilder:
    """Deterministic builder for synthetic knowledge graphs.

    Parameters
    ----------
    namespace:
        Namespace used for all minted entities and predicates.
    seed:
        Seed for the internal random generator; the same seed always produces
        the same graph.
    """

    def __init__(self, namespace: Namespace, seed: int = 7):
        self.namespace = namespace
        self.rng = random.Random(seed)
        self.triples = TripleSet()
        self._entity_registry: Dict[str, List[IRI]] = {}

    # ------------------------------------------------------------------ #
    # Entities
    # ------------------------------------------------------------------ #
    def mint_entities(self, kind: str, count: int) -> List[IRI]:
        """Create ``count`` entities named ``<kind>_<index>`` and remember them."""
        if count < 0:
            raise WorkloadError("entity count must be non-negative")
        entities = [self.namespace.term(f"{kind}_{index}") for index in range(count)]
        self._entity_registry[kind] = entities
        return entities

    def entities(self, kind: str) -> List[IRI]:
        try:
            return self._entity_registry[kind]
        except KeyError:
            raise WorkloadError(f"no entities of kind {kind!r} were minted") from None

    # ------------------------------------------------------------------ #
    # Random choice helpers
    # ------------------------------------------------------------------ #
    def choose(self, items: Sequence, skew: float = 0.0):
        """Choose one item, uniformly or with Zipf skew over item order."""
        if not items:
            raise WorkloadError("cannot choose from an empty sequence")
        if skew <= 0.0:
            return items[self.rng.randrange(len(items))]
        weights = zipf_weights(len(items), exponent=skew)
        # random.Random has no weighted choice over numpy weights; use cumsum.
        threshold = self.rng.random()
        cumulative = np.cumsum(weights)
        index = int(np.searchsorted(cumulative, threshold))
        return items[min(index, len(items) - 1)]

    def coin(self, probability: float) -> bool:
        return self.rng.random() < probability

    def sample(self, items: Sequence, count: int) -> List:
        count = min(count, len(items))
        return self.rng.sample(list(items), count)

    # ------------------------------------------------------------------ #
    # Fact emission
    # ------------------------------------------------------------------ #
    def add_fact(self, subject: IRI, predicate: IRI, obj) -> bool:
        """Add one triple; plain Python values become typed literals."""
        if not isinstance(obj, (IRI, Literal)):
            obj = Literal.from_python(obj)
        return self.triples.add(Triple(subject, predicate, obj))

    def add_facts(self, facts) -> int:
        return sum(1 for subject, predicate, obj in facts if self.add_fact(subject, predicate, obj))

    # ------------------------------------------------------------------ #
    # Result
    # ------------------------------------------------------------------ #
    def build(self) -> TripleSet:
        return self.triples

    def predicate_histogram(self) -> Dict[IRI, int]:
        return self.triples.predicate_histogram()

    def scale_report(self) -> Dict[str, int]:
        """Summary comparable to the paper's Table 3 (triples, entities, predicates)."""
        return {
            "triples": len(self.triples),
            "entities": self.triples.entity_count(),
            "predicates": len(self.triples.predicates),
        }
