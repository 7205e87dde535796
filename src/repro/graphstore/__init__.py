"""Native graph store (Neo4j stand-in): resident id-column partitions, traversal matcher, budget."""

from repro.graphstore.store import GraphStore

__all__ = ["GraphStore"]
