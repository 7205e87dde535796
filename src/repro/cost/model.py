"""Latency model converting work counters into seconds.

The per-unit constants are calibrated against the paper's Table 1, which
reports the latency of one complex query (three joins) over a YAGO subset in
MySQL and Neo4j as the triple count grows from 500k to 5M:

* MySQL grows roughly linearly from ~11 s (500k triples) to ~99 s (5M
  triples).  The query's joins touch roughly 40% of the triple table, so the
  per-scanned-row cost comes out to ≈50 µs — the ``relational_row_scan``
  default.
* Neo4j stays between 0.6 s and 4 s regardless of total size: a fixed
  overhead plus a few µs per traversed edge, where the number of traversed
  edges depends on the query's neighbourhood rather than the graph size.

The fixed per-query overheads (connection/parse/plan setup) are scaled down
by roughly the same factor as the datasets themselves (the synthetic
workloads are ~100–1000× smaller than the paper's), so the crossover
behaviour — the graph store paying off for complex queries, the relational
store winning simple lookups — lands at the same *relative* position.

The model prices **logical work counters only**.  The columnar engine and
its decode-per-row oracle (``tests/relational_oracle.py``) charge every
counter at the same pipeline points (per row an access path covers, per
tuple a join produces, per logical index lookup, per emitted result), so the
modelled seconds of a query are *engine-invariant by construction*: swapping
engines changes wall-clock, never a single modelled number.
``tests/test_differential_engine.py`` pins this bit-identity.
Absolute values are irrelevant for the reproduction (our substrate is a
simulator, not the authors' testbed); what matters is that the *relative*
behaviour — relational cost scaling with data size, graph cost scaling with
traversal size, bulk import into the graph store being expensive — matches
the paper.  All constants can be overridden per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cost.counters import WorkCounters

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Per-work-unit latencies (seconds) plus fixed per-query overheads."""

    # Relational store (MySQL stand-in)
    relational_row_scan: float = 5.0e-5
    relational_row_join: float = 1.0e-5
    relational_index_lookup: float = 1.0e-5
    relational_view_row_scan: float = 6.0e-5
    relational_query_overhead: float = 0.002
    relational_insert_per_triple: float = 2.0e-6

    # Graph store (Neo4j stand-in)
    graph_node_expand: float = 2.0e-6
    graph_edge_traverse: float = 5.0e-6
    graph_query_overhead: float = 0.002
    graph_import_per_triple: float = 5.0e-5
    graph_evict_per_triple: float = 5.0e-6
    graph_restart_overhead: float = 5.0

    # Cross-store data movement (intermediate results, Case 2 plans)
    migration_per_row: float = 2.0e-5
    migration_overhead: float = 0.001

    # Result materialisation, common to both stores
    result_per_row: float = 1.0e-6

    # ------------------------------------------------------------------ #
    # Query latencies
    # ------------------------------------------------------------------ #
    def relational_query_seconds(self, counters: WorkCounters) -> float:
        """Latency of a query answered entirely by the relational store."""
        return (
            self.relational_query_overhead
            + counters.rows_scanned * self.relational_row_scan
            + counters.rows_joined * self.relational_row_join
            + counters.index_lookups * self.relational_index_lookup
            + counters.view_rows_scanned * self.relational_view_row_scan
            + counters.results_produced * self.result_per_row
        )

    def graph_query_seconds(self, counters: WorkCounters) -> float:
        """Latency of a query answered entirely by the graph store."""
        return (
            self.graph_query_overhead
            + counters.nodes_expanded * self.graph_node_expand
            + counters.edges_traversed * self.graph_edge_traverse
            + counters.results_produced * self.result_per_row
        )

    def migration_seconds(self, rows: int) -> float:
        """Latency of shipping ``rows`` intermediate results between stores."""
        if rows <= 0:
            return 0.0
        return self.migration_overhead + rows * self.migration_per_row

    def relational_scan_seconds(self, rows_scanned: int, index_lookups: int = 0) -> float:
        """Price of the scan/index share of relational work, no fixed overhead.

        This is the unit the sharded store's scatter-gather accounting works
        in: one shard's probe of one plan step costs
        ``relational_scan_seconds(rows, lookups)``, and a step's *parallel*
        cost is the max of its probe costs while its *total work* is their
        sum (see :meth:`scatter_gather_seconds`).
        """
        return (
            rows_scanned * self.relational_row_scan
            + index_lookups * self.relational_index_lookup
        )

    def scatter_gather_seconds(self, step_shard_costs, central_counters: WorkCounters) -> float:
        """Modelled parallel wall-clock of one scatter-gather execution.

        ``step_shard_costs`` is one sequence per plan step containing the
        priced probe cost of every shard that step touched; shards probe
        concurrently, so each step contributes the *max* of its probe costs
        (with one shard this degenerates to the serial sum).
        ``central_counters`` hold the coordinator's serial share — join work,
        migrated-table scans, and result materialisation — which is priced
        exactly like :meth:`relational_query_seconds` prices it.  The fixed
        per-query overhead is charged once, not per shard.
        """
        # One pricing polynomial: the central share reuses the serial query
        # pricing verbatim (which also charges the fixed overhead once), so
        # the two paths can never drift apart.
        parallel = self.relational_query_seconds(central_counters)
        for shard_costs in step_shard_costs:
            if shard_costs:
                parallel += max(shard_costs)
        return parallel

    # ------------------------------------------------------------------ #
    # Bulk operations
    # ------------------------------------------------------------------ #
    def graph_import_seconds(self, triples: int, restart: bool = False) -> float:
        """Latency of bulk-loading triples into the graph store.

        Neo4j's import path is the paper's motivation for keeping the master
        copy in the relational store: loading is slow and changing data may
        require a restart.  ``restart=True`` adds that fixed penalty.
        """
        cost = triples * self.graph_import_per_triple
        if restart:
            cost += self.graph_restart_overhead
        return cost

    def graph_evict_seconds(self, triples: int) -> float:
        """Latency of dropping a partition from the graph store.

        Eviction is priced an order of magnitude cheaper than import (deleting
        edges needs no index rebuild), but it is not free: the adaptive tuning
        daemon accounts both directions of a move symmetrically.
        """
        return triples * self.graph_evict_per_triple

    def relational_insert_seconds(self, triples: int) -> float:
        """Latency of inserting triples into the relational store."""
        return triples * self.relational_insert_per_triple

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every latency multiplied by ``factor``."""
        updates = {
            name: getattr(self, name) * factor
            for name in (
                "relational_row_scan",
                "relational_row_join",
                "relational_index_lookup",
                "relational_view_row_scan",
                "relational_query_overhead",
                "relational_insert_per_triple",
                "graph_node_expand",
                "graph_edge_traverse",
                "graph_query_overhead",
                "graph_import_per_triple",
                "graph_evict_per_triple",
                "graph_restart_overhead",
                "migration_per_row",
                "migration_overhead",
                "result_per_row",
            )
        }
        return replace(self, **updates)


#: The model used everywhere unless an experiment overrides it.
DEFAULT_COST_MODEL = CostModel()
