"""Unit tests for work counters, the cost model, and throttles."""

import pytest

from repro.cost import (
    CostModel,
    DEFAULT_COST_MODEL,
    ResourceThrottle,
    WorkCounters,
)
from repro.errors import ConfigError


class TestWorkCounters:
    def test_merge_sums_every_field(self):
        a = WorkCounters(rows_scanned=10, rows_joined=5)
        b = WorkCounters(rows_scanned=1, edges_traversed=7)
        merged = a.merge(b)
        assert merged.rows_scanned == 11
        assert merged.rows_joined == 5
        assert merged.edges_traversed == 7
        # merge() leaves the inputs untouched
        assert a.rows_scanned == 10 and b.rows_scanned == 1

    def test_add_accumulates_in_place(self):
        a = WorkCounters(rows_scanned=3)
        a.add(WorkCounters(rows_scanned=4, index_lookups=2))
        assert a.rows_scanned == 7
        assert a.index_lookups == 2

    def test_total_units_and_dict(self):
        counters = WorkCounters(rows_scanned=2, nodes_expanded=3)
        assert counters.total_units() == 5
        assert counters.as_dict()["nodes_expanded"] == 3

    def test_copy_is_independent(self):
        counters = WorkCounters(rows_scanned=2)
        clone = counters.copy()
        clone.rows_scanned += 1
        assert counters.rows_scanned == 2


class TestCostModel:
    def test_relational_cost_grows_with_rows_scanned(self):
        small = DEFAULT_COST_MODEL.relational_query_seconds(WorkCounters(rows_scanned=100))
        large = DEFAULT_COST_MODEL.relational_query_seconds(WorkCounters(rows_scanned=10_000))
        assert large > small
        assert large - small == pytest.approx(9_900 * DEFAULT_COST_MODEL.relational_row_scan)

    def test_graph_cost_grows_with_traversal(self):
        small = DEFAULT_COST_MODEL.graph_query_seconds(WorkCounters(edges_traversed=10))
        large = DEFAULT_COST_MODEL.graph_query_seconds(WorkCounters(edges_traversed=10_000))
        assert large > small

    def test_graph_import_is_much_more_expensive_than_relational_insert(self):
        triples = 10_000
        assert DEFAULT_COST_MODEL.graph_import_seconds(triples) > (
            DEFAULT_COST_MODEL.relational_insert_seconds(triples) * 5
        )

    def test_graph_import_restart_penalty(self):
        assert DEFAULT_COST_MODEL.graph_import_seconds(10, restart=True) > (
            DEFAULT_COST_MODEL.graph_import_seconds(10) + 1.0
        )

    def test_migration_cost_zero_for_empty_result(self):
        assert DEFAULT_COST_MODEL.migration_seconds(0) == 0.0
        assert DEFAULT_COST_MODEL.migration_seconds(100) > 0.0

    def test_scaled_multiplies_all_latencies(self):
        doubled = DEFAULT_COST_MODEL.scaled(2.0)
        assert doubled.relational_row_scan == pytest.approx(
            2.0 * DEFAULT_COST_MODEL.relational_row_scan
        )
        assert doubled.graph_query_overhead == pytest.approx(
            2.0 * DEFAULT_COST_MODEL.graph_query_overhead
        )

    def test_complex_query_asymmetry_matches_table1_shape(self):
        """Scanning a large partition set costs far more than traversing it."""
        relational = DEFAULT_COST_MODEL.relational_query_seconds(
            WorkCounters(rows_scanned=50_000, rows_joined=10_000)
        )
        graph = DEFAULT_COST_MODEL.graph_query_seconds(
            WorkCounters(nodes_expanded=2_000, edges_traversed=6_000)
        )
        assert relational > graph * 10


class TestResourceThrottle:
    def test_no_contention_means_no_slowdown(self):
        throttle = ResourceThrottle()
        assert throttle.slowdown_factor() == pytest.approx(1.0)
        assert throttle.apply(2.0) == pytest.approx(2.0)

    def test_tighter_budgets_slow_down_more(self):
        loose = ResourceThrottle(spare_cpu=0.4)
        tight = ResourceThrottle(spare_cpu=0.2)
        assert tight.slowdown_percent() > loose.slowdown_percent()

    def test_io_limits_hurt_less_than_cpu_limits(self):
        io = ResourceThrottle(spare_io=0.2)
        cpu = ResourceThrottle(spare_cpu=0.2)
        assert io.slowdown_percent() < cpu.slowdown_percent()

    def test_table6_shape(self):
        """The defaults reproduce the order of magnitude of the paper's Table 6."""
        assert ResourceThrottle(spare_io=0.4).slowdown_percent() < 1.0
        assert ResourceThrottle(spare_io=0.2).slowdown_percent() < 2.0
        assert 2.0 < ResourceThrottle(spare_cpu=0.4).slowdown_percent() < 12.0
        assert 10.0 < ResourceThrottle(spare_cpu=0.2).slowdown_percent() < 30.0

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ConfigError):
            ResourceThrottle(spare_io=0.0)
        with pytest.raises(ConfigError):
            ResourceThrottle(spare_cpu=1.5)

    def test_report_lists_only_constrained_resources(self):
        throttle = ResourceThrottle(spare_io=0.4)
        report = throttle.report()
        assert len(report) == 1
        assert report[0].resource == "io"

    def test_record_activity_builds_a_sorted_timeline(self):
        throttle = ResourceThrottle(spare_io=0.4)
        throttle.record_activity(time=2.0, migrated_triples=100, graph_work_units=10)
        throttle.record_activity(time=1.0, migrated_triples=0, graph_work_units=10)
        timeline = throttle.timeline()
        assert [s.time for s in timeline] == [1.0, 2.0]
        assert all(0.0 <= s.io_percent <= 100.0 for s in timeline)
