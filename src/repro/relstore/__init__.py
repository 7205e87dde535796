"""Relational store (MySQL stand-in): triple table, planner, engine, views, shards."""

from repro.relstore.columnar import ColumnarTripleTable
from repro.relstore.executor import (
    CompiledPlan,
    compile_pattern,
    compile_plan,
    relational_work_units,
)
from repro.relstore.planner import PatternAccess, RelationalPlan, plan_query
from repro.relstore.sharded import ShardedRelationalStore, ShardingConfig, ShardMetricsBoard
from repro.relstore.stats import TableStatistics
from repro.relstore.store import RelationalStore
from repro.relstore.views import MaterializedView, MaterializedViewManager, canonical_pattern_key

__all__ = [
    "RelationalStore",
    "ShardedRelationalStore",
    "ShardingConfig",
    "ShardMetricsBoard",
    "ColumnarTripleTable",
    "CompiledPlan",
    "compile_pattern",
    "compile_plan",
    "relational_work_units",
    "RelationalPlan",
    "PatternAccess",
    "plan_query",
    "TableStatistics",
    "MaterializedView",
    "MaterializedViewManager",
    "canonical_pattern_key",
]
