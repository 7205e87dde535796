"""Relational store (MySQL stand-in): triple table, planner, executor, views, SQLite, shards."""

from repro.relstore.backend import RelationalBackend
from repro.relstore.columnar import ColumnarExecutor, ColumnarTripleTable
from repro.relstore.executor import (
    BoundPlanCache,
    CompiledPlan,
    compile_pattern,
    compile_plan,
    relational_work_units,
)
from repro.relstore.planner import PatternAccess, RelationalPlan, plan_query
from repro.relstore.reference import ReferenceExecutor
from repro.relstore.sharded import ShardedRelationalStore, ShardingConfig, ShardMetricsBoard
from repro.relstore.sql_compiler import CompiledSQL, compile_select
from repro.relstore.sqlite_backend import SQLiteBackend
from repro.relstore.stats import TableStatistics, collect_statistics
from repro.relstore.store import RelationalStore
from repro.relstore.views import MaterializedView, MaterializedViewManager, canonical_pattern_key

__all__ = [
    "RelationalBackend",
    "RelationalStore",
    "ShardedRelationalStore",
    "ShardingConfig",
    "ShardMetricsBoard",
    "ColumnarTripleTable",
    "ColumnarExecutor",
    "ReferenceExecutor",
    "BoundPlanCache",
    "CompiledPlan",
    "compile_pattern",
    "compile_plan",
    "relational_work_units",
    "RelationalPlan",
    "PatternAccess",
    "plan_query",
    "TableStatistics",
    "collect_statistics",
    "MaterializedView",
    "MaterializedViewManager",
    "canonical_pattern_key",
    "CompiledSQL",
    "compile_select",
    "SQLiteBackend",
]
