"""Deterministic cost accounting: work counters, latency model, throttles."""

from repro.cost.counters import WorkCounters
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceSample, ResourceThrottle, SlowdownReport

__all__ = [
    "WorkCounters",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ResourceThrottle",
    "ResourceSample",
    "SlowdownReport",
]
