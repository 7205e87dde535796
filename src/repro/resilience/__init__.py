"""Self-healing serving: deadlines, breakers, fault injection, supervision.

Four cooperating pieces (see ``docs/architecture.md`` §10):

* :mod:`repro.resilience.deadline` — query deadlines with cooperative
  cancellation, probed from the engine hot loops;
* :mod:`repro.resilience.breaker` — per-worker circuit breakers for
  :class:`~repro.endpoint.client.EndpointPool`;
* :mod:`repro.resilience.faults` — the deterministic seeded fault-injection
  layer (``FaultPlan``) powering the chaos suite;
* :mod:`repro.resilience.fleet` — the self-healing ``FleetMonitor`` over
  :class:`~repro.endpoint.worker.WorkerSupervisor`.

``FleetMonitor``/``MonitorPolicy`` are re-exported lazily (PEP 562): the
fleet module imports the endpoint stack, whose executors import
:mod:`repro.resilience.deadline` — an eager import here would be circular.
"""

from repro.errors import QueryTimeoutError
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, BreakerPolicy, CircuitBreaker
from repro.resilience.deadline import (
    PROBE_STRIDE,
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    KillSpec,
    fire,
    injected,
    install,
    uninstall,
)

__all__ = [
    "QueryTimeoutError",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "PROBE_STRIDE",
    "BreakerPolicy",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "FaultPlan",
    "FaultSpec",
    "KillSpec",
    "InjectedFault",
    "fire",
    "injected",
    "install",
    "uninstall",
    "FleetMonitor",
    "MonitorPolicy",
]

_LAZY = {"FleetMonitor", "MonitorPolicy"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.resilience import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
