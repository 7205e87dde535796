"""Query deadlines with cooperative cancellation.

A :class:`Deadline` is a wall-clock budget carried from the serving layer
(``timeout`` request parameter / ``ServiceConfig.default_deadline_seconds``)
into the execution engines.  The engines cannot be preempted — they are plain
Python loops and batch kernels — so cancellation is *cooperative*: the hot
loops call cheap periodic probes (:meth:`Deadline.check`), the batch
kernels are emitted in bounded chunks with a probe between them, and an over-budget execution raises
:class:`~repro.errors.QueryTimeoutError`, which frees the executor thread
immediately and maps to a machine-readable ``504`` at the HTTP layer — never
a hung slot.

**Propagation is ambient**, not threaded through every executor signature:
:func:`deadline_scope` installs the deadline in a ``threading.local`` for the
duration of one execution, and the engine loops fetch it with
:func:`current_deadline`.  This keeps the work-accounting-critical executor
signatures untouched (the differential suites pin them bit-for-bit) and makes
the probes literally free when no deadline is active — a single ``None``
check at loop entry.

Scope of coverage: the columnar relational engine, sharded or not
(:mod:`repro.relstore.columnar`: a probe per block match and before each
join's gather — whose size is known, and checked against the work budget,
before it is allocated — then, while a deadline is active, between
:data:`~repro.relstore.columnar.GATHER_CHUNK_ROWS`-row chunks of the gather
and every :data:`PROBE_STRIDE` rows of the filter and materialize loops; a
build side's group-index sort and DISTINCT's run unprobed), the graph matcher
(:mod:`repro.graphstore.matcher`: a probe per pattern step and between the
same gather chunks), and the endpoint's result encoder (a probe per chunk of
rows, under the deadline the endpoint opens at request admission).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

from repro.errors import QueryTimeoutError

__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "PROBE_STRIDE",
]

#: Rows between deadline probes in streaming loops.  Small enough that even
#: pathological per-row costs keep the overshoot well under a 50 ms budget's
#: 2x acceptance bound; large enough that the probe is amortized to noise.
PROBE_STRIDE = 1024


class Deadline:
    """One execution's wall-clock budget over an injectable monotonic clock.

    ``check()`` raises :class:`QueryTimeoutError` once the budget is spent;
    ``counters`` (anything with ``as_dict()``, i.e.
    :class:`~repro.cost.counters.WorkCounters`) rides along on the exception
    as the partial-work accounting.  The probes never mutate counters, so
    work accounting stays bit-identical to an unbudgeted run that survives.
    """

    __slots__ = ("budget_seconds", "_clock", "_started", "_expires")

    def __init__(self, budget_seconds: float, *, clock=time.monotonic):
        if budget_seconds <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_seconds = float(budget_seconds)
        self._clock = clock
        self._started = clock()
        self._expires = self._started + self.budget_seconds

    def elapsed(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> float:
        return self._expires - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self._expires

    def check(self, counters=None) -> None:
        """Raise :class:`QueryTimeoutError` if the budget is spent."""
        now = self._clock()
        if now >= self._expires:
            elapsed = now - self._started
            raise QueryTimeoutError(
                f"query exceeded its {self.budget_seconds:.3f}s deadline "
                f"({elapsed:.3f}s elapsed)",
                budget_seconds=self.budget_seconds,
                elapsed_seconds=elapsed,
                partial_work=counters.as_dict() if counters is not None else None,
            )


_ambient = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The deadline installed on this thread, or ``None``."""
    return getattr(_ambient, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]):
    """Install ``deadline`` as this thread's ambient deadline.

    ``None`` is a no-op scope, so callers can pass their optional deadline
    straight through.  Scopes nest: the previous ambient deadline (if any)
    is restored on exit.
    """
    if deadline is None:
        yield
        return
    previous = getattr(_ambient, "deadline", None)
    _ambient.deadline = deadline
    try:
        yield
    finally:
        _ambient.deadline = previous

