"""Generation-validated LRU result cache.

Each entry stores the full routed execution of one query (a view over the
result's shared immutable columns + the
:class:`~repro.core.metrics.QueryRecord` accounting) together with the
:attr:`DualStore.generation <repro.core.dualstore.DualStore.generation>` the
execution observed.  Correctness rests on two independent mechanisms:

1. **Eager invalidation** — the owning service registers an invalidation hook
   on the dual store, and every answer-changing mutation (``insert``,
   ``transfer_partition``, ``evict_partition``) empties the cache.
2. **Generation check at lookup** — even if no hook were registered (or an
   execution raced with a mutation), :meth:`ResultCache.get` only returns an
   entry whose recorded generation equals the store's *current* generation.

Either mechanism alone prevents stale hits; together they make staleness
impossible by construction rather than by caller discipline.

Note that transfers/evictions are invalidating even though they cannot change
query *answers*: they change routing, so a cached record's ``route`` and
modelled ``seconds`` would misreport how the store would execute the query
now — and the experiments' TTI accounting must stay truthful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.metrics import QueryRecord
from repro.execution import ExecutionResult

from repro.serve.lru import LRUCache

__all__ = ["CachedExecution", "ResultCache"]


@dataclass
class CachedExecution:
    """One cached routed execution, tagged with the generation it observed."""

    key: str
    result: ExecutionResult
    record: QueryRecord
    generation: int


class ResultCache(LRUCache[str, CachedExecution]):
    """A thread-safe LRU cache of :class:`CachedExecution` entries."""

    def __init__(self, capacity: int = 4096):
        super().__init__(capacity, what="result cache")

    def get(  # type: ignore[override]
        self, key: str, generation: int
    ) -> Tuple[Optional[CachedExecution], bool]:
        """``(entry, stale)``: the entry for ``key`` (``None`` if absent or
        stale) and whether this lookup dropped a stale entry.

        A stale entry (recorded under an *older* generation than the caller
        observed) is dropped on sight; the caller counts the rejection.  An
        entry from a *newer* generation than the caller's snapshot is a miss
        but is left in place: it was cached by a serve that already saw the
        mutation, so it is fresh for every up-to-date caller and must not be
        evicted by a straggler.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None, False
            if entry.generation != generation:
                stale = entry.generation < generation
                if stale:
                    del self._entries[key]
                return None, stale
            self._entries.move_to_end(key)
            return entry, False

    def put(self, entry: CachedExecution) -> None:  # type: ignore[override]
        super().put(entry.key, entry)

    def invalidate_all(self) -> int:
        """Drop every entry (mutation hook); returns the number dropped."""
        return self.clear()
