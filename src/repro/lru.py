"""The one cache class: a thread-safe LRU map whose entries carry a stamp.

Every cache in the package is an :class:`LRUCache` — the serving layer's
plan cache, canonical-key memo and result cache, the relational store's
bound-plan memo and the dual store's pricing memo.  Each stores a value with
the *stamp* of what it read, and a lookup hits only under an equal stamp: a
value is a function of what its stamp names, so a hit returns what a fresh
computation would.  Caches of pure functions of their key (the plan cache,
the key memo) use the constant stamp ``None``.  The stores' stamps are
:meth:`RelationalStore.read_stamp <repro.relstore.store.RelationalStore.read_stamp>`
and :meth:`DualStore.read_stamp <repro.core.dualstore.DualStore.read_stamp>`:
derived from store state, so no mutation has to tell a cache anything.

A leaf module (it imports nothing from the package), so every layer can use
it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Optional, Tuple, TypeVar

__all__ = ["LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A capacity-bounded, thread-safe LRU map of ``key -> (stamp, value)``.

    ``None`` is the miss marker, never a stored value."""

    def __init__(self, capacity: int, what: str = "cache"):
        if capacity < 1:
            raise ValueError(f"{what} capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[K, Tuple[object, V]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K, stamp: object = None) -> Tuple[Optional[V], bool]:
        """``(value, dropped)``: the value stored for ``key`` under an equal
        ``stamp`` (``None`` on a miss), and whether this lookup dropped an
        entry stored under another stamp.  A hit makes the entry the most
        recently used; a falsy value is a hit like any other."""
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                return None, False
            if slot[0] != stamp:
                del self._entries[key]
                return None, True
            self._entries.move_to_end(key)
            return slot[1], False

    def put(self, key: K, value: V, stamp: object = None) -> None:
        with self._lock:
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def memo(self, key: K, stamp: object, compute: Callable[[], V]) -> V:
        """The value for ``key`` under ``stamp``: a hit, or ``compute()``
        stored.  ``compute`` runs outside the lock — concurrent callers may
        both compute, which is benign: both values are valid for the stamp."""
        value, _dropped = self.get(key, stamp)
        if value is None:
            value = compute()
            self.put(key, value, stamp)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries
