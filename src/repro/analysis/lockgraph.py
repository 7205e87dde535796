"""Dynamic lock-order (deadlock) race detector.

ThreadSanitizer-style lock-order checking for the project's own locks:
while instrumentation is installed, every instrumented lock acquisition
records the acquiring thread's *held-set* and adds directed edges
``held -> acquired`` to an acquisition-order graph.  A cycle in that graph
is a potential deadlock — two code paths take the same locks in opposite
orders — even if the test run never actually interleaved badly enough to
wedge.  Each edge keeps its first witness: the thread name plus **both**
stacks (where the already-held lock was acquired, and where the new lock
was acquired on top of it), so a reported cycle is actionable without
re-running anything.

What gets instrumented under :func:`instrument`:

* ``threading.Lock()`` / ``threading.RLock()`` constructed *by project
  code* (the creation site's file path contains ``repro/``) — stdlib
  internals (``Condition``, ``Event``, executors, ``http.server``) keep
  raw locks, which keeps the graph readable and avoids re-entrancy
  surprises inside ``threading`` itself.
* :class:`repro.serve.adaptive.ReadWriteLock` — both sides map to one
  graph node (the serving gate); read and write acquisitions order
  identically for deadlock purposes.

Locks are tracked per *instance* (two caches built at the same source line
are distinct nodes) and named by creation site, so reports read as
``Lock@serve/service.py:244``.  Tests can also wrap locks explicitly with
:meth:`LockGraph.wrap` and a chosen name — that is how the seeded AB/BA
regression test drives the detector.

Re-entrant acquisition of the *same* lock by one thread only bumps a
hold-count (no self-edge); cross-thread waits (``Future.result`` and
friends) are invisible here by design — this is a lock-*order* detector,
not a general wait-for-graph.
"""

from __future__ import annotations

import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["LockGraph", "LockOrderError", "instrument"]

#: Raw factories captured before any instrumentation can patch them.
_RAW_LOCK = threading.Lock
_RAW_RLOCK = threading.RLock

#: Frames kept per witness stack (innermost last).
_STACK_LIMIT = 12


class LockOrderError(AssertionError):
    """Raised by :meth:`LockGraph.assert_acyclic` when cycles exist."""


def _capture_stack(skip: int) -> Tuple[str, ...]:
    frames = traceback.extract_stack()[: -skip if skip else None]
    own = __file__.replace("\\", "/")
    kept = [frame for frame in frames if frame.filename.replace("\\", "/") != own]
    return tuple(
        f"{frame.filename}:{frame.lineno} in {frame.name}"
        for frame in kept[-_STACK_LIMIT:]
    )


def _caller_site(depth: int = 2) -> Tuple[str, str]:
    """(filename, short ``path:line`` site) of the frame ``depth`` up."""
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename.replace("\\", "/")
    short = filename
    if "/repro/" in filename:
        short = filename.rsplit("/repro/", 1)[1]
    return filename, f"{short}:{frame.f_lineno}"


def _is_project_file(filename: str) -> bool:
    normalized = filename.replace("\\", "/")
    return "/repro/" in normalized and "/repro/analysis/" not in normalized


@dataclass
class LockInfo:
    """One tracked lock instance."""

    lock_id: int
    name: str
    kind: str  # "lock" | "rlock" | "rwlock" | "wrapped"


@dataclass
class EdgeWitness:
    """First observation of one ``held -> acquired`` ordering."""

    thread: str
    holding_stack: Tuple[str, ...]
    acquire_stack: Tuple[str, ...]


@dataclass
class _Held:
    lock_id: int
    count: int
    stack: Tuple[str, ...]


class LockGraph:
    """The acquisition-order graph plus per-thread held-set bookkeeping.

    Thread-safe; one graph instance is active per :func:`instrument`
    scope.  All bookkeeping uses raw (uninstrumented) locks internally.
    """

    def __init__(self) -> None:
        self._mutex = _RAW_LOCK()
        self.locks: Dict[int, LockInfo] = {}
        #: (held lock id, acquired lock id) -> first witness.
        self.edges: Dict[Tuple[int, int], EdgeWitness] = {}
        self._held: Dict[int, List[_Held]] = {}

    # ------------------------------------------------------------------ #
    # Registration and event intake
    # ------------------------------------------------------------------ #
    def register(self, lock_id: int, name: str, kind: str) -> None:
        with self._mutex:
            self.locks[lock_id] = LockInfo(lock_id, name, kind)

    def wrap(self, lock, name: str, kind: str = "wrapped"):
        """Wrap an existing lock object for explicit tracking (tests)."""
        wrapper = _InstrumentedLock(self, lock)
        self.register(id(wrapper), name, kind)
        return wrapper

    def note_acquire(self, lock_id: int, *, fallback_name: Optional[str] = None) -> None:
        """Record that the current thread now holds ``lock_id``."""
        stack = _capture_stack(skip=2)
        ident = threading.get_ident()
        thread_name = threading.current_thread().name
        with self._mutex:
            if lock_id not in self.locks and fallback_name is not None:
                self.locks[lock_id] = LockInfo(lock_id, fallback_name, "rwlock")
            held = self._held.setdefault(ident, [])
            for entry in held:
                if entry.lock_id == lock_id:
                    entry.count += 1  # re-entrant: no new edges, no self-edge
                    return
            for entry in held:
                key = (entry.lock_id, lock_id)
                if key not in self.edges:
                    self.edges[key] = EdgeWitness(thread_name, entry.stack, stack)
            held.append(_Held(lock_id, 1, stack))

    def note_release(self, lock_id: int) -> None:
        with self._mutex:
            held = self._held.get(threading.get_ident())
            if not held:
                return
            for index in range(len(held) - 1, -1, -1):
                if held[index].lock_id == lock_id:
                    held[index].count -= 1
                    if held[index].count == 0:
                        del held[index]
                    return

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def name_of(self, lock_id: int) -> str:
        info = self.locks.get(lock_id)
        return info.name if info is not None else f"lock<{lock_id:#x}>"

    def edge_names(self) -> Set[Tuple[str, str]]:
        """The observed orderings as ``(held name, acquired name)`` pairs."""
        with self._mutex:
            return {(self.name_of(a), self.name_of(b)) for (a, b) in self.edges}

    def cycles(self) -> List[List[int]]:
        """Every distinct acquisition-order cycle, as lock-id paths.

        Each returned list is one cycle ``[a, b, ..., z]`` meaning edges
        ``a->b->...->z->a`` were all observed.  Cycles that visit the same
        set of locks are reported once.
        """
        with self._mutex:
            adjacency: Dict[int, List[int]] = {}
            for a, b in self.edges:
                adjacency.setdefault(a, []).append(b)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in adjacency}
        found: List[List[int]] = []
        seen_sets: Set[frozenset] = set()
        path: List[int] = []

        def visit(node: int) -> None:
            color[node] = GREY
            path.append(node)
            for neighbour in adjacency.get(node, ()):
                if neighbour not in adjacency:
                    continue  # sink: cannot be on a cycle through adjacency
                if color[neighbour] == GREY:
                    cycle = path[path.index(neighbour) :]
                    key = frozenset(cycle)
                    if key not in seen_sets:
                        seen_sets.add(key)
                        found.append(list(cycle))
                elif color[neighbour] == WHITE:
                    visit(neighbour)
            path.pop()
            color[node] = BLACK

        for node in list(adjacency):
            if color[node] == WHITE:
                visit(node)
        return found

    def report_cycles(self, cycles: Optional[Sequence[Sequence[int]]] = None) -> str:
        """Human-readable potential-deadlock report with both witness stacks."""
        if cycles is None:
            cycles = self.cycles()
        if not cycles:
            return "lock-order graph is acyclic"
        lines: List[str] = []
        with self._mutex:
            edges = dict(self.edges)
        for cycle in cycles:
            names = " -> ".join(self.name_of(node) for node in cycle)
            lines.append(f"potential deadlock: {names} -> {self.name_of(cycle[0])}")
            for position, node in enumerate(cycle):
                successor = cycle[(position + 1) % len(cycle)]
                witness = edges.get((node, successor))
                if witness is None:
                    continue
                lines.append(
                    f"  edge {self.name_of(node)} -> {self.name_of(successor)} "
                    f"(thread {witness.thread!r}):"
                )
                lines.append(f"    {self.name_of(node)} was acquired at:")
                lines.extend(f"      {frame}" for frame in witness.holding_stack[-6:])
                lines.append(f"    then {self.name_of(successor)} was acquired at:")
                lines.extend(f"      {frame}" for frame in witness.acquire_stack[-6:])
        return "\n".join(lines)

    def assert_acyclic(self) -> None:
        cycles = self.cycles()
        if cycles:
            raise LockOrderError(
                "lock-order cycles detected (potential deadlocks):\n" + self.report_cycles(cycles)
            )


class _InstrumentedLock:
    """Records acquire/release events around a real ``Lock``/``RLock``.

    Re-entrancy is the real lock's business; the graph only counts.  The
    ``_is_owned``/``_release_save``/``_acquire_restore`` delegates keep a
    wrapped ``RLock`` usable as a ``Condition`` lock.
    """

    def __init__(self, graph: LockGraph, real) -> None:
        self._graph = graph
        self._real = real

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._graph.note_acquire(id(self))
        return acquired

    def release(self) -> None:
        self._graph.note_release(id(self))
        self._real.release()

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def _is_owned(self):
        return self._real._is_owned()

    def _release_save(self):
        return self._real._release_save()

    def _acquire_restore(self, state):
        return self._real._acquire_restore(state)


# --------------------------------------------------------------------- #
# Installation: patch the project's lock construction sites
# --------------------------------------------------------------------- #
_install_mutex = _RAW_LOCK()
_active: Optional[LockGraph] = None


def _make_factory(raw_factory, kind: str):
    def factory(*args, **kwargs):
        real = raw_factory(*args, **kwargs)
        graph = _active
        if graph is None:
            return real
        filename, site = _caller_site(depth=2)
        if not _is_project_file(filename):
            return real
        wrapper = _InstrumentedLock(graph, real)
        graph.register(id(wrapper), f"{kind.capitalize()}@{site}", kind)
        return wrapper

    return factory


class instrument:
    """Context manager activating lock instrumentation for ``graph``.

    While entered, ``threading.Lock``/``threading.RLock`` constructed from
    project files return instrumented wrappers, and ``ReadWriteLock``
    acquisitions feed the graph.  Locks created *before* entry stay raw —
    build the objects under test inside the scope (the conftest fixture
    wraps each test, so per-test construction is already inside).
    """

    def __init__(self, graph: LockGraph) -> None:
        self.graph = graph
        self._saved: Dict[str, object] = {}

    def __enter__(self) -> LockGraph:
        global _active
        with _install_mutex:
            if _active is not None:
                raise RuntimeError("lockgraph instrumentation is already installed")
            _active = self.graph
        threading.Lock = _make_factory(_RAW_LOCK, "lock")
        threading.RLock = _make_factory(_RAW_RLOCK, "rlock")
        self._patch_rwlock()
        return self.graph

    def __exit__(self, *exc_info) -> None:
        global _active
        threading.Lock = _RAW_LOCK
        threading.RLock = _RAW_RLOCK
        self._unpatch_rwlock()
        with _install_mutex:
            _active = None

    # -- ReadWriteLock -------------------------------------------------- #
    def _patch_rwlock(self) -> None:
        from repro.serve import adaptive

        cls = adaptive.ReadWriteLock
        self._saved = {
            "cls": cls,
            "__init__": cls.__init__,
            "acquire_read": cls.acquire_read,
            "release_read": cls.release_read,
            "acquire_write": cls.acquire_write,
            "release_write": cls.release_write,
        }
        graph = self.graph
        original_init = cls.__init__
        original = {
            name: self._saved[name]
            for name in ("acquire_read", "release_read", "acquire_write", "release_write")
        }

        def patched_init(rw, *args, **kwargs):
            original_init(rw, *args, **kwargs)
            if _active is graph:
                _filename, site = _caller_site(depth=2)
                graph.register(id(rw), f"ReadWriteLock@{site}", "rwlock")

        def patched_acquire(name):
            orig = original[name]

            def method(rw, *args, **kwargs):
                result = orig(rw, *args, **kwargs)
                if _active is graph:
                    graph.note_acquire(id(rw), fallback_name=f"ReadWriteLock<{id(rw):#x}>")
                return result

            return method

        def patched_release(name):
            orig = original[name]

            def method(rw, *args, **kwargs):
                if _active is graph:
                    graph.note_release(id(rw))
                return orig(rw, *args, **kwargs)

            return method

        cls.__init__ = patched_init
        cls.acquire_read = patched_acquire("acquire_read")
        cls.acquire_write = patched_acquire("acquire_write")
        cls.release_read = patched_release("release_read")
        cls.release_write = patched_release("release_write")

    def _unpatch_rwlock(self) -> None:
        cls = self._saved.get("cls")
        if cls is None:
            return
        cls.__init__ = self._saved["__init__"]
        cls.acquire_read = self._saved["acquire_read"]
        cls.release_read = self._saved["release_read"]
        cls.acquire_write = self._saved["acquire_write"]
        cls.release_write = self._saved["release_write"]
        self._saved = {}
