"""The project's invariant rules (``REP001``–``REP004``, ``REP006``–``REP010``;
``REP005`` is retired and its ID is not reused).

Each rule encodes one convention the serving system depends on; the rule
docstrings are the normative statement, ``docs/architecture.md`` §11 the
narrative rationale.  Rules are deliberately scoped by package-relative
path (see :func:`repro.analysis.lint.module_subpath`) so a fixture file
passed under a synthetic ``src/repro/...`` path is linted exactly like the
real module.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import Finding, LintModule, Rule

__all__ = [
    "ClockDisciplineRule",
    "ThreadDisciplineRule",
    "DurableRenameRule",
    "ExceptionEvidenceRule",
    "MutationHookRule",
    "BatchDecodeRule",
    "ColumnarResultRule",
    "OracleImportRule",
    "UnusedImportRule",
    "DEFAULT_RULES",
]


# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #
def _time_bindings(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names bound to the ``time`` module and to ``time.time``/``time.monotonic``."""
    module_aliases: Set[str] = set()
    member_aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in ("time", "monotonic"):
                    member_aliases.add(alias.asname or alias.name)
    return module_aliases, member_aliases


def _imported_names(tree: ast.Module, module: str, member: str) -> Set[str]:
    """Local names bound to ``module.member`` via ``from module import member``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name == member:
                    names.add(alias.asname or alias.name)
    return names


def _keyword_names(call: ast.Call) -> Set[Optional[str]]:
    return {keyword.arg for keyword in call.keywords}


def _walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module) -> Iterator[Tuple[Optional[str], Sequence[ast.stmt]]]:
    """Yield ``(function_name, body)`` for module scope and every function."""
    yield None, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.body


# --------------------------------------------------------------------- #
# REP001 — injected clocks only
# --------------------------------------------------------------------- #
class ClockDisciplineRule(Rule):
    """No direct ``time.time()``/``time.monotonic()`` calls in modules that
    declare injectable clocks (``resilience/*`` and ``endpoint/client.py``).

    Those modules take a ``clock=`` parameter precisely so deterministic
    tests can script time; a direct call in a method body silently escapes
    the injection and reintroduces wall-clock flakiness.  A *reference*
    such as the ``clock=time.monotonic`` default argument is fine — only
    calls are flagged.
    """

    name = "REP001"
    description = (
        "no direct time.time()/time.monotonic() calls in clock-injectable "
        "modules (resilience/*, endpoint/client.py); use the injected clock"
    )

    SCOPES = ("resilience/",)
    FILES = ("endpoint/client.py",)

    def applies_to(self, module: LintModule) -> bool:
        return module.subpath.startswith(self.SCOPES) or module.subpath in self.FILES

    def check(self, module: LintModule) -> Iterator[Finding]:
        module_aliases, member_aliases = _time_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("time", "monotonic")
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
            ):
                called = f"{func.value.id}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in member_aliases:
                called = func.id
            else:
                continue
            yield self.finding(
                module,
                node,
                f"direct {called}() call in a clock-injectable module; "
                "route it through the injected clock",
            )


# --------------------------------------------------------------------- #
# REP002 — background threads are identifiable and daemon-explicit
# --------------------------------------------------------------------- #
class ThreadDisciplineRule(Rule):
    """Every ``threading.Thread(...)`` must pass ``name=`` and an explicit
    ``daemon=``; every ``ThreadPoolExecutor(...)`` must pass
    ``thread_name_prefix=``.

    Post-mortems and the stuck-thread sweep identify threads by name, and
    an implicit daemon flag (inherited from the creating thread) has
    already shipped one silent thread leak.  Calls forwarding ``**kwargs``
    are skipped — the linter cannot see through them.
    """

    name = "REP002"
    description = (
        "threading.Thread(...) must pass name= and explicit daemon=; "
        "ThreadPoolExecutor(...) must pass thread_name_prefix="
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        thread_names = _imported_names(module.tree, "threading", "Thread")
        pool_names = _imported_names(module.tree, "concurrent.futures", "ThreadPoolExecutor")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_thread = (
                isinstance(func, ast.Attribute)
                and func.attr == "Thread"
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"
            ) or (isinstance(func, ast.Name) and func.id in thread_names)
            is_pool = (
                isinstance(func, ast.Attribute) and func.attr == "ThreadPoolExecutor"
            ) or (isinstance(func, ast.Name) and func.id in pool_names)
            if not (is_thread or is_pool):
                continue
            keywords = _keyword_names(node)
            if None in keywords:
                continue  # **kwargs forwarding: opaque to static analysis
            if is_thread:
                missing = [kw for kw in ("name", "daemon") if kw not in keywords]
                if missing:
                    yield self.finding(
                        module,
                        node,
                        "threading.Thread(...) without "
                        + " and ".join(f"{kw}=" for kw in missing)
                        + "; background threads must be named and daemon-explicit",
                    )
            elif "thread_name_prefix" not in keywords:
                yield self.finding(
                    module,
                    node,
                    "ThreadPoolExecutor(...) without thread_name_prefix=; "
                    "pool threads must be identifiable in stack dumps",
                )


# --------------------------------------------------------------------- #
# REP003 — durable renames carry an fsync
# --------------------------------------------------------------------- #
class DurableRenameRule(Rule):
    """In ``persist/*``, a function calling ``os.rename``/``os.replace``
    must also call an fsync (``os.fsync`` or an ``*fsync*`` helper such as
    ``_fsync_dir``) in the same function.

    A rename without a directory fsync is durable only until the first
    power cut: the metadata journal may still hold the old directory
    entry.  The snapshot store's publish path (``_write_file`` +
    ``_fsync_dir`` + ``os.replace``) is the model.
    """

    name = "REP003"
    description = (
        "persist/*: os.rename/os.replace of durable files requires an "
        "fsync in the same function"
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.subpath.startswith("persist/")

    @staticmethod
    def _is_os_rename(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("rename", "replace")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
        )

    @staticmethod
    def _is_fsync_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return "fsync" in func.attr
        if isinstance(func, ast.Name):
            return "fsync" in func.id
        return False

    def check(self, module: LintModule) -> Iterator[Finding]:
        for _name, body in _scopes(module.tree):
            renames = []
            fsyncs = False
            for node in _walk_scope(body):
                if self._is_os_rename(node):
                    renames.append(node)
                elif self._is_fsync_call(node):
                    fsyncs = True
            if fsyncs:
                continue
            for node in renames:
                yield self.finding(
                    module,
                    node,
                    f"os.{node.func.attr}() without an fsync in the same "  # type: ignore[union-attr]
                    "function; the rename is not durable across a crash",
                )


# --------------------------------------------------------------------- #
# REP004 — swallowed exceptions leave evidence
# --------------------------------------------------------------------- #
class ExceptionEvidenceRule(Rule):
    """A handler catching ``Exception``/``BaseException`` (or bare) must
    re-raise, use the caught exception, or record evidence (a counter
    increment or a ``last_*_error`` slot).

    The WAL's poison-closed discipline is the model: a swallowed failure
    bumps ``wal_failures`` and lands in ``last_wal_error``, so operators
    can see it in ``/metrics`` instead of debugging a silent gap.
    """

    name = "REP004"
    description = (
        "broad except handlers must re-raise, use the caught exception, or "
        "record a counter / last_*_error slot"
    )

    _EVIDENCE_ATTR = re.compile(r"(error|failure|retries|restart|count)", re.IGNORECASE)
    _EVIDENCE_CALL = re.compile(r"^(record|note|count|incr|increment|observe|mark)", re.IGNORECASE)

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        kind = handler.type
        if kind is None:
            return True
        names = []
        if isinstance(kind, ast.Name):
            names = [kind.id]
        elif isinstance(kind, ast.Tuple):
            names = [elt.id for elt in kind.elts if isinstance(elt, ast.Name)]
        return any(name in ("Exception", "BaseException") for name in names)

    def _has_evidence(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if bound is not None and isinstance(node, ast.Name) and node.id == bound:
                return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    elements = target.elts if isinstance(target, ast.Tuple) else [target]
                    for element in elements:
                        if isinstance(element, ast.Attribute) and self._EVIDENCE_ATTR.search(
                            element.attr
                        ):
                            return True
            if isinstance(node, ast.Call):
                func = node.func
                callee = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else ""
                )
                if self._EVIDENCE_CALL.match(callee):
                    return True
        return False

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._has_evidence(node):
                continue
            yield self.finding(
                module,
                node,
                "broad exception handler swallows the error without "
                "re-raising, using it, or recording a counter/last_*_error",
            )


# --------------------------------------------------------------------- #
# REP006 — DualStore mutations fire the listener hook
# --------------------------------------------------------------------- #
class MutationHookRule(Rule):
    """Every public ``DualStore`` mutation method must fire the
    mutation-listener hook — by calling ``self._bump_generation(...)``,
    entering ``self.batch_mutations()``, or delegating to another mutation
    method that does.

    The hook is the seam the WAL and the generation the snapshots and
    followers track hang off; a mutation path that skips it silently
    desynchronises every replica in the system.
    """

    name = "REP006"
    description = (
        "public DualStore mutation methods must fire the mutation-listener "
        "hook (_bump_generation / batch_mutations / delegation)"
    )

    MUTATORS = frozenset(
        [
            "load",
            "insert",
            "delete",
            "transfer_partition",
            "evict_partition",
            "apply_moves",
            "transfer_partitions",
        ]
    )
    HOOKS = frozenset(["_bump_generation", "batch_mutations"])

    def _fires_hook(self, method: ast.FunctionDef) -> bool:
        allowed = self.HOOKS | (self.MUTATORS - {method.name})
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in allowed
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                return True
        return False

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "DualStore"):
                continue
            for statement in node.body:
                if not isinstance(statement, ast.FunctionDef):
                    continue
                if statement.name not in self.MUTATORS:
                    continue
                if self._fires_hook(statement):
                    continue
                yield self.finding(
                    module,
                    statement,
                    f"DualStore.{statement.name}() never fires the mutation-"
                    "listener hook (_bump_generation / batch_mutations / "
                    "delegation to a hooked mutator)",
                )


# --------------------------------------------------------------------- #
# REP007 — columnar kernels decode in batch, never per row
# --------------------------------------------------------------------- #
class BatchDecodeRule(Rule):
    """No ``decode(...)``/``lookup(...)`` calls inside loop bodies in
    ``relstore/columnar*``.

    The columnar engine's whole bargain is batch kernels over id vectors: a
    per-row dictionary round-trip inside a loop silently reverts a kernel to
    row-at-a-time materialization, the exact hot-path regression this engine
    exists to remove.  Loops (and comprehensions) must pre-resolve terms
    through the batch surfaces — ``decode_many``/``lookup_many``, or
    ``QueryTermSpace.decode_map`` — before iterating.
    """

    name = "REP007"
    description = (
        "relstore/columnar*: no decode()/lookup() calls inside loop bodies; "
        "batch kernels must use decode_many/lookup_many"
    )

    #: The exact per-row call names banned inside loops.  The batch surfaces
    #: (``decode_many``/``lookup_many``/``decode_map``) do not match.
    BANNED = frozenset(["decode", "lookup"])

    def applies_to(self, module: LintModule) -> bool:
        return module.subpath.startswith("relstore/columnar")

    @classmethod
    def _loop_interiors(cls, tree: ast.Module) -> Iterator[ast.AST]:
        """Every node that executes once per iteration of some loop."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for statement in list(node.body) + list(node.orelse):
                    yield from ast.walk(statement)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                per_iteration = (
                    [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
                )
                per_iteration.extend(
                    condition for comp in node.generators for condition in comp.ifs
                )
                for expression in per_iteration:
                    yield from ast.walk(expression)

    def check(self, module: LintModule) -> Iterator[Finding]:
        seen: Set[ast.AST] = set()
        for node in self._loop_interiors(module.tree):
            if not isinstance(node, ast.Call) or node in seen:
                continue
            seen.add(node)
            func = node.func
            called = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else ""
            )
            if called in self.BANNED:
                yield self.finding(
                    module,
                    node,
                    f"per-row {called}() inside a loop body in a columnar "
                    "kernel; pre-resolve in batch with "
                    f"{called}_many/decode_map before the loop",
                )


# --------------------------------------------------------------------- #
# REP008 — the serving path reads result columns, never per-row objects
# --------------------------------------------------------------------- #
class ColumnarResultRule(Rule):
    """No read of ``.bindings`` and no ``.to_bindings()``/``.rows()`` call
    under ``serve/``, ``endpoint/`` or in ``core/processor.py``.

    A result travels from the engine to the socket as one shared columnar
    value (:class:`~repro.execution.ResultColumns`).  The per-row views
    materialize a dict or tuple per solution — they exist for experiment
    code and the oracles; one read on the serving path silently brings the
    per-row allocation (and the collector stalls that came with it) back
    for every request that passes through.
    """

    name = "REP008"
    description = (
        "serve/, endpoint/, core/processor.py: no .bindings read and no "
        ".to_bindings()/.rows() call; the serving path reads result columns"
    )

    #: Per-row view methods, flagged where called.
    BANNED_CALLS = frozenset(["to_bindings", "rows"])

    def applies_to(self, module: LintModule) -> bool:
        return module.subpath.startswith(("serve/", "endpoint/")) or (
            module.subpath == "core/processor.py"
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "bindings"
                and isinstance(node.ctx, ast.Load)
            ):
                view = ".bindings"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.BANNED_CALLS
            ):
                view = f".{node.func.attr}()"
            else:
                continue
            yield self.finding(
                module,
                node,
                f"per-row result view {view} on the serving path; read "
                "result.columns (or share them with result.view())",
            )


# --------------------------------------------------------------------- #
# REP009 — the oracles stay with the tests
# --------------------------------------------------------------------- #
class OracleImportRule(Rule):
    """Nothing under ``src/`` imports from ``tests/`` (the ``tests``
    package or its oracle modules), and nothing under ``relstore/`` imports
    a SQLite driver.

    The engines' oracles — the decode-per-row relational store, the
    object-space graph matcher, the SQLite backend — are test code: the
    shipped package must run, and import, without them.  An import from
    ``tests/`` works only from a checkout; a SQLite driver in the relational
    store is an oracle's storage creeping back into the system.
    """

    name = "REP009"
    description = (
        "src/: no import from tests/ or its oracle modules; "
        "relstore/: no SQLite driver import"
    )

    #: Top-level module names that only resolve with ``tests/`` on the path.
    TEST_MODULES = frozenset(
        [
            "tests",
            "conftest",
            "graph_oracle",
            "relational_oracle",
            "sql_oracle",
            "results_json_oracle",
        ]
    )

    @staticmethod
    def _imported_modules(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
        """``(node, top-level module)`` of every absolute import."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                yield node, node.module.split(".")[0]

    def check(self, module: LintModule) -> Iterator[Finding]:
        in_relstore = module.subpath.startswith("relstore/")
        for node, top in self._imported_modules(module.tree):
            if top in self.TEST_MODULES:
                yield self.finding(
                    module, node, f"import of test module {top!r}; oracles live in tests/"
                )
            elif in_relstore and top.startswith("sqlite"):
                yield self.finding(
                    module,
                    node,
                    f"relstore/ imports the SQLite driver {top!r}; the SQLite "
                    "oracle lives in tests/",
                )


# --------------------------------------------------------------------- #
# REP010 — every import is used
# --------------------------------------------------------------------- #
def _dotted_name(module: LintModule) -> str:
    """``repro.core.dualstore`` for ``.../repro/core/dualstore.py``."""
    parts = module.subpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


def _imported_from(module: LintModule, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` reads, relative ones resolved."""
    if not node.level:
        return node.module or ""
    package = _dotted_name(module).split(".")
    if not module.subpath.endswith("__init__.py"):
        package.pop()
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


class UnusedImportRule(Rule):
    """Every name an ``import`` binds is used by its module.

    A name counts as used when the module reads it (in code, or inside a
    string annotation), lists it in ``__all__``, or another linted module
    imports it from this one (a re-export).  An unused import is a
    dependency nobody needs: it slows every import of the module, can close
    an import cycle, and tells the reader the module uses what it does not.
    ``from __future__`` imports are exempt.
    """

    name = "REP010"
    description = "every imported name is used, listed in __all__, or re-imported elsewhere"

    def __init__(self) -> None:
        self._reimported: Set[Tuple[str, str]] = set()

    def prepare(self, modules: Sequence[LintModule]) -> None:
        self._reimported = {
            (_imported_from(module, node), alias.name)
            for module in modules
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }

    @staticmethod
    def _used_names(tree: ast.Module) -> Set[str]:
        used: Set[str] = set()
        annotations: List[Optional[ast.AST]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg):
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations.append(node.returns)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign):
                    annotations.append(node.annotation)
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is not None and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in targets
                ):
                    used.update(
                        element.value
                        for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant) and isinstance(element.value, str)
                    )
        for annotation in filter(None, annotations):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    try:
                        parsed = ast.parse(node.value, mode="eval")
                    except SyntaxError:
                        continue
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
        return used

    def check(self, module: LintModule) -> Iterator[Finding]:
        used = self._used_names(module.tree)
        dotted = _dotted_name(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                bound = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(alias, alias.asname or alias.name) for alias in node.names]
            else:
                continue
            for alias, name in bound:
                if name == "*" or name in used or (dotted, name) in self._reimported:
                    continue
                yield self.finding(module, alias, f"{name!r} is imported but never used")


DEFAULT_RULES: Tuple[Rule, ...] = (
    ClockDisciplineRule(),
    ThreadDisciplineRule(),
    DurableRenameRule(),
    ExceptionEvidenceRule(),
    MutationHookRule(),
    BatchDecodeRule(),
    ColumnarResultRule(),
    OracleImportRule(),
    UnusedImportRule(),
)
