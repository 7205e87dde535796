"""``ast``-based invariant-lint framework.

The framework is deliberately small: a :class:`Rule` visits one parsed
module and yields :class:`Finding`\\ s; :func:`lint_source` /
:func:`lint_paths` run a rule set over source text or a file tree and
filter findings through the inline suppression table.  The project rules
themselves live in :mod:`repro.analysis.rules`; the CLI in
``repro/analysis/__main__.py``.

Suppressions
------------
A finding is suppressed by a ``# repro: allow[RULE]`` comment on the
flagged line or on the line directly above it::

    thread = threading.Thread(target=loop)  # repro: allow[REP002]

    # repro: allow[REP001]
    now = time.monotonic()

Several rules may be listed (``allow[REP001,REP004]``); ``allow[ALL]``
suppresses every rule on that line.  Parse failures are reported as rule
``REP000`` and cannot be suppressed — a file the linter cannot read is a
finding in itself.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

__all__ = ["Finding", "LintModule", "Rule", "lint_source", "lint_paths", "iter_python_files"]

#: Rule name reserved for files the linter cannot parse (unsuppressable).
PARSE_ERROR_RULE = "REP000"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def module_subpath(path: str) -> str:
    """The path below the last ``repro`` package directory, POSIX-style.

    Rules scope themselves to package-relative locations
    (``resilience/fleet.py``, ``persist/snapshot.py``) so the linter gives
    the same answer for ``src/repro/persist/wal.py``, an installed
    ``.../site-packages/repro/persist/wal.py``, and a test fixture passing
    a synthetic path.  A path with no ``repro`` component is returned
    as-is.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        below = parts[index + 1 :]
        if below:
            return "/".join(below)
    return "/".join(parts)


def _scan_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    table: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {part.strip().upper() for part in match.group(1).split(",") if part.strip()}
        if rules:
            table[number] = rules
    return table


class LintModule:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.subpath = module_subpath(path)
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self._suppressions = _scan_suppressions(self.lines)

    def suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is allowed on ``line`` (same line or the one above)."""
        if rule == PARSE_ERROR_RULE:
            return False
        for probe in (line, line - 1):
            allowed = self._suppressions.get(probe)
            if allowed is not None and (rule in allowed or "ALL" in allowed):
                return True
        return False


class Rule:
    """Base class for invariant rules.

    Subclasses set :attr:`name` (``REPnnn``) and :attr:`description`,
    optionally narrow :meth:`applies_to`, implement :meth:`check`, and may
    override :meth:`prepare` to see every module of the run first.
    """

    name: str = ""
    description: str = ""

    def prepare(self, modules: Sequence[LintModule]) -> None:
        """Called once per run with every parsed module, before any check."""

    def applies_to(self, module: LintModule) -> bool:
        return True

    def check(self, module: LintModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: LintModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _sort_key(finding: Finding):
    return (finding.path, finding.line, finding.col, finding.rule)


def _parse(source: str, path: str) -> LintModule | Finding:
    """The parsed module, or the parse-error finding for it."""
    try:
        return LintModule(path, source)
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_ERROR_RULE,
            path=path,
            line=exc.lineno or 0,
            col=(exc.offset or 1) - 1,
            message=f"cannot parse file: {exc.msg}",
        )


def _lint_modules(
    parsed: Sequence[LintModule | Finding], rules: Optional[Sequence[Rule]]
) -> List[Finding]:
    if rules is None:
        from repro.analysis.rules import DEFAULT_RULES

        rules = DEFAULT_RULES
    modules = [module for module in parsed if isinstance(module, LintModule)]
    findings = [finding for finding in parsed if isinstance(finding, Finding)]
    for rule in rules:
        rule.prepare(modules)
        for module in modules:
            if not rule.applies_to(module):
                continue
            for found in rule.check(module):
                if not module.suppressed(found.rule, found.line):
                    findings.append(found)
    return sorted(findings, key=_sort_key)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source text under ``path`` (which drives rule scoping)."""
    return _lint_modules([_parse(source, path)], rules)


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files or directory trees)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths``; returns sorted findings."""
    parsed = [
        _parse(file_path.read_text(encoding="utf-8"), str(file_path))
        for file_path in iter_python_files(paths)
    ]
    return _lint_modules(parsed, rules)
