"""Project-invariant static analysis and dynamic lock-order checking.

The serving system's correctness rests on a handful of conventions:
clocks are injected, background threads are named, durable renames are
fsynced, swallowed exceptions leave evidence, every
:class:`~repro.core.dualstore.DualStore` mutation fires the listener hook,
columnar kernels decode in batch, the serving path reads result columns,
and ``src/`` never imports the test oracles.  This package enforces those
conventions mechanically:

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` — an ``ast``
  based invariant linter (``python -m repro.analysis --list-rules``) with
  ``file:line`` findings, inline ``# repro: allow[RULE]`` suppressions and a CLI
  (``python -m repro.analysis src/``) that exits non-zero on findings.
* :mod:`repro.analysis.lockgraph` — a runtime lock-order race detector:
  instruments the project's lock classes, records per-thread held-sets,
  builds the directed acquisition-order graph and reports cycles as
  potential deadlocks with both witness stacks.

See ``docs/architecture.md`` §11 for the catalogue of enforced invariants.
"""

from repro.analysis.lint import Finding, LintModule, Rule, lint_paths, lint_source
from repro.analysis.lockgraph import LockGraph, LockOrderError, instrument
from repro.analysis.rules import DEFAULT_RULES

__all__ = [
    "Finding",
    "LintModule",
    "Rule",
    "lint_paths",
    "lint_source",
    "DEFAULT_RULES",
    "LockGraph",
    "LockOrderError",
    "instrument",
]
