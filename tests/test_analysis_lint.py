"""Invariant-linter suite: one bad/good fixture pair per REP rule, the
suppression grammar, the CLI contract, and the repository gate itself
(``src/`` must lint clean — the same check CI's ``static-analysis`` job
enforces)."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import DEFAULT_RULES, lint_paths, lint_source
from repro.analysis.__main__ import main as lint_main
from repro.analysis.lint import PARSE_ERROR_RULE, module_subpath

SRC_ROOT = Path(repro.__file__).resolve().parent  # .../src/repro


def lint(source: str, path: str):
    return lint_source(textwrap.dedent(source), path)


def rules_hit(source: str, path: str):
    return sorted({finding.rule for finding in lint(source, path)})


# --------------------------------------------------------------------------- #
# Framework basics
# --------------------------------------------------------------------------- #
def test_module_subpath_strips_everything_above_the_package():
    assert module_subpath("src/repro/persist/wal.py") == "persist/wal.py"
    assert module_subpath("/x/site-packages/repro/serve/service.py") == "serve/service.py"
    assert module_subpath("tests/test_foo.py") == "tests/test_foo.py"


def test_parse_error_is_reported_as_rep000_and_cannot_be_suppressed():
    findings = lint("def broken(:\n    pass  # repro: allow[ALL]\n", "src/repro/x.py")
    assert [finding.rule for finding in findings] == [PARSE_ERROR_RULE]
    assert "cannot parse" in findings[0].message


def test_findings_carry_file_line_and_column():
    (finding,) = lint(
        """
        import threading

        worker = threading.Thread(target=print)
        """,
        "src/repro/x.py",
    )
    assert finding.rule == "REP002"
    assert finding.line == 4
    assert finding.format().startswith("src/repro/x.py:4:")


# --------------------------------------------------------------------------- #
# REP001 — injected clocks only
# --------------------------------------------------------------------------- #
REP001_BAD = """
    import time

    class Monitor:
        def sweep(self):
            return time.monotonic()
"""

REP001_GOOD = """
    import time

    class Monitor:
        def __init__(self, clock=time.monotonic):
            self._clock = clock

        def sweep(self):
            return self._clock()
"""


def test_rep001_flags_direct_clock_calls_in_resilience():
    assert rules_hit(REP001_BAD, "src/repro/resilience/fake.py") == ["REP001"]


def test_rep001_accepts_the_injected_clock_and_default_arg_reference():
    assert rules_hit(REP001_GOOD, "src/repro/resilience/fake.py") == []


def test_rep001_catches_from_time_import_aliases():
    source = """
        from time import monotonic as now

        def sweep():
            return now()
    """
    assert rules_hit(source, "src/repro/endpoint/client.py") == ["REP001"]


def test_rep001_is_scoped_to_clock_injectable_modules():
    # The serve layer measures real wall-clock on purpose.
    assert rules_hit(REP001_BAD, "src/repro/serve/service.py") == []


# --------------------------------------------------------------------------- #
# REP002 — named, daemon-explicit threads
# --------------------------------------------------------------------------- #
REP002_BAD = """
    import threading

    def start():
        thread = threading.Thread(target=loop, name="repro-loop")
        thread.start()
"""

REP002_GOOD = """
    import threading

    def start():
        thread = threading.Thread(target=loop, name="repro-loop", daemon=True)
        thread.start()
"""


def test_rep002_flags_threads_missing_daemon():
    (finding,) = lint(REP002_BAD, "src/repro/serve/x.py")
    assert finding.rule == "REP002"
    assert "daemon=" in finding.message and "name=" not in finding.message


def test_rep002_flags_threads_missing_both_name_and_daemon():
    (finding,) = lint(
        "import threading\nthread = threading.Thread(target=print)\n",
        "src/repro/serve/x.py",
    )
    assert "name=" in finding.message and "daemon=" in finding.message


def test_rep002_accepts_named_daemon_explicit_threads():
    assert rules_hit(REP002_GOOD, "src/repro/serve/x.py") == []


def test_rep002_sees_through_from_imports():
    source = """
        from threading import Thread as Worker

        worker = Worker(target=print)
    """
    assert rules_hit(source, "src/repro/x.py") == ["REP002"]


def test_rep002_requires_thread_name_prefix_on_executors():
    bad = """
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=4)
    """
    good = """
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=4, thread_name_prefix="repro-pool")
    """
    assert rules_hit(bad, "src/repro/x.py") == ["REP002"]
    assert rules_hit(good, "src/repro/x.py") == []


def test_rep002_skips_opaque_kwargs_forwarding():
    source = """
        import threading

        def spawn(**kwargs):
            return threading.Thread(target=print, **kwargs)
    """
    assert rules_hit(source, "src/repro/x.py") == []


# --------------------------------------------------------------------------- #
# REP003 — durable renames carry an fsync
# --------------------------------------------------------------------------- #
REP003_BAD = """
    import os

    def publish(tmp, final):
        os.replace(tmp, final)
"""

REP003_GOOD = """
    import os

    def publish(tmp, final, root):
        os.replace(tmp, final)
        _fsync_dir(root)
"""


def test_rep003_flags_unfsynced_renames_in_persist():
    (finding,) = lint(REP003_BAD, "src/repro/persist/fake.py")
    assert finding.rule == "REP003"
    assert "os.replace" in finding.message


def test_rep003_accepts_renames_with_an_fsync_in_the_same_function():
    assert rules_hit(REP003_GOOD, "src/repro/persist/fake.py") == []
    direct = """
        import os

        def publish(tmp, final, fd):
            os.rename(tmp, final)
            os.fsync(fd)
    """
    assert rules_hit(direct, "src/repro/persist/fake.py") == []


def test_rep003_fsync_in_another_function_does_not_count():
    source = """
        import os

        def fsynced(root):
            _fsync_dir(root)

        def publish(tmp, final):
            os.rename(tmp, final)
    """
    assert rules_hit(source, "src/repro/persist/fake.py") == ["REP003"]


def test_rep003_is_scoped_to_persist():
    # endpoint/worker.py's announce file is explicitly best-effort.
    assert rules_hit(REP003_BAD, "src/repro/endpoint/worker.py") == []


# --------------------------------------------------------------------------- #
# REP004 — swallowed exceptions leave evidence
# --------------------------------------------------------------------------- #
REP004_BAD = """
    def poll(probe):
        try:
            probe()
        except Exception:
            pass
"""


def test_rep004_flags_silent_broad_swallows():
    assert rules_hit(REP004_BAD, "src/repro/resilience/fake.py") == ["REP004"]


@pytest.mark.parametrize(
    "body",
    [
        "raise",  # re-raises
        "self.last_probe_error = exc",  # records the error slot
        "self.probe_failures += 1",  # increments a counter
        "self.record_failure()",  # recording call
    ],
)
def test_rep004_accepts_handlers_that_leave_evidence(body):
    source = f"""
        def poll(self, probe):
            try:
                probe()
            except Exception as exc:
                {body}
    """
    assert rules_hit(source, "src/repro/resilience/fake.py") == []


def test_rep004_ignores_narrow_handlers():
    source = """
        def poll(probe):
            try:
                probe()
            except (KeyError, ValueError):
                pass
    """
    assert rules_hit(source, "src/repro/x.py") == []


def test_rep004_flags_broad_member_of_a_tuple():
    source = """
        def poll(probe):
            try:
                probe()
            except (ValueError, Exception):
                pass
    """
    assert rules_hit(source, "src/repro/x.py") == ["REP004"]


# --------------------------------------------------------------------------- #
# REP006 — DualStore mutations fire the listener hook
# --------------------------------------------------------------------------- #
def test_rep006_flags_mutators_that_skip_the_hook():
    source = """
        class DualStore:
            def insert(self, triples):
                self._ops.append(("insert", triples))
    """
    (finding,) = lint(source, "src/repro/core/dualstore.py")
    assert finding.rule == "REP006"
    assert "insert" in finding.message


@pytest.mark.parametrize(
    "body",
    [
        "self._record_op(triples)\n                self._bump_generation()",
        "with self.batch_mutations():\n                    self._apply(triples)",
        "return self.apply_moves(triples)",  # delegation to a hooked mutator
    ],
)
def test_rep006_accepts_hooked_or_delegating_mutators(body):
    source = f"""
        class DualStore:
            def insert(self, triples):
                {body}
    """
    assert rules_hit(source, "src/repro/core/dualstore.py") == []


def test_rep006_only_governs_dualstore_classes():
    source = """
        class SomethingElse:
            def insert(self, triples):
                self._ops.append(triples)
    """
    assert rules_hit(source, "src/repro/core/dualstore.py") == []


# --------------------------------------------------------------------------- #
# REP007 — columnar kernels batch their dictionary round-trips
# --------------------------------------------------------------------------- #
REP007_BAD = """
    def project(space, rows):
        bindings = []
        for row in rows:
            bindings.append(tuple(space.decode(term_id) for term_id in row))
        return bindings
"""

REP007_GOOD = """
    def project(space, rows, width):
        decoded = space.decode_many(sorted({term_id for row in rows for term_id in row}))
        terms = dict(decoded)
        return [tuple(terms[term_id] for term_id in row) for row in rows]
"""


def test_rep007_flags_per_row_decode_inside_loops():
    findings = lint(REP007_BAD, "src/repro/relstore/columnar.py")
    assert [finding.rule for finding in findings] == ["REP007"]
    assert "decode" in findings[0].message


def test_rep007_flags_lookup_in_while_loops_and_comprehension_conditions():
    source = """
        def probe(dictionary, terms):
            index = 0
            while index < len(terms):
                dictionary.lookup(terms[index])
                index += 1
            return [t for t in terms if dictionary.lookup(t) is not None]
    """
    findings = lint(source, "src/repro/relstore/columnar_ext.py")
    assert [finding.rule for finding in findings] == ["REP007", "REP007"]


def test_rep007_accepts_batch_decode_surfaces():
    assert rules_hit(REP007_GOOD, "src/repro/relstore/columnar.py") == []
    batched = """
        def probe(dictionary, terms):
            ids = dictionary.lookup_many(terms)
            return [i for i in ids if i is not None]
    """
    assert rules_hit(batched, "src/repro/relstore/columnar.py") == []


def test_rep007_ignores_decode_outside_loops():
    source = """
        def resolve_constant(space, term):
            return space.decode(space.encode(term))
    """
    assert rules_hit(source, "src/repro/relstore/columnar.py") == []


def test_rep007_is_scoped_to_columnar_modules():
    # Row engines legitimately decode per row; only columnar* is governed.
    assert rules_hit(REP007_BAD, "src/repro/relstore/executor.py") == []
    assert rules_hit(REP007_BAD, "src/repro/core/term_space.py") == []


# --------------------------------------------------------------------------- #
# REP008 — the serving path reads result columns, never per-row objects
# --------------------------------------------------------------------------- #
REP008_BAD = """
    def cached_copy(result, table):
        rows = list(result.bindings)
        return rows, result.rows(), table.to_bindings()
"""

REP008_GOOD = """
    def cached_copy(result, table):
        shared = result.view()
        return shared, len(result), result.columns.count, table.rows
"""


def test_rep008_flags_per_row_views_on_the_serving_path():
    findings = lint(REP008_BAD, "src/repro/serve/service.py")
    assert [finding.rule for finding in findings] == ["REP008"] * 3
    assert {".bindings", ".rows()", ".to_bindings()"} == {
        view for finding in findings for view in finding.message.split() if view.startswith(".")
    }
    assert rules_hit(REP008_BAD, "src/repro/endpoint/protocol.py") == ["REP008"]
    assert rules_hit(REP008_BAD, "src/repro/core/processor.py") == ["REP008"]


def test_rep008_accepts_columns_views_and_plain_row_attributes():
    assert rules_hit(REP008_GOOD, "src/repro/serve/service.py") == []
    # Building a result from dicts is a keyword argument, not a read.
    construct = """
        def empty(names):
            return ExecutionResult(bindings=[], variables=names)
    """
    assert rules_hit(construct, "src/repro/endpoint/server.py") == []


def test_rep008_is_scoped_to_the_serving_path():
    # Experiment code and the engines' oracles live on the per-row views.
    assert rules_hit(REP008_BAD, "src/repro/experiments/table1.py") == []
    assert rules_hit(REP008_BAD, "src/repro/core/variants.py") == []
    assert rules_hit(REP008_BAD, "src/repro/execution.py") == []


# --------------------------------------------------------------------------- #
# REP009 — the oracles stay with the tests
# --------------------------------------------------------------------------- #
REP009_BAD = """
    import sqlite3
    import tests.relational_oracle
    from graph_oracle import oracle_execute
    from relational_oracle import ReferenceStore
"""

REP009_GOOD = """
    from repro.relstore.columnar import execute_compiled
    from . import planner
    from .stats import TableStatistics

    def store_name(graph_oracle):
        return graph_oracle.name
"""


def test_rep009_flags_test_modules_everywhere_and_sqlite_in_relstore():
    findings = lint(REP009_BAD, "src/repro/relstore/store.py")
    assert [finding.rule for finding in findings] == ["REP009"] * 4
    assert "SQLite" in findings[0].message
    # Outside relstore/ the driver is not the rule's business; test modules are.
    assert rules_hit(REP009_BAD, "src/repro/persist/snapshot.py") == ["REP009"]
    assert len(lint(REP009_BAD, "src/repro/core/dualstore.py")) == 3


def test_rep009_accepts_package_and_relative_imports():
    assert rules_hit(REP009_GOOD, "src/repro/relstore/store.py") == []
    assert rules_hit("import sqlite3\n", "src/repro/persist/catalog.py") == []


# --------------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------------- #
def test_inline_suppression_on_the_flagged_line():
    source = """
        def poll(probe):
            try:
                probe()
            except Exception:  # repro: allow[REP004]
                pass
    """
    assert rules_hit(source, "src/repro/x.py") == []


def test_suppression_on_the_line_above():
    source = """
        import threading

        # repro: allow[REP002]
        worker = threading.Thread(target=print)
    """
    assert rules_hit(source, "src/repro/x.py") == []


def test_allow_all_suppresses_every_rule_on_that_line():
    source = """
        import threading

        worker = threading.Thread(target=print)  # repro: allow[ALL]
    """
    assert rules_hit(source, "src/repro/x.py") == []


def test_suppressing_one_rule_does_not_hide_another():
    source = """
        import threading

        worker = threading.Thread(target=print)  # repro: allow[REP001]
    """
    assert rules_hit(source, "src/repro/x.py") == ["REP002"]


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_exits_nonzero_and_prints_findings(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "persist" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import os\n\ndef publish(a, b):\n    os.replace(a, b)\n")
    assert lint_main([str(tmp_path / "src")]) == 1
    output = capsys.readouterr().out
    assert "REP003" in output and "bad.py:4:" in output and "1 finding(s)" in output


def test_cli_exits_zero_on_a_clean_tree_and_writes_the_report(tmp_path, capsys):
    good = tmp_path / "src" / "repro" / "ok.py"
    good.parent.mkdir(parents=True)
    good.write_text("VALUE = 1\n")
    report = tmp_path / "findings.txt"
    assert lint_main([str(tmp_path / "src"), "--output", str(report)]) == 0
    assert "clean" in capsys.readouterr().out
    assert "clean" in report.read_text()


def test_cli_select_narrows_the_rule_set(tmp_path):
    bad = tmp_path / "src" / "repro" / "persist" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import os\n\ndef publish(a, b):\n    os.replace(a, b)\n")
    assert lint_main([str(tmp_path / "src"), "--select", "REP001"]) == 0
    assert lint_main([str(tmp_path / "src"), "--select", "REP003"]) == 1


def test_cli_rejects_unknown_rules(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(tmp_path), "--select", "REP999"])
    assert excinfo.value.code == 2


def test_cli_list_rules_names_every_default_rule(capsys):
    assert lint_main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in DEFAULT_RULES:
        assert rule.name in output


# --------------------------------------------------------------------------- #
# The repository gate
# --------------------------------------------------------------------------- #
def test_source_tree_lints_clean():
    """The same hard gate CI enforces: zero unsuppressed findings in src/."""
    findings = lint_paths([str(SRC_ROOT)])
    assert findings == [], "\n".join(finding.format() for finding in findings)
