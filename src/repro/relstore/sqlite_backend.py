"""Optional SQLite persistence and SQL execution for the relational store.

The in-memory executor is the store's primary path because it provides
deterministic work accounting, but a real relational engine is useful for

* persisting a loaded knowledge graph between processes,
* cross-checking that the Python executor and a real SQL engine agree on
  query answers (integration tests do exactly this), and
* running the wall-clock benchmark variants.

The backend stores terms by their N-Triples surface form in a single
``triples(s, p, o)`` table with the usual three composite indexes.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Iterable, List, Tuple, Union

from repro.errors import StorageError
from repro.rdf.ntriples import _parse_term  # reuse the strict term grammar
from repro.rdf.terms import IRI, Literal, TermLike, Triple
from repro.sparql.ast import SelectQuery, compare_terms
from repro.relstore.sql_compiler import FILTER_FUNCTION_NAME, TRIPLE_TABLE_NAME, compile_select

__all__ = ["SQLiteBackend"]

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS {TRIPLE_TABLE_NAME} (
    s TEXT NOT NULL,
    p TEXT NOT NULL,
    o TEXT NOT NULL,
    PRIMARY KEY (s, p, o)
);
CREATE INDEX IF NOT EXISTS idx_triples_p ON {TRIPLE_TABLE_NAME} (p);
CREATE INDEX IF NOT EXISTS idx_triples_po ON {TRIPLE_TABLE_NAME} (p, o);
CREATE INDEX IF NOT EXISTS idx_triples_ps ON {TRIPLE_TABLE_NAME} (p, s);
"""


def _store_value(term: TermLike) -> str:
    """Surface form used in the SQLite table (IRIs bare, literals in N3)."""
    if isinstance(term, IRI):
        return term.value
    return term.n3()


def _load_value(value: str) -> TermLike:
    """Inverse of :func:`_store_value`."""
    if value.startswith('"') or value.startswith("_:"):
        term, _ = _parse_term(value, line_no=0)
        return term
    return IRI(value)


def _sql_filter(operator: str, left: str, right: str) -> int:
    """The FILTER comparison as a SQL function over stored surface forms.

    Decodes both operands back to terms and delegates to the same
    :func:`repro.sparql.ast.compare_terms` the Python engines use, so typed
    literals compare by value in SQL exactly as they do everywhere else.
    """
    return int(compare_terms(operator, _load_value(left), _load_value(right)))


class SQLiteBackend:
    """A thin SQLite wrapper exposing bulk load, insert, and SELECT execution."""

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self._path = str(path)
        try:
            self._connection = sqlite3.connect(self._path)
        except sqlite3.Error as exc:  # pragma: no cover - environment dependent
            raise StorageError(f"could not open SQLite database at {self._path!r}: {exc}") from exc
        self._connection.executescript(_SCHEMA)
        self._connection.create_function(FILTER_FUNCTION_NAME, 3, _sql_filter, deterministic=True)
        self._connection.commit()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def insert_triples(self, triples: Iterable[Triple]) -> int:
        """Insert triples; duplicates are ignored.  Returns rows inserted."""
        rows = [(_store_value(t.subject), _store_value(t.predicate), _store_value(t.object)) for t in triples]
        if not rows:
            return 0
        cursor = self._connection.executemany(
            f"INSERT OR IGNORE INTO {TRIPLE_TABLE_NAME} (s, p, o) VALUES (?, ?, ?)", rows
        )
        self._connection.commit()
        return cursor.rowcount if cursor.rowcount >= 0 else len(rows)

    def delete_triple(self, triple: Triple) -> int:
        cursor = self._connection.execute(
            f"DELETE FROM {TRIPLE_TABLE_NAME} WHERE s = ? AND p = ? AND o = ?",
            (_store_value(triple.subject), _store_value(triple.predicate), _store_value(triple.object)),
        )
        self._connection.commit()
        return cursor.rowcount

    def count(self) -> int:
        row = self._connection.execute(f"SELECT COUNT(*) FROM {TRIPLE_TABLE_NAME}").fetchone()
        return int(row[0])

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def execute_select(self, query: SelectQuery) -> Tuple[Tuple[str, ...], List[Tuple[TermLike, ...]]]:
        """Run a compiled SELECT and decode the result rows back to terms."""
        compiled = compile_select(query)
        cursor = self._connection.execute(compiled.sql, compiled.parameters)
        rows = [tuple(_load_value(value) for value in row) for row in cursor.fetchall()]
        return compiled.columns, rows

