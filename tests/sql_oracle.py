"""The SQLite oracle: the storage-independent check on the relational store.

The production engine and its decode-per-row oracle
(``tests/relational_oracle.py``) both read the store's columnar table; only
an engine with storage of its own would notice that table storing or handing
back the wrong rows.  This module is that engine: :func:`compile_select`
turns a SELECT into a self-join over one ``triples(s, p, o)`` table — one
aliased occurrence per triple pattern, exactly the query shape the paper
blames for the poor complex-query performance of relation-based stores — and
:class:`SQLiteBackend` runs it on SQLite, with terms stored by their
N-Triples surface form under the usual three composite indexes.

``tests/test_differential_sql.py`` holds the store's answers to it across
every template family.  It has no work counters, so only answers compare.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import QueryExecutionError, StorageError
from repro.rdf.ntriples import _parse_term  # reuse the strict term grammar
from repro.rdf.terms import IRI, TermLike, Triple, Variable
from repro.sparql.ast import Filter, SelectQuery, compare_terms

__all__ = ["CompiledSQL", "compile_select", "SQLiteBackend"]

TRIPLE_TABLE_NAME = "triples"

#: Name of the SQL function implementing the subset's FILTER semantics
#: (registered by :class:`SQLiteBackend`).  Raw SQL comparison over the
#: stored surface forms would compare typed literals *lexicographically* —
#: ``"5"`` > ``"250"`` — and silently diverge from the Python engines' typed
#: comparison, so filters are evaluated by the same
#: :func:`repro.sparql.ast.compare_terms` the executors use.
FILTER_FUNCTION_NAME = "repro_filter"

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


# ---------------------------------------------------------------------- #
# SELECT → SQL
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompiledSQL:
    """SQL text plus its positional parameters and output column names."""

    sql: str
    parameters: Tuple[str, ...]
    columns: Tuple[str, ...]


def _term_sql_value(term) -> str:
    """The string stored in the SQLite triple table for a concrete term:
    IRIs bare, everything else in N3."""
    return term.value if isinstance(term, IRI) else term.n3()


def compile_select(query: SelectQuery) -> CompiledSQL:
    """Compile a SELECT query to a self-join over the ``triples`` table.

    Each triple pattern becomes one aliased occurrence ``t0, t1, ...`` of the
    triple table; shared variables become equality predicates between
    aliases; constants become parameterised equality predicates.
    """
    if any(not isinstance(p.predicate, (IRI, Variable)) for p in query.patterns):
        raise QueryExecutionError("predicates must be IRIs or variables")

    aliases = [f"t{i}" for i in range(len(query.patterns))]
    where: List[str] = []
    parameters: List[str] = []
    # variable name -> first column expression that binds it
    variable_columns: Dict[str, str] = {}

    for alias, pattern in zip(aliases, query.patterns):
        for column, term in (("s", pattern.subject), ("p", pattern.predicate), ("o", pattern.object)):
            expression = f"{alias}.{column}"
            if isinstance(term, Variable):
                if term.name in variable_columns:
                    where.append(f"{variable_columns[term.name]} = {expression}")
                else:
                    variable_columns[term.name] = expression
            else:
                where.append(f"{expression} = ?")
                parameters.append(_term_sql_value(term))

    for flt in query.filters:
        clause, clause_params = _compile_filter(flt, variable_columns)
        where.append(clause)
        parameters.extend(clause_params)

    columns = query.projected_names()
    select_items = []
    for name in columns:
        column = variable_columns.get(name)
        if column is None:
            raise QueryExecutionError(f"projected variable ?{name} is not bound by the WHERE clause")
        select_items.append(f"{column} AS {name}")

    distinct = "DISTINCT " if query.distinct else ""
    from_clause = ", ".join(f"{TRIPLE_TABLE_NAME} AS {alias}" for alias in aliases)
    sql = f"SELECT {distinct}{', '.join(select_items)} FROM {from_clause}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    if query.limit is not None:
        sql += f" LIMIT {query.limit}"
    return CompiledSQL(sql=sql, parameters=tuple(parameters), columns=tuple(columns))


def _compile_filter(flt: Filter, variable_columns: Dict[str, str]) -> Tuple[str, List[str]]:
    parts: List[str] = []
    parameters: List[str] = [flt.operator]
    for term in (flt.left, flt.right):
        if isinstance(term, Variable):
            column = variable_columns.get(term.name)
            if column is None:
                raise QueryExecutionError(f"FILTER uses unbound variable ?{term.name}")
            parts.append(column)
        else:
            parts.append("?")
            parameters.append(_term_sql_value(term))
    return f"{FILTER_FUNCTION_NAME}(?, {parts[0]}, {parts[1]}) = 1", parameters


# ---------------------------------------------------------------------- #
# The SQLite backend
# ---------------------------------------------------------------------- #
def _load_value(value: str) -> TermLike:
    """Inverse of :func:`_term_sql_value`."""
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

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def insert_triples(self, triples: Iterable[Triple]) -> int:
        """Insert triples; duplicates are ignored.  Returns rows inserted."""
        rows = [tuple(_term_sql_value(term) for term in triple) for triple in triples]
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
            tuple(_term_sql_value(term) for term in triple),
        )
        self._connection.commit()
        return cursor.rowcount

    def count(self) -> int:
        row = self._connection.execute(f"SELECT COUNT(*) FROM {TRIPLE_TABLE_NAME}").fetchone()
        return int(row[0])

    def execute_select(self, query: SelectQuery) -> Tuple[Tuple[str, ...], List[Tuple[TermLike, ...]]]:
        """Run a compiled SELECT and decode the result rows back to terms."""
        compiled = compile_select(query)
        cursor = self._connection.execute(compiled.sql, compiled.parameters)
        rows = [tuple(_load_value(value) for value in row) for row in cursor.fetchall()]
        return compiled.columns, rows
