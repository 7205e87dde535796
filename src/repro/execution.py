"""Execution result types shared by the relational and graph stores."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cost.counters import WorkCounters
from repro.rdf.terms import TermLike
from repro.resilience.deadline import PROBE_STRIDE, current_deadline
from repro.sparql.ast import Binding

__all__ = ["ExecutionResult", "ResultColumns", "ResultTable", "ScatterGatherInfo"]


@dataclass(frozen=True)
class ScatterGatherInfo:
    """Per-shard breakdown of one scatter-gather execution.

    Attached to :attr:`ExecutionResult.scatter` by the sharded relational
    store; ``None`` on single-store executions.

    Attributes
    ----------
    shard_seconds:
        Modelled busy seconds each shard spent probing for this query
        (index ``i`` = shard ``i``; zero for shards the plan never touched).
    parallel_seconds:
        Modelled wall-clock under the scatter-gather model: per plan step
        the slowest shard probe, plus the coordinator's serial merge work.
        For a result produced by the sharded relational store itself this
        equals :attr:`ExecutionResult.seconds`; on a split (``store="dual"``)
        result the info covers only the *relational leg*, while ``seconds``
        additionally includes the graph and migration legs.
    serial_seconds:
        What the same work would cost on one shard (the classic
        ``relational_query_seconds`` price of the total counters); the
        sum-of-work currency the differential suite compares.
    """

    shard_seconds: Tuple[float, ...]
    parallel_seconds: float
    serial_seconds: float

    @property
    def speedup(self) -> float:
        """Modelled serial/parallel ratio (≥ 1.0 when sharding helps)."""
        if self.parallel_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.parallel_seconds


@dataclass(frozen=True, eq=False)
class ResultColumns:
    """The projected solutions of one execution as an immutable columnar value.

    ``names`` are the *bound* projected variables in projection order (a
    projected variable no pattern binds appears in
    :attr:`ExecutionResult.variables` only), ``columns`` holds one column per
    name and ``count`` the number of rows, which zero-width results need.
    With a ``space`` (the execution's
    :class:`~repro.relstore.executor.QueryTermSpace`) the entries are term
    ids and ``tolist`` converts a column slice to a ``list`` (numpy's
    ``tolist`` for engine columns); without one the columns hold the terms
    themselves (the graph route).  Nothing is written after construction, so
    the engine, the result cache, every served view and the encoder share one
    instance.
    """

    names: Tuple[str, ...]
    columns: Sequence
    count: int
    space: Optional[object] = None
    tolist: Callable = list

    @classmethod
    def from_bindings(cls, bindings: List[Binding], variables: Tuple[str, ...]) -> "ResultColumns":
        """Term columns of solution dicts that all bind the same variables."""
        names = tuple(name for name in variables if bindings and name in bindings[0])
        return cls(names, [[binding[name] for binding in bindings] for name in names], len(bindings))

    def entries(self, index: int, start: int = 0, stop: Optional[int] = None) -> list:
        """A slice of one column as python ints (or terms, without a space)."""
        return self.tolist(self.columns[index][start:stop])

    def terms(self, index: int, start: int = 0, stop: Optional[int] = None) -> List[TermLike]:
        """A slice of one column as terms: one batch decode of its distinct ids."""
        entries = self.entries(index, start, stop)
        if self.space is None:
            return entries
        return list(map(self.space.decode_map(entries).__getitem__, entries))

    def rows(self) -> List[Tuple[TermLike, ...]]:
        """The solutions as term tuples ordered by :attr:`names`."""
        if not self.names:
            return [()] * self.count
        return list(zip(*map(self.terms, range(len(self.names)))))

    def to_bindings(self) -> List[Binding]:
        """A fresh list of solution dicts, built in one pass — or, with an
        ambient deadline, :data:`PROBE_STRIDE` rows at a time with a probe in
        between (all per-value work happens inside the loop)."""
        names, count = self.names, self.count
        deadline = current_deadline()
        stride = PROBE_STRIDE if deadline is not None else max(count, 1)
        bindings: List[Binding] = []
        for start in range(0, count, stride):
            if deadline is not None:
                deadline.check()
            stop = min(start + stride, count)
            chunk = [self.terms(index, start, stop) for index in range(len(names))]
            if names:
                bindings += [dict(zip(names, row)) for row in zip(*chunk)]
            else:
                bindings += [{} for _ in range(start, stop)]
        return bindings


@dataclass
class ExecutionResult:
    """The outcome of executing one query (or subquery) in one store.

    The engines build a result from ``columns`` (with ``bindings=None``): the
    :class:`ResultColumns` are then the result — what :func:`len`, the result
    cache and the endpoint's encoder read — and ``bindings`` / :meth:`rows` /
    :meth:`column` are views for experiment code, derived on request.  The
    oracle engines build it from a ``bindings`` list, which is then the
    result, and ``columns`` is derived from the list on request.

    Attributes
    ----------
    bindings:
        The solution mappings (variable name → term), already projected.  On
        a columnar result the list is materialized at first access, once per
        result object, and belongs to the caller: editing it reaches neither
        the columns nor any other :meth:`view` of them.
    variables:
        The projected variable names, in order.
    counters:
        Work performed while producing the result.
    seconds:
        Latency attributed to the execution by the cost model (and any
        resource throttle).  ``0.0`` until a cost model prices the counters.
    store:
        ``"relational"``, ``"graph"``, or ``"dual"`` for split plans.
    truncated:
        True when a work budget stopped the execution early (counterfactual
        runs capped at ``lambda * c1``).
    """

    bindings: Optional[List[Binding]]
    variables: Tuple[str, ...]
    counters: WorkCounters = field(default_factory=WorkCounters)
    seconds: float = 0.0
    store: str = "relational"
    truncated: bool = False
    #: Per-shard accounting when the execution was scatter-gathered.
    scatter: Optional[ScatterGatherInfo] = None
    columns: Optional[ResultColumns] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self._bindings) if self._columns is None else self._columns.count

    def view(self, counters: Optional[WorkCounters] = None) -> "ExecutionResult":
        """A new result over the same columns — O(1) on a columnar result —
        with its own counters (a copy of this one's unless given), so that an
        in-place edit of one view's ``bindings`` or accounting cannot reach
        another's."""
        return ExecutionResult(
            None,
            self.variables,
            self.counters.copy() if counters is None else counters,
            self.seconds,
            self.store,
            self.truncated,
            self.scatter,  # frozen, safe to share across views
            self.columns,
        )

    def rows(self) -> List[Tuple[TermLike, ...]]:
        """The solutions as tuples ordered by :attr:`variables`."""
        columns = self.columns
        if columns.count:
            for name in self.variables:
                if name not in columns.names:
                    raise KeyError(name)
        return columns.rows()

    def distinct_rows(self) -> set[Tuple[TermLike, ...]]:
        return set(self.rows())

    def column(self, variable: str) -> List[TermLike]:
        """All values bound to ``variable`` across the solutions."""
        columns = self.columns
        if variable not in columns.names:
            return []
        return columns.terms(columns.names.index(variable))


# ``bindings`` and ``columns`` stay dataclass fields (constructor arguments;
# ``bindings`` also equality and repr) but live under private names behind
# properties, so that each form is derived only when it is asked for.
def _bindings(self: ExecutionResult) -> List[Binding]:
    if self._bindings is None:
        self._bindings = self._columns.to_bindings()
    return self._bindings


def _columns(self: ExecutionResult) -> ResultColumns:
    if self._columns is None:
        return ResultColumns.from_bindings(self._bindings, self.variables)
    return self._columns


def _store_as(name: str):
    return lambda self, given: setattr(self, name, given)


ExecutionResult.bindings = property(_bindings, _store_as("_bindings"))  # type: ignore[assignment]
ExecutionResult.columns = property(_columns, _store_as("_columns"))  # type: ignore[assignment]


@dataclass(frozen=True)
class ResultTable:
    """A named intermediate-result table migrated into the relational store.

    Case 2 plans (Section 5) execute the complex subquery in the graph store
    and ship its solutions into a *temporary relational table space*; this is
    that table.  It is a :class:`ResultColumns` value with one column per
    variable: an engine result's id columns as they are (the graph leg of a
    split plan, a materialized view), or term columns built from rows.
    """

    name: str
    variables: Tuple[str, ...]
    columns: ResultColumns

    def __len__(self) -> int:
        return self.columns.count

    @property
    def rows(self) -> List[Tuple[TermLike, ...]]:
        return self.columns.rows()

    def to_bindings(self) -> List[Binding]:
        return self.columns.to_bindings()

    @classmethod
    def from_rows(
        cls, name: str, variables: Sequence[str], rows: Sequence[Tuple[TermLike, ...]]
    ) -> "ResultTable":
        variables = tuple(variables)
        columns = [list(column) for column in zip(*rows)] or [[] for _ in variables]
        return cls(name, variables, ResultColumns(variables, columns, len(rows)))

    @classmethod
    def from_result(cls, name: str, result: ExecutionResult) -> "ResultTable":
        columns = result.columns
        if columns.names != result.variables:  # a projected variable is unbound
            if columns.count:
                raise KeyError(next(n for n in result.variables if n not in columns.names))
            columns = ResultColumns(result.variables, [[] for _ in result.variables], 0)
        return cls(name, result.variables, columns)
