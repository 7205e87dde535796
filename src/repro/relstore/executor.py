"""Physical execution of relational plans with work accounting.

The executor evaluates a :class:`~repro.relstore.planner.RelationalPlan` with
a pipeline of hash joins over the triple table.  Since PR 3 the pipeline is
an **ID-space engine** (late materialization, the standard column-store
discipline):

* pattern access matches stored rows by comparing *integer term ids* — the
  constants of every plan step are looked up in the dictionary once, when the
  plan is compiled, never per row;
* the pipeline state is a flat schema (a tuple of variable names) plus a list
  of **integer tuples**; hash joins, DISTINCT, and ORDER-BY-free LIMIT all
  operate on those int tuples (int hashing is several times cheaper than
  hashing frozen term dataclasses);
* filters get an ID-space fast path — equal ids prove term equality, so
  ``=``/``<=``/``>=`` succeed and ``!=``/``<``/``>`` fail without decoding —
  and fall back to decoded value comparison only when the ids differ (two
  distinct terms, e.g. ``"5"^^xsd:integer`` vs ``"5.0"^^xsd:double``, may
  still compare equal by value);
* projection performs **one batch decode**
  (:meth:`~repro.rdf.dictionary.TermDictionary.decode_many`) of only the rows
  that survived joins, filters, DISTINCT, and LIMIT.

Work accounting is unchanged *by construction*: ``rows_scanned`` is charged
per row yielded by an access path, ``rows_joined`` per tuple a join produces,
``index_lookups`` at the same two points as before, and ``results_produced``
after LIMIT — so the logical :class:`~repro.cost.counters.WorkCounters` (and
therefore every modelled TTI/work number) are bit-identical to the retained
decode-per-row reference executor (:mod:`repro.relstore.reference`), which
the differential suite in ``tests/test_differential_engine.py`` asserts.

A *work budget* may be supplied; when the accumulated work exceeds it the
executor aborts with :class:`~repro.errors.WorkBudgetExceeded`, which is how
the tuner's counterfactual scenario caps the relational run at ``λ·c₁``.

The join, filter, projection, and budget helpers live at module level so that
the sharded scatter-gather executor (:mod:`repro.relstore.sharded`) evaluates
queries with the *same* code and therefore charges identical logical work —
the property the differential sharding suite asserts.  The historical
term-space helpers (``bind_pattern_row``, ``join_pattern_rows``, ...) keep
their signatures; they now serve the reference executor and any external
callers, while the ``*_id_*`` family is the hot path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cost.counters import WorkCounters
from repro.errors import QueryExecutionError, WorkBudgetExceeded
from repro.resilience.deadline import current_deadline, probed_rows
from repro.execution import ExecutionResult, ResultTable
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER, Literal, TermLike, Variable
from repro.sparql.ast import Binding, Filter, SelectQuery, TriplePattern
from repro.sparql.algebra import merge_bindings

from repro.relstore.planner import RelationalPlan
from repro.relstore.table import Row, TripleTable

__all__ = [
    "RelationalExecutor",
    "relational_work_units",
    # ID-space engine
    "IdRow",
    "QueryTermSpace",
    "CompiledPattern",
    "CompiledStep",
    "CompiledPlan",
    "compile_pattern",
    "compile_plan",
    "BoundPlanCache",
    "match_id_rows",
    "join_id_pattern_rows",
    "join_id_result_table",
    "join_id_extra_tables",
    "finish_id_pipeline",
    # Term-space helpers (retained for the reference executor)
    "bind_pattern_row",
    "join_pattern_rows",
    "join_result_table",
    "join_extra_tables",
    "finish_pipeline",
    "apply_filters",
    "project_bindings",
    "distinct_bindings",
    "check_work_budget",
]

#: One pipeline row: the bound term ids, positionally aligned with the
#: pipeline's variable schema.
IdRow = Tuple[int, ...]


def relational_work_units(counters: WorkCounters) -> float:
    """The scalar work measure compared against a work budget.

    Scans, joins, and index lookups all count; the weights loosely mirror the
    cost model so "budget = λ · c₁ converted to work units" behaves like the
    paper's timed thread cap.
    """
    return (
        counters.rows_scanned
        + 0.3 * counters.rows_joined
        + 0.2 * counters.index_lookups
        + 1.25 * counters.view_rows_scanned
    )


# ---------------------------------------------------------------------- #
# ID space: an execution-scoped view of the term dictionary
# ---------------------------------------------------------------------- #
class QueryTermSpace:
    """The shared dictionary plus per-execution *local* ids (negative).

    Stored rows only ever carry dictionary ids (``>= 0``).  Migrated
    intermediate-result tables, however, may contain terms the relational
    dictionary has never seen; those get negative ids scoped to this one
    execution, so the whole pipeline — including extra-table joins — runs on
    integers.  Id equality is term equality in both ranges (each range is a
    bijection and they never overlap), which is the invariant every ID-space
    operator relies on.
    """

    __slots__ = ("dictionary", "_local_ids", "_local_terms")

    def __init__(self, dictionary: TermDictionary):
        self.dictionary = dictionary
        self._local_ids: Dict[TermLike, int] = {}
        self._local_terms: List[TermLike] = []

    @property
    def has_local_ids(self) -> bool:
        """Whether any negative id was handed out (then ids may not be used
        to index the dictionary's own tables)."""
        return bool(self._local_terms)

    def encode(self, term: TermLike) -> int:
        """The id for ``term``: its dictionary id, or a local negative id."""
        term_id = self.dictionary.lookup(term)
        if term_id is not None:
            return term_id
        local = self._local_ids.get(term)
        if local is None:
            self._local_terms.append(term)
            local = -len(self._local_terms)
            self._local_ids[term] = local
        return local

    def decode(self, term_id: int) -> TermLike:
        if term_id >= 0:
            return self.dictionary.decode(term_id)
        return self._local_terms[-term_id - 1]

    def decode_map(self, term_ids: Iterable[int]) -> Dict[int, TermLike]:
        """Batch-decode distinct ids into an id → term map (one pass each)."""
        distinct = set(term_ids)
        stored = [i for i in distinct if i >= 0]
        mapping: Dict[int, TermLike] = dict(zip(stored, self.dictionary.decode_many(stored)))
        for i in distinct:
            if i < 0:
                mapping[i] = self._local_terms[-i - 1]
        return mapping


# ---------------------------------------------------------------------- #
# Pattern compilation (constants resolved once, not per row)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompiledPattern:
    """A triple pattern lowered to integer row matching.

    ``var_names``/``var_positions`` name the pattern's distinct variables and
    the row position of each one's first occurrence (S, P, O order);
    ``const_checks`` are ``(position, required_id)`` pairs for the resolved
    constants; ``dup_checks`` are ``(position, first_position)`` pairs for
    repeated variables; ``matchable`` is ``False`` when some constant is not
    in the dictionary at all — no *stored* row can ever match then (stored
    rows only contain dictionary ids), though scans still charge their rows.
    """

    var_names: Tuple[str, ...]
    var_positions: Tuple[int, ...]
    const_checks: Tuple[Tuple[int, int], ...]
    dup_checks: Tuple[Tuple[int, int], ...]
    matchable: bool


def compile_pattern(pattern: TriplePattern, dictionary: TermDictionary) -> CompiledPattern:
    """Resolve a pattern's constants to ids and lay out its variable slots."""
    first_seen: Dict[str, int] = {}
    var_names: List[str] = []
    var_positions: List[int] = []
    const_checks: List[Tuple[int, int]] = []
    dup_checks: List[Tuple[int, int]] = []
    matchable = True
    for position, term in enumerate((pattern.subject, pattern.predicate, pattern.object)):
        if isinstance(term, Variable):
            first = first_seen.get(term.name)
            if first is None:
                first_seen[term.name] = position
                var_names.append(term.name)
                var_positions.append(position)
            else:
                dup_checks.append((position, first))
        else:
            term_id = dictionary.lookup(term)
            if term_id is None:
                matchable = False
            else:
                const_checks.append((position, term_id))
    return CompiledPattern(
        var_names=tuple(var_names),
        var_positions=tuple(var_positions),
        const_checks=tuple(const_checks),
        dup_checks=tuple(dup_checks),
        matchable=matchable,
    )


@dataclass(frozen=True)
class CompiledStep:
    """One plan step with its access-path constants pre-resolved."""

    access_path: str
    pattern: TriplePattern
    matcher: CompiledPattern
    predicate_id: Optional[int]
    subject_id: Optional[int]
    object_id: Optional[int]


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`RelationalPlan` bound to one dictionary state."""

    steps: Tuple[CompiledStep, ...]

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def compile_plan(plan: RelationalPlan, dictionary: TermDictionary) -> CompiledPlan:
    """Resolve every step's constants once (per plan, not per execution)."""
    steps: List[CompiledStep] = []
    lookup = dictionary.lookup
    for step in plan:
        pattern = step.pattern
        predicate_id = lookup(pattern.predicate) if pattern.has_concrete_predicate else None
        subject_id = (
            lookup(pattern.subject) if not isinstance(pattern.subject, Variable) else None
        )
        object_id = lookup(pattern.object) if not isinstance(pattern.object, Variable) else None
        steps.append(
            CompiledStep(
                access_path=step.access_path,
                pattern=pattern,
                matcher=compile_pattern(pattern, dictionary),
                predicate_id=predicate_id,
                subject_id=subject_id,
                object_id=object_id,
            )
        )
    return CompiledPlan(steps=tuple(steps))


class BoundPlanCache:
    """Thread-safe LRU memo of ``query → (plan, compiled plan)``.

    Entries are tagged with the owning store's *plan generation*, bumped on
    every mutation (new terms may appear, statistics may shift, so both the
    ordering and the resolved constant ids can change).  A hit therefore
    skips planning *and* re-resolving pattern constants — the plan is bound
    to a store generation exactly once, no matter how many times the serving
    layer replays the (already plan-cached) query.
    """

    def __init__(self, capacity: int = 512):
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, Tuple[int, RelationalPlan, CompiledPlan]]" = OrderedDict()

    def get(self, key: object, generation: int) -> Optional[Tuple[RelationalPlan, CompiledPlan]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != generation:
                return None
            self._entries.move_to_end(key)
            return entry[1], entry[2]

    def put(self, key: object, generation: int, plan: RelationalPlan, compiled: CompiledPlan) -> None:
        with self._lock:
            self._entries[key] = (generation, plan, compiled)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def get_or_bind(
        self,
        key: object,
        generation: int,
        planner,
        dictionary: TermDictionary,
    ) -> Tuple[RelationalPlan, CompiledPlan]:
        """The whole binding protocol: memo hit, or plan + compile + store.

        ``planner`` is the owning store's zero-argument plan builder; it (and
        the compile) runs outside the lock — concurrent readers may bind the
        same query twice, which is benign (last write wins, both are valid
        for this generation).  Shared by both stores so the protocol cannot
        drift between them.
        """
        cached = self.get(key, generation)
        if cached is not None:
            return cached
        plan = planner()
        compiled = compile_plan(plan, dictionary)
        self.put(key, generation, plan, compiled)
        return plan, compiled

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------- #
# ID-space evaluation primitives (shared with the sharded executor)
# ---------------------------------------------------------------------- #
def match_id_rows(
    matcher: CompiledPattern, rows: Iterable[Row], counters: WorkCounters
) -> List[IdRow]:
    """Match stored rows against a compiled pattern, entirely on ids.

    Charges one ``rows_scanned`` per row inspected (matching or not), exactly
    like the decode-per-row reference path; the output rows carry only the
    pattern's variable columns, in ``matcher.var_names`` order.

    Cancellation: with an ambient deadline active the scan probes it every
    :data:`~repro.resilience.deadline.PROBE_STRIDE` rows (the probe never
    touches the counters, so surviving runs stay bit-identical).
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
        rows = probed_rows(rows, deadline, counters)
    out: List[IdRow] = []
    append = out.append
    scanned = 0
    if not matcher.matchable:
        # An unresolved constant matches no stored row, but a scan-based
        # access path still reads (and charges) every row it visits.
        for _ in rows:
            scanned += 1
        counters.rows_scanned += scanned
        return out

    const_checks = matcher.const_checks
    dup_checks = matcher.dup_checks
    positions = matcher.var_positions
    arity = len(positions)
    if not dup_checks:
        if len(const_checks) == 1 and arity == 2:
            # The workhorse shape: partition scan of `?s <p> ?o`.
            (c0, k0) = const_checks[0]
            p0, p1 = positions
            for row in rows:
                scanned += 1
                if row[c0] == k0:
                    append((row[p0], row[p1]))
            counters.rows_scanned += scanned
            return out
        if len(const_checks) == 2 and arity == 1:
            # Index point lookup: `?s <p> <o>` / `<s> <p> ?o`.
            (c0, k0), (c1, k1) = const_checks
            p0 = positions[0]
            for row in rows:
                scanned += 1
                if row[c0] == k0 and row[c1] == k1:
                    append((row[p0],))
            counters.rows_scanned += scanned
            return out
        if not const_checks and arity == 3:
            # Full table scan with three fresh variables: positions are
            # (0, 1, 2), so the stored row *is* the output row.
            for row in rows:
                scanned += 1
                append(row)
            counters.rows_scanned += scanned
            return out

    for row in rows:
        scanned += 1
        matched = True
        for position, required in const_checks:
            if row[position] != required:
                matched = False
                break
        if matched:
            for position, first in dup_checks:
                if row[position] != row[first]:
                    matched = False
                    break
            if matched:
                append(tuple(row[p] for p in positions))
    counters.rows_scanned += scanned
    return out


def join_id_pattern_rows(
    schema: Tuple[str, ...],
    rows: List[IdRow],
    matcher: CompiledPattern,
    pattern_rows: List[IdRow],
    counters: WorkCounters,
) -> Tuple[Tuple[str, ...], List[IdRow]]:
    """Hash-join matched pattern rows into the pipeline, on integer keys.

    Returns the extended ``(schema, rows)``.  Charges ``rows_joined`` per
    produced tuple, at the same point as the reference join.

    Cancellation: with an ambient deadline active the probe loops check it
    periodically — and the cartesian branch (the output-explosion path, where
    a single step can produce |rows| x |pattern_rows| tuples) checks once per
    outer row, so even a fan-out of millions stays responsive.
    """
    deadline = current_deadline()
    var_names = matcher.var_names
    new_names = tuple(n for n in var_names if n not in schema)
    if not rows or not pattern_rows:
        return schema + new_names, []

    if not schema and len(rows) == 1:
        # The pipeline seed [()]: the pattern rows become the pipeline.
        counters.rows_joined += len(pattern_rows)
        return tuple(var_names), pattern_rows

    if deadline is not None:
        deadline.check(counters)
    out: List[IdRow] = []
    append = out.append
    shared = [n for n in var_names if n in schema]
    if shared:
        pattern_index = {name: i for i, name in enumerate(var_names)}
        new_positions = tuple(pattern_index[n] for n in new_names)
        key_positions = tuple(pattern_index[n] for n in shared)
        probe_positions = tuple(schema.index(n) for n in shared)
        index: Dict[object, List[IdRow]] = {}
        if len(shared) == 1:
            # Scalar int keys: the dominant case, cheapest possible hashing.
            # The new-column tuples are unrolled by arity (a pattern adds at
            # most two fresh variables), which keeps the per-row cost to
            # plain indexing instead of a generator-driven tuple build.
            kp = key_positions[0]
            pp = probe_positions[0]
            if len(new_positions) == 1:
                n0 = new_positions[0]
                for prow in pattern_rows:
                    key = prow[kp]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = bucket = []
                    bucket.append((prow[n0],))
            elif len(new_positions) == 2:
                n0, n1 = new_positions
                for prow in pattern_rows:
                    key = prow[kp]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = bucket = []
                    bucket.append((prow[n0], prow[n1]))
            else:
                for prow in pattern_rows:
                    key = prow[kp]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = bucket = []
                    bucket.append(tuple(prow[i] for i in new_positions))
            get = index.get
            probe_rows = rows if deadline is None else probed_rows(rows, deadline, counters)
            for row in probe_rows:
                bucket = get(row[pp])
                if bucket is not None:
                    for extra in bucket:
                        append(row + extra)
        else:
            for prow in pattern_rows:
                key = tuple(prow[i] for i in key_positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = bucket = []
                bucket.append(tuple(prow[i] for i in new_positions))
            get = index.get
            probe_rows = rows if deadline is None else probed_rows(rows, deadline, counters)
            for row in probe_rows:
                bucket = get(tuple(row[i] for i in probe_positions))
                if bucket is not None:
                    for extra in bucket:
                        append(row + extra)
    elif deadline is None:
        for row in rows:
            for prow in pattern_rows:
                append(row + prow)
    else:
        for row in rows:
            deadline.check(counters)
            for prow in pattern_rows:
                append(row + prow)
    counters.rows_joined += len(out)
    return schema + new_names, out


def join_id_result_table(
    schema: Tuple[str, ...],
    rows: List[IdRow],
    table: ResultTable,
    space: QueryTermSpace,
    counters: WorkCounters,
    as_view: bool = False,
) -> Tuple[Tuple[str, ...], List[IdRow]]:
    """Join a migrated intermediate-result table into the ID pipeline.

    The table's terms are encoded once (unknown terms get execution-local
    ids) and the join runs on a hash index over the shared variables — the
    nested-loop cartesian merge the term-space path historically used only
    remains for genuinely disjoint tables.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    table_vars = table.variables
    new_names = tuple(n for n in table_vars if n not in schema)
    if not rows:
        return schema + new_names, []
    if as_view:
        counters.view_rows_scanned += len(table)
    else:
        counters.rows_scanned += len(table)

    id_rows: List[IdRow] = table.encoded_rows(space.encode)

    out: List[IdRow] = []
    append = out.append
    shared = [n for n in table_vars if n in schema]
    if shared:
        table_index = {name: i for i, name in enumerate(table_vars)}
        new_positions = tuple(table_index[n] for n in new_names)
        key_positions = tuple(table_index[n] for n in shared)
        probe_positions = tuple(schema.index(n) for n in shared)
        index: Dict[Tuple[int, ...], List[IdRow]] = {}
        for trow in id_rows:
            key = tuple(trow[i] for i in key_positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = bucket = []
            bucket.append(tuple(trow[i] for i in new_positions))
        get = index.get
        probe_rows = rows if deadline is None else probed_rows(rows, deadline, counters)
        for row in probe_rows:
            bucket = get(tuple(row[i] for i in probe_positions))
            if bucket is not None:
                for extra in bucket:
                    append(row + extra)
    elif deadline is None:
        for row in rows:
            for trow in id_rows:
                append(row + trow)
    else:
        for row in rows:
            deadline.check(counters)
            for trow in id_rows:
                append(row + trow)
    counters.rows_joined += len(out)
    return schema + new_names, out


def join_id_extra_tables(
    schema: Tuple[str, ...],
    rows: List[IdRow],
    extra_tables: Optional[Iterable[ResultTable]],
    space: QueryTermSpace,
    counters: WorkCounters,
    tables_are_views: bool,
    work_budget: Optional[float],
) -> Tuple[Tuple[str, ...], List[IdRow]]:
    """The pipeline prologue: join migrated tables, budget-checked per table."""
    for table in extra_tables or ():
        schema, rows = join_id_result_table(
            schema, rows, table, space, counters, as_view=tables_are_views
        )
        check_work_budget(counters, work_budget)
    return schema, rows


# -- ID-space filters --------------------------------------------------- #
#: Filter operand lowered to ID space: ('var', schema position, name),
#: ('const', id, term), or ('unbound', 0, None).
_FilterSide = Tuple[str, int, Optional[TermLike]]

#: Operators that hold between a term and itself.
_TRUE_ON_EQUAL = frozenset({"=", "<=", ">="})

#: Literal datatypes whose ``to_python`` conversion can misbehave — a double
#: may be NaN (fails even reflexive comparison) and a malformed integer
#: lexical raises ``ValueError`` — so equal ids settle nothing for them and
#: the filter must delegate to :meth:`Filter.evaluate` like the reference.
_UNSAFE_EQUAL_DATATYPES = frozenset({XSD_DOUBLE, XSD_INTEGER})


def _compile_filter_side(
    term: TermLike, schema: Tuple[str, ...], space: QueryTermSpace
) -> _FilterSide:
    if isinstance(term, Variable):
        if term.name in schema:
            return ("var", schema.index(term.name), None)
        return ("unbound", 0, None)
    return ("const", space.encode(term), term)


def _apply_id_filters(
    schema: Tuple[str, ...],
    rows: List[IdRow],
    filters: Tuple[Filter, ...],
    space: QueryTermSpace,
) -> List[IdRow]:
    """Filter rows with an id fast path and a decode fallback.

    Equal ids mean equal terms, which settles every operator without
    evaluating a comparison — except for ``xsd:double`` literals, where the
    value may be NaN and even ``?x = ?x`` is false; those take the fallback.
    *Different* ids settle nothing for value comparisons (distinct terms may
    be equal by value, e.g. across numeric datatypes), so those rows fall
    back to decoding just the filter's operands and delegating to
    :meth:`Filter.evaluate` — semantics stay byte-for-byte those of the
    reference executor.
    """
    compiled = []
    for flt in filters:
        left = _compile_filter_side(flt.left, schema, space)
        right = _compile_filter_side(flt.right, schema, space)
        if left[0] == "unbound" or right[0] == "unbound":
            # An unbound operand fails the filter for every row.
            return []
        compiled.append((flt, left, right))

    decode = space.decode
    deadline = current_deadline()
    row_iter: Iterable[IdRow] = rows
    if deadline is not None:
        row_iter = probed_rows(rows, deadline)
    out: List[IdRow] = []
    append = out.append
    for row in row_iter:
        keep = True
        for flt, (left_kind, left_value, _), (right_kind, right_value, _) in compiled:
            left_id = row[left_value] if left_kind == "var" else left_value
            right_id = row[right_value] if right_kind == "var" else right_value
            if left_id == right_id:
                term = decode(left_id)
                if not (isinstance(term, Literal) and term.datatype in _UNSAFE_EQUAL_DATATYPES):
                    if flt.operator in _TRUE_ON_EQUAL:
                        continue
                    keep = False
                    break
                # Numeric literals fall through to Filter.evaluate: a double
                # may be NaN (no comparison holds, even reflexively) and a
                # malformed integer lexical must raise like the reference.
            fallback: Binding = {}
            if left_kind == "var":
                fallback[flt.left.name] = decode(left_id)  # type: ignore[union-attr]
            if right_kind == "var":
                fallback[flt.right.name] = decode(right_id)  # type: ignore[union-attr]
            if not flt.evaluate(fallback):
                keep = False
                break
        if keep:
            append(row)
    return out


def finish_id_pipeline(
    schema: Tuple[str, ...],
    rows: List[IdRow],
    query: SelectQuery,
    counters: WorkCounters,
    space: QueryTermSpace,
) -> ExecutionResult:
    """The ID pipeline epilogue: filters, DISTINCT (on projected id tuples),
    LIMIT, then **one batch decode** of the surviving rows into bindings.

    Shared by the unsharded and sharded executors so late materialization
    (and result accounting) cannot drift between them.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(counters)
    if query.filters and rows:
        rows = _apply_id_filters(schema, rows, query.filters, space)

    names = query.projected_names()
    positions = tuple(schema.index(n) if n in schema else -1 for n in names)

    if query.distinct:
        if deadline is not None:
            rows = probed_rows(rows, deadline, counters)
        seen: set = set()
        unique: List[IdRow] = []
        append_unique = unique.append
        add = seen.add
        for row in rows:
            key = tuple(row[p] if p >= 0 else None for p in positions)
            if key not in seen:
                add(key)
                append_unique(row)
        rows = unique
    if query.limit is not None:
        rows = rows[: query.limit]

    bound = [(name, p) for name, p in zip(names, positions) if p >= 0]
    id_to_term = space.decode_map(row[p] for row in rows for _, p in bound)
    bindings: List[Binding] = [
        {name: id_to_term[row[p]] for name, p in bound} for row in rows
    ]
    counters.results_produced += len(bindings)
    return ExecutionResult(
        bindings=bindings,
        variables=tuple(names),
        counters=counters,
        store="relational",
    )


# ---------------------------------------------------------------------- #
# Term-space evaluation primitives (the retained reference path)
# ---------------------------------------------------------------------- #
def bind_pattern_row(
    dictionary: TermDictionary, pattern: TriplePattern, row: Row
) -> Optional[Binding]:
    """Match one stored row against a pattern, producing a decoded binding.

    This is the decode-per-row reference path (three decodes per row); the
    hot path uses :func:`match_id_rows` instead and decodes at projection.
    """
    binding: Binding = {}
    for term, term_id in zip((pattern.subject, pattern.predicate, pattern.object), row):
        if isinstance(term, Variable):
            value = dictionary.decode(term_id)
            existing = binding.get(term.name)
            if existing is not None and existing != value:
                return None
            binding[term.name] = value
        else:
            stored: TermLike = dictionary.decode(term_id)
            if stored != term:
                return None
    return binding


def join_pattern_rows(
    bindings: List[Binding],
    pattern: TriplePattern,
    pattern_rows: List[Binding],
    counters: WorkCounters,
) -> List[Binding]:
    """Hash-join already-materialized pattern bindings into the pipeline.

    Charges ``rows_joined`` per produced tuple, exactly like the ID-space
    join (:func:`join_id_pattern_rows`).
    """
    if not bindings or not pattern_rows:
        return []

    # Hash join on the shared variables (if any); cartesian product otherwise.
    if bindings == [{}]:
        counters.rows_joined += len(pattern_rows)
        return pattern_rows

    shared = _shared_variable_names(bindings[0], pattern)
    output: List[Binding] = []
    if shared:
        index: Dict[tuple, List[Binding]] = {}
        for row_binding in pattern_rows:
            key = tuple(row_binding[name] for name in shared)
            index.setdefault(key, []).append(row_binding)
        for binding in bindings:
            key = tuple(binding[name] for name in shared)
            for row_binding in index.get(key, ()):
                merged = merge_bindings(binding, row_binding)
                if merged is not None:
                    output.append(merged)
    else:
        for binding in bindings:
            for row_binding in pattern_rows:
                merged = merge_bindings(binding, row_binding)
                if merged is not None:
                    output.append(merged)
    counters.rows_joined += len(output)
    return output


def join_result_table(
    bindings: List[Binding],
    table: ResultTable,
    counters: WorkCounters,
    as_view: bool = False,
) -> List[Binding]:
    """Join a migrated intermediate-result table into the pipeline.

    Like :func:`join_pattern_rows`, the join runs on a hash index over the
    variables the table shares with the pipeline; the nested-loop cartesian
    merge only remains for tables sharing no variable at all.
    """
    if not bindings:
        return []
    if as_view:
        counters.view_rows_scanned += len(table)
    else:
        counters.rows_scanned += len(table)
    table_bindings = table.to_bindings()
    if bindings == [{}]:
        counters.rows_joined += len(table_bindings)
        return table_bindings
    output: List[Binding] = []
    shared = sorted(set(bindings[0]) & set(table.variables))
    if shared:
        index: Dict[tuple, List[Binding]] = {}
        for table_binding in table_bindings:
            key = tuple(table_binding[name] for name in shared)
            index.setdefault(key, []).append(table_binding)
        for binding in bindings:
            key = tuple(binding[name] for name in shared)
            for table_binding in index.get(key, ()):
                merged = merge_bindings(binding, table_binding)
                if merged is not None:
                    output.append(merged)
    else:
        for binding in bindings:
            for table_binding in table_bindings:
                merged = merge_bindings(binding, table_binding)
                if merged is not None:
                    output.append(merged)
    counters.rows_joined += len(output)
    return output


def apply_filters(bindings: List[Binding], filters: tuple[Filter, ...]) -> List[Binding]:
    if not filters:
        return bindings
    return [b for b in bindings if all(f.evaluate(b) for f in filters)]


def project_bindings(bindings: List[Binding], query: SelectQuery) -> List[Binding]:
    names = query.projected_names()
    projected: List[Binding] = []
    for binding in bindings:
        projected.append({name: binding[name] for name in names if name in binding})
    return projected


def distinct_bindings(bindings: List[Binding], names: tuple[str, ...]) -> List[Binding]:
    seen: set[tuple] = set()
    unique: List[Binding] = []
    for binding in bindings:
        key = tuple(binding.get(name) for name in names)
        if key not in seen:
            seen.add(key)
            unique.append(binding)
    return unique


def check_work_budget(counters: WorkCounters, work_budget: Optional[float]) -> None:
    if work_budget is None:
        return
    spent = relational_work_units(counters)
    if spent > work_budget:
        raise WorkBudgetExceeded(
            f"relational execution exceeded its work budget ({spent:.0f} > {work_budget:.0f})",
            partial_work=spent,
        )


def join_extra_tables(
    bindings: List[Binding],
    extra_tables: Optional[Iterable[ResultTable]],
    counters: WorkCounters,
    tables_are_views: bool,
    work_budget: Optional[float],
) -> List[Binding]:
    """The pipeline prologue: join migrated tables, budget-checked per table."""
    for table in extra_tables or ():
        bindings = join_result_table(bindings, table, counters, as_view=tables_are_views)
        check_work_budget(counters, work_budget)
    return bindings


def finish_pipeline(
    bindings: List[Binding], query: SelectQuery, counters: WorkCounters
) -> ExecutionResult:
    """The term-space pipeline epilogue: filters, projection, DISTINCT,
    LIMIT, result accounting — the reference executor's counterpart of
    :func:`finish_id_pipeline`."""
    bindings = apply_filters(bindings, query.filters)
    bindings = project_bindings(bindings, query)
    if query.distinct:
        bindings = distinct_bindings(bindings, query.projected_names())
    if query.limit is not None:
        bindings = bindings[: query.limit]
    counters.results_produced += len(bindings)
    return ExecutionResult(
        bindings=bindings,
        variables=tuple(query.projected_names()),
        counters=counters,
        store="relational",
    )


class RelationalExecutor:
    """Evaluates plans against a :class:`TripleTable`, entirely in ID space."""

    def __init__(self, table: TripleTable):
        self._table = table

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SelectQuery,
        plan: RelationalPlan,
        work_budget: Optional[float] = None,
        extra_tables: Optional[Iterable[ResultTable]] = None,
        tables_are_views: bool = False,
        compiled: Optional[CompiledPlan] = None,
    ) -> ExecutionResult:
        """Run ``plan`` and return projected solutions plus work counters.

        ``extra_tables`` are temporary tables (migrated intermediate results)
        joined into the pipeline before the base-table patterns; the query
        processor uses this for Case 2 plans.  When ``tables_are_views`` is
        true their rows are charged as ``view_rows_scanned`` instead of
        ``rows_scanned`` (the RDB-views baseline).  ``compiled`` is the plan
        with constants pre-resolved (the store's bound-plan memo provides
        it); when absent the plan is compiled here.
        """
        dictionary = self._table.dictionary
        if compiled is None:
            compiled = compile_plan(plan, dictionary)
        counters = WorkCounters(queries_issued=1)
        space = QueryTermSpace(dictionary)
        schema: Tuple[str, ...] = ()
        rows: List[IdRow] = [()]
        schema, rows = join_id_extra_tables(
            schema, rows, extra_tables, space, counters, tables_are_views, work_budget
        )

        for step in compiled.steps:
            # Guard before scanning: once the pipeline is empty (e.g. a Case 2
            # plan whose migrated table had no rows), later steps must charge
            # zero work, exactly like the reference executor.
            if not rows:
                break
            pattern_rows = self._step_rows(step, counters)
            schema, rows = join_id_pattern_rows(schema, rows, step.matcher, pattern_rows, counters)
            check_work_budget(counters, work_budget)

        return finish_id_pipeline(schema, rows, query, counters, space)

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def _step_rows(self, step: CompiledStep, counters: WorkCounters) -> List[IdRow]:
        table = self._table
        if step.access_path == "table_scan":
            return match_id_rows(step.matcher, table.scan(), counters)

        if step.predicate_id is None:
            return []

        if step.access_path == "index_subject":
            counters.index_lookups += 1
            if step.subject_id is None:
                return []
            rows: Iterable[Row] = table.lookup_subject(step.predicate_id, step.subject_id)
        elif step.access_path == "index_object":
            counters.index_lookups += 1
            if step.object_id is None:
                return []
            rows = table.lookup_object(step.predicate_id, step.object_id)
        elif step.access_path == "partition_scan":
            rows = table.scan_predicate(step.predicate_id)
        else:  # pragma: no cover - defensive
            raise QueryExecutionError(f"unknown access path {step.access_path!r}")

        return match_id_rows(step.matcher, rows, counters)


def _shared_variable_names(binding: Binding, pattern: TriplePattern) -> List[str]:
    return sorted(set(binding) & pattern.variable_names())
