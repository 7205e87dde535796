"""What the relational engine runs on besides its kernels: plan compilation,
the execution term space and work budgets.

* **Plan compilation.**  :func:`compile_plan` resolves the constants of every
  plan step to integer term ids once per read-set stamp (the store's
  bound-plan memo), never per row; the production engine
  (:mod:`repro.relstore.columnar`) matches stored id columns against the
  resulting :class:`CompiledStep` s.
* **Term space.**  :class:`QueryTermSpace` is the dictionary plus
  execution-local negative ids for terms only a migrated intermediate-result
  table carries, so a whole pipeline runs on integers and a result's id
  columns can be decoded late, in batch.
* **Work budgets.**  :func:`check_work_budget` aborts an execution with
  :class:`~repro.errors.WorkBudgetExceeded` once the accumulated work exceeds
  the cap, which is how the tuner's counterfactual scenario stops the
  relational run at ``λ·c₁``.

The engine's decode-per-row oracle, whose charging points the engine is held
to bit for bit, lives with the tests (``tests/relational_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cost.counters import WorkCounters
from repro.errors import WorkBudgetExceeded
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import TermLike, Variable
from repro.sparql.ast import TriplePattern

from repro.relstore.planner import RelationalPlan

__all__ = [
    "relational_work_units",
    "QueryTermSpace",
    "CompiledPattern",
    "CompiledStep",
    "CompiledPlan",
    "compile_pattern",
    "compile_plan",
    "check_work_budget",
]


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


def check_work_budget(counters: WorkCounters, work_budget: Optional[float]) -> None:
    if work_budget is None:
        return
    spent = relational_work_units(counters)
    if spent > work_budget:
        raise WorkBudgetExceeded(
            f"relational execution exceeded its work budget ({spent:.0f} > {work_budget:.0f})",
            partial_work=spent,
        )
