"""The four workloads of the benchmark spine: inputs, laps, and the stack.

Everything the server subprocess, the client's oracle and the tracer must
agree on lives here, so the three build *the same* stack and replay *the
same* lap: the dataset, the query inventory of each workload (chosen by
measured result rows, so the cells stay valid if the generator changes), the
seeded lap, and :func:`build_stack`, which assembles ``DualStore`` ->
``QueryService`` from public constructors with library defaults wherever the
workload does not need otherwise — a later change of a default (engine,
cache, protocol) then shows in the numbers without touching the benchmark.

The dataset is generated from a **fixed** seed and ``--seed`` drives only
what does not change the amount of work: the order of the lap, and which
triples the write workload holds out.  Replication runs use a different seed
each time, so a seed that changed the data would show up as benchmark noise.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    PAPER_TUNED_CONFIG,
    AdaptiveConfig,
    DualStore,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
    Triple,
    TripleSet,
    Variable,
    generate_watdiv,
    watdiv_workload,
)
from repro.endpoint.protocol import encode_results
from repro.sparql import SelectQuery, TriplePattern

__all__ = [
    "DATA_SEED",
    "DATA_TRIPLES",
    "NOMINAL_SECONDS",
    "QUICK",
    "REF_EVERY",
    "SPECS",
    "Scale",
    "Spec",
    "Inputs",
    "Op",
    "OrderedTripleSet",
    "apply_write",
    "build_lap",
    "build_stack",
    "generate_triples",
    "laps_for",
    "prepare_inputs",
    "read_body",
    "reference_kernel",
    "select_inventory",
    "split_held_out",
]

#: WatDiv stand-in scale and seed (34.5k triples).  Fixed: see module docstring.
DATA_TRIPLES = 30000
DATA_SEED = 17
#: ``--seconds`` at which a workload replays ``Spec.laps`` laps.
NOMINAL_SECONDS = 20
#: Triples per insert/delete command of the write workload.
WRITE_BATCH = 20
#: The server times one :func:`reference_kernel` before every
#: ``REF_EVERY``-th op of a lap (see ``estimator.host_reference``).
REF_EVERY = 10

#: One lap operation: ``("get", query text)``, ``("insert", batch index)``,
#: ``("delete", batch index)``, ``("tune", None)`` or ``("checkpoint", None)``.
Op = Tuple[str, object]


@dataclass(frozen=True)
class Scale:
    """How much data and how many ops a run uses (full or ``--quick``)."""

    triples: int
    reads_cap: Optional[int]
    laps: Optional[int]
    builds: Optional[int]
    row_divisor: int


FULL = Scale(triples=DATA_TRIPLES, reads_cap=None, laps=None, builds=None, row_divisor=1)
#: The smoke scale of ``--quick``: 1 warm + 2 laps of 50 reads on 4k triples.
QUICK = Scale(triples=4000, reads_cap=50, laps=2, builds=1, row_divisor=8)


@dataclass(frozen=True)
class Spec:
    """One workload: which queries, how many, on which stack.  Why each was
    chosen is recorded in ``BENCHMARK.json`` and README.md."""

    name: str
    reads: int
    laps: int
    #: Timed builds per run: as many as ~4 s of set-up hold.
    builds: int
    min_rows: int
    max_rows: int
    generated: bool = False
    tuned_epochs: int = 0
    cached: bool = False
    write_batches: int = 0

    @property
    def mutates(self) -> bool:
        return self.write_batches > 0


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(name="lookup_small", reads=300, laps=12, builds=8, min_rows=0, max_rows=100),
        Spec(
            name="result_large", reads=200, laps=8, builds=8, min_rows=2000, max_rows=20000,
            generated=True,
        ),
        Spec(
            name="mix_tuned", reads=320, laps=12, builds=4, min_rows=0, max_rows=1000,
            tuned_epochs=3,
        ),
        Spec(
            name="churn_cached", reads=200, laps=8, builds=8, min_rows=0, max_rows=1000,
            cached=True, write_batches=10,
        ),
    )
}


def laps_for(spec: Spec, seconds: float, scale: Scale = FULL) -> int:
    """Replays measured in a run of ``seconds``: a fixed count, not a timer,
    so every run of one commit does the same work."""
    if scale.laps is not None:
        return scale.laps
    return max(4, round(spec.laps * seconds / NOMINAL_SECONDS))


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
class OrderedTripleSet(TripleSet):
    """A ``TripleSet`` that iterates in the order it was given.

    ``DualStore.load`` fills the triple table by iterating a ``TripleSet``,
    i.e. a Python set.  A literal's hash includes ``hash(None)`` (its absent
    language tag), which CPython 3.11 derives from an address, so that order
    — and with it the row order of every answer — differs from process to
    process even under ``PYTHONHASHSEED=0``.  Server, oracle and tracer must
    answer byte-identically, so they load through this adapter instead.
    """

    def __init__(self, triples: Sequence[Triple]):
        super().__init__(triples)
        self._ordered = list(triples)

    def __iter__(self):
        return iter(self._ordered)


def generate_triples(scale: Scale = FULL):
    """The dataset (for template slots) and its triples in a canonical
    (N-Triples text) order, the same in every process."""
    dataset = generate_watdiv(target_triples=scale.triples, seed=DATA_SEED)
    return dataset, sorted(dataset.triples, key=Triple.n3)


def split_held_out(
    spec: Spec, triples: Sequence[Triple], seed: int
) -> Tuple[List[Triple], List[List[Triple]]]:
    """``(loaded triples, write batches)``: the write workload holds
    ``write_batches x WRITE_BATCH`` seeded triples out of the load and
    inserts/deletes them during the lap."""
    if not spec.mutates:
        return list(triples), []
    rng = random.Random(f"held-out:{seed}")
    picked = rng.sample(range(len(triples)), spec.write_batches * WRITE_BATCH)
    held = set(picked)
    base = [triple for index, triple in enumerate(triples) if index not in held]
    batches = [
        [triples[index] for index in picked[start : start + WRITE_BATCH]]
        for start in range(0, len(picked), WRITE_BATCH)
    ]
    return base, batches


@dataclass(frozen=True)
class Inputs:
    """What one run feeds the stack: the loaded triples, the write batches,
    the query inventory and the lap."""

    base: List[Triple]
    batches: List[List[Triple]]
    inventory: List[str]
    lap: List[Op]


def prepare_inputs(spec: Spec, seed: int, scale: Scale) -> Inputs:
    """Everything the client derives from the seed before the server is told
    to build (the server regenerates the triples itself from the same seed)."""
    dataset, triples = generate_triples(scale)
    base, batches = split_held_out(spec, triples, seed)
    inventory = select_inventory(spec, dataset, base, scale)
    return Inputs(base, batches, inventory, build_lap(spec, inventory, seed, scale))


def _generated_queries(dual: DualStore, row_cap: int) -> List[str]:
    """Single-predicate scans and two-pattern subject joins over the largest
    partitions, LIMIT-capped so one request stays in the tens of ms.  Two
    caps per shape give the latency distribution many small steps rather
    than a few large ones, so its median does not sit on a cliff."""
    sizes = sorted(dual.partition_sizes().items(), key=lambda item: (-item[1], item[0].value))
    top = [predicate for predicate, _size in sizes[:4]]
    s, a, b = Variable("s"), Variable("a"), Variable("b")
    queries = []
    for limit in (row_cap, row_cap * 5 // 4):
        queries += [
            SelectQuery(projection=(s, a), patterns=(TriplePattern(s, predicate, a),), limit=limit)
            for predicate in top
        ]
        queries += [
            SelectQuery(
                projection=(s, a, b),
                patterns=(TriplePattern(s, first, a), TriplePattern(s, second, b)),
                limit=limit,
            )
            for first, second in zip(top, top[1:])
        ]
    return [query.to_sparql() for query in queries]


def select_inventory(spec: Spec, dataset, triples: Sequence[Triple], scale: Scale = FULL) -> List[str]:
    """The workload's distinct query texts, chosen by *measured* result rows.

    Candidates are the WatDiv template instantiations of all four families
    (plus, for ``result_large``, generated scans and joins); a scratch store
    answers each once and the ones inside the spec's row band stay.
    """
    min_rows = spec.min_rows // scale.row_divisor
    max_rows = spec.max_rows
    candidates = list(dict.fromkeys(entry.query.to_sparql() for entry in watdiv_workload(dataset).queries))
    dual = DualStore().load(OrderedTripleSet(triples))
    if spec.generated:
        candidates += _generated_queries(dual, row_cap=max(min_rows, 1))
    inventory = []
    with QueryService(dual, ServiceConfig(cache_results=False)) as service:
        for text in candidates:
            if min_rows <= len(service.run_query(text).result) <= max_rows:
                inventory.append(text)
    if len(inventory) < 4:
        raise RuntimeError(f"{spec.name}: only {len(inventory)} queries fall in its row band")
    return inventory


def _zipf_counts(ranks: int, total: int) -> List[int]:
    """``total`` draws split over ``ranks`` by Zipf(1.0) weights, largest
    remainder first, so the multiset of reads is the same for every seed."""
    weights = [1.0 / rank for rank in range(1, ranks + 1)]
    norm = sum(weights)
    shares = [total * weight / norm for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def build_lap(spec: Spec, inventory: Sequence[str], seed: int, scale: Scale = FULL) -> List[Op]:
    """The workload's fixed op sequence for ``seed``.

    Reads cover the inventory evenly (Zipf-repeated on the cached workload).
    On the read-only workloads the seed shuffles their order.  On the write
    workload the order *is* the workload — it decides what repeats between
    two cache invalidations and what the tuner's window holds — so there the
    reads are dealt round-robin, in rank order, into one chunk per write, the
    same for every seed (the seed picks the held-out triples).  Writes close
    their chunk — insert batch j, then delete batch j-1 — so every lap leaves
    the data as it found it; the tuning epoch and the checkpoint close the
    lap.  Everything is triggered by op count, never by a timer.
    """
    reads_total = min(spec.reads, scale.reads_cap or spec.reads)
    if spec.cached:
        counts = _zipf_counts(len(inventory), reads_total)
    else:
        base, extra = divmod(reads_total, len(inventory))
        counts = [base + (1 if index < extra else 0) for index in range(len(inventory))]
    reads: List[Op] = [("get", text) for text, count in zip(inventory, counts) for _ in range(count)]
    if not spec.mutates:
        random.Random(f"{spec.name}:{seed}").shuffle(reads)
        return reads
    writes: List[Op] = []
    for batch in range(spec.write_batches):
        writes.append(("insert", batch))
        if batch:
            writes.append(("delete", batch - 1))
    writes.append(("delete", spec.write_batches - 1))
    lap: List[Op] = []
    for slot, write in enumerate(writes):
        lap += reads[slot :: len(writes)]
        lap.append(write)
    return lap + [("tune", None), ("checkpoint", None)]


# --------------------------------------------------------------------------- #
# The stack under test
# --------------------------------------------------------------------------- #
def _service_config(spec: Spec, snapshot_root: Optional[Path]) -> ServiceConfig:
    if spec.mutates:
        # Epochs and checkpoints are lap ops (epoch_queries=0, no policy
        # trigger), so they land on the same position in every replay.  The
        # window is a quarter of the default to keep an epoch near 0.3 s.
        return ServiceConfig(
            cache_results=spec.cached,
            adaptive=AdaptiveConfig(window_size=64, epoch_queries=0),
            snapshot=SnapshotPolicy(path=snapshot_root, log=True),
        )
    if spec.tuned_epochs:
        return ServiceConfig(cache_results=spec.cached, adaptive=AdaptiveConfig(epoch_queries=0))
    return ServiceConfig(cache_results=spec.cached)


def build_stack(
    spec: Spec,
    triples: Sequence[Triple],
    inventory: Sequence[str],
    snapshot_root: Optional[Path] = None,
    span: Optional[Callable[[str, float, float], None]] = None,
) -> QueryService:
    """Load -> ``QueryService`` -> warm pass over the inventory -> the
    workload's tuning epochs.  This is what ``setup_s`` times (plus
    ``SparqlEndpoint.start()``) and what the oracle and tracer rebuild; the
    tracer passes ``span(name, start, end)`` to see the steps."""
    marks = [time.perf_counter()]

    def step(name: str) -> None:
        marks.append(time.perf_counter())
        if span is not None:
            span(name, marks[-2], marks[-1])

    dual = DualStore(PAPER_TUNED_CONFIG) if spec.tuned_epochs else DualStore()
    dual.load(OrderedTripleSet(triples))
    step("core.load")
    service = QueryService(dual, _service_config(spec, snapshot_root))
    step("serve.open")
    for _epoch in range(max(1, spec.tuned_epochs)):
        for text in inventory:
            service.run_query(text)
        step("serve.warm_pass")
        if spec.tuned_epochs:
            service.tune_now()
            step("core.tune_epoch")
    return service


def reference_kernel() -> int:
    """A fixed piece of interpreter work — tuples, a dict of lists, a sort,
    string joins — that touches nothing of the library.  How long it takes
    right now, in the server process, is the host's speed: the end-to-end
    timings are reported relative to it (``estimator.host_reference``)."""
    rows = [(i * 7919 % 1009, str(i), i & 7) for i in range(20000)]
    index: Dict[int, List[str]] = {}
    for key, text, _flag in rows:
        index.setdefault(key, []).append(text)
    return sum(len("".join(texts)) for _key, texts in sorted(index.items()))


def read_body(service: QueryService, text: str) -> bytes:
    """The wire bytes the endpoint must answer ``text`` with right now."""
    return encode_results(service.run_query(text).result)


def apply_write(service: QueryService, kind: str, arg: Optional[int], batches: Sequence[List[Triple]]):
    """Run one non-read lap op ``(kind, arg)``; returns its acknowledgement
    value (what the server sends back and the oracle predicts)."""
    if kind == "insert":
        return service.insert(batches[arg])
    if kind == "delete":
        return service.delete(batches[arg])
    if kind == "tune":
        return service.tune_now().moves
    if kind == "checkpoint":
        return service.checkpoint().generation
    raise ValueError(f"unknown lap op {kind!r}")
