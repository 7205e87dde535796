"""The dual store's pricing memo: DOTIL's ``c1`` (``graph_cost``), its
capped counterfactual ``c2`` and the tuning daemon's routed window prices
are executed once per *read-set stamp* (``DualStore.read_stamp``) and
replayed from ``DualStore.pricing`` while the stamp stands.

Two contracts:

* **The stamp names every input.**  Each ingredient below changes a stamp
  and makes the memo re-price, and the re-priced value — like every hit —
  equals a run with no memo at all.  Evicting and re-transferring an
  unchanged block must *hit*: a replica is named by its contents.
* **Memo on == memo off.**  A run whose memo never hits learns the same
  Q-tables, applies the same moves and measures the same window TTIs, epoch
  by epoch — on the paper's tuned configuration, and under interleaved
  writes, epochs, checkpoints and a mid-run restore.  The memo's size stays
  bounded while it does.
"""

from __future__ import annotations

import json

from repro import (
    PAPER_TUNED_CONFIG,
    AdaptiveConfig,
    DualStore,
    Literal,
    QueryService,
    ResourceThrottle,
    ServiceConfig,
    ShardingConfig,
    SnapshotPolicy,
    Triple,
    generate_watdiv,
    generate_yago,
    parse_query,
    watdiv_workload,
    yago_workload,
)
from repro.core.dualstore import PricingMemo
from repro.rdf.namespace import YAGO
from repro.relstore.sharded import SUBJECT_SHARDED

BORN, ADVISOR, MARRIED, GIVEN = (
    YAGO.term(name) for name in ("wasBornIn", "hasAcademicAdvisor", "isMarriedTo", "hasGivenName")
)
CAP = 1e9  # a cap no mini-graph run reaches: c2 is the full relational price


class CountingMemo(PricingMemo):
    """The production memo, counting the calls that had to execute."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.misses = 0

    def price(self, kind, query, stamp, compute):
        self.calls += 1

        def counted():
            self.misses += 1
            return compute()

        return super().price(kind, query, stamp, counted)


class NeverHits(PricingMemo):
    """A memo that executes every call: the reference run."""

    def price(self, kind, query, stamp, compute):
        return compute()


def fresh(dual, call):
    """``call()`` with the memo out of the way."""
    memo, dual.pricing = dual.pricing, NeverHits()
    try:
        return call()
    finally:
        dual.pricing = memo


def comparable(value):
    """A price as plain data: seconds, plus the rows and work of a result."""
    if isinstance(value, tuple):
        seconds, result = value
        return seconds, result.variables, result.bindings, result.counters.as_dict()
    return value


def priced(dual, call):
    """``(value, executed)``: ``call()`` through the memo, and whether it
    missed.  Every value is checked against a run without the memo."""
    misses = dual.pricing.misses
    value = call()
    assert comparable(value) == comparable(fresh(dual, call))
    return comparable(value), dual.pricing.misses > misses


def counting_dual(triples, **options):
    dual = DualStore(**options).load(triples)
    dual.pricing = CountingMemo()
    return dual


def mini_dual(mini_kg, **options):
    """The hand-written graph, with room for every partition."""
    return counting_dual(mini_kg, storage_budget=100, **options)


def kinds(dual, query):
    """The three prices of ``query``: graph (when resident), capped, routed."""
    calls = {
        "capped": lambda: dual.counterfactual_relational_cost(query, cap_seconds=CAP),
        "routed": lambda: dual.routed_seconds(query),
    }
    if all(p.has_concrete_predicate for p in query.patterns) and dual.graph.covers(query.predicates()):
        calls["graph"] = lambda: dual.graph_cost(query)
    return calls


def price_all(dual, query):
    return {kind: priced(dual, call) for kind, call in kinds(dual, query).items()}


ADVISOR_QUERY = parse_query(
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }"
)


# ---------------------------------------------------------------------- #
# The stamp's ingredients
# ---------------------------------------------------------------------- #
def test_a_repeated_price_hits_and_equals_a_fresh_run(mini_kg):
    dual = mini_dual(mini_kg)
    dual.transfer_partitions([BORN, ADVISOR])
    first = price_all(dual, ADVISOR_QUERY)
    assert set(first) == {"graph", "capped", "routed"}
    assert all(executed for _value, executed in first.values())
    again = price_all(dual, ADVISOR_QUERY)
    assert {kind: value for kind, (value, _) in again.items()} == {
        kind: value for kind, (value, _) in first.items()
    }
    assert not any(executed for _value, executed in again.values())


def test_an_absent_constant_added_by_a_write_elsewhere_reprices(mini_kg):
    dual = mini_dual(mini_kg)
    dual.transfer_partitions([BORN, ADVISOR])
    query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor y:Zed . }")
    before = dual.read_stamp(query)
    price_all(dual, query)
    # The insert touches no predicate the query reads; it only gives the
    # query's constant a dictionary id.
    dual.insert([Triple(YAGO.term("Zed"), MARRIED, YAGO.term("Alice"))])
    assert dual.read_stamp(query) != before
    after = price_all(dual, query)
    assert set(after) == {"graph", "capped", "routed"}
    assert all(executed for _value, executed in after.values())


def test_a_variable_predicate_query_reprices_after_any_write(mini_kg):
    dual = mini_dual(mini_kg)
    query = parse_query("SELECT ?s ?p WHERE { ?s ?p y:Berlin . }")
    (capped, _), (routed, _) = priced(dual, kinds(dual, query)["capped"]), priced(dual, kinds(dual, query)["routed"])
    hal = YAGO.term("Hal")
    for write in (
        lambda: dual.insert([Triple(hal, GIVEN, Literal("Hal"))]),
        lambda: dual.delete([Triple(hal, GIVEN, Literal("Hal"))]),
        lambda: dual.delete([Triple(YAGO.term("Eve"), MARRIED, YAGO.term("Frank"))]),
    ):
        write()
        for kind, call in kinds(dual, query).items():
            value, executed = priced(dual, call)
            assert executed, f"{kind} was not re-priced after a write to a predicate the query scans"
    # The table scan reads the whole table: one row fewer is cheaper.
    assert priced(dual, kinds(dual, query)["capped"])[0] < capped
    assert priced(dual, kinds(dual, query)["routed"])[0] < routed


def test_a_replica_lagging_its_master_keeps_its_graph_price(mini_kg):
    dual = mini_dual(mini_kg)
    dual.transfer_partitions([BORN, ADVISOR])
    before = price_all(dual, ADVISOR_QUERY)
    hal, alice = YAGO.term("Hal"), YAGO.term("Alice")
    dual.insert([Triple(hal, BORN, YAGO.term("Berlin")), Triple(hal, ADVISOR, alice)])
    after = price_all(dual, ADVISOR_QUERY)
    # The graph store still answers from the replica as transferred ...
    assert after["graph"] == (before["graph"][0], False)
    # ... while the relational prices read the master copy, which moved.
    assert after["capped"][1] and after["routed"][1]
    assert after["capped"][0] != before["capped"][0]
    # Catching the replica up re-prices the graph side: Hal is an answer now.
    dual.transfer_partitions([BORN, ADVISOR])
    caught_up = price_all(dual, ADVISOR_QUERY)
    assert caught_up["graph"][1]
    assert len(caught_up["graph"][0][2]) == len(before["graph"][0][2]) + 1


def test_evicting_and_retransferring_an_unchanged_block_hits(mini_kg):
    dual = mini_dual(mini_kg)
    dual.transfer_partitions([BORN, ADVISOR])
    resident = price_all(dual, ADVISOR_QUERY)
    dual.evict_partition(BORN)
    evicted = price_all(dual, ADVISOR_QUERY)
    assert "graph" not in evicted
    assert evicted["routed"][1], "the route changed, the routed price must be re-run"
    assert evicted["capped"] == (resident["capped"][0], False)
    dual.transfer_partition(BORN)
    again = price_all(dual, ADVISOR_QUERY)
    # The routed slot holds the relational route's price now, so only it
    # runs again; the graph price is the slot's value from before.
    assert again["graph"] == (resident["graph"][0], False)
    assert again["routed"][0] == resident["routed"][0]
    assert again["capped"] == (resident["capped"][0], False)


def test_a_throttle_change_reprices_the_graph_side(mini_kg):
    throttle = ResourceThrottle(spare_io=0.4)
    dual = mini_dual(mini_kg, throttle=throttle)
    dual.transfer_partitions([BORN, ADVISOR])
    before = price_all(dual, ADVISOR_QUERY)
    throttle.spare_io = 0.2
    after = price_all(dual, ADVISOR_QUERY)
    assert after["graph"][1] and after["routed"][1]
    assert after["graph"][0][0] > before["graph"][0][0]
    assert after["capped"] == (before["capped"][0], False), "the relational run is not throttled"


def test_a_sharded_store_stamps_placement_and_shard_rows(mini_kg):
    dual = mini_dual(
        mini_kg, shards=2, sharding=ShardingConfig(skew_threshold=1.0, min_subject_shard_rows=5)
    )
    dual.transfer_partitions([BORN, ADVISOR])
    scan = parse_query("SELECT ?s ?p WHERE { ?s ?p y:Berlin . }")
    before = {query: price_all(dual, query) for query in (ADVISOR_QUERY, scan)}
    born_id = dual.relational.dictionary.lookup(BORN)
    assert dual.relational.predicate_stamp(born_id)[1] != SUBJECT_SHARDED
    # Five more births push wasBornIn past the skew limit: it is spread by
    # subject from now on, and every relational price of it moves.
    dual.insert([Triple(YAGO.term(f"Kid{n}"), BORN, YAGO.term("Rome")) for n in range(5)])
    assert dual.relational.predicate_stamp(born_id)[1] == SUBJECT_SHARDED
    for query in (ADVISOR_QUERY, scan):
        after = price_all(dual, query)
        assert after["capped"][1] and after["routed"][1]
        if "graph" in after:
            assert after["graph"] == (before[query]["graph"][0], False)
        assert price_all(dual, query) == {kind: (value, False) for kind, (value, _) in after.items()}


def test_every_price_of_a_sharded_workload_equals_a_fresh_run():
    dataset = generate_watdiv(target_triples=2500, seed=7)
    dual = counting_dual(dataset.triples, config=PAPER_TUNED_CONFIG, shards=3)
    queries = watdiv_workload(dataset, seed=19).ordered()[:40]
    budget = dual.storage_budget
    for query in queries:
        missing = [p for p in query.predicates() if p not in dual.graph.loaded_predicates]
        if sum(dual.partition_sizes().get(p, 0) for p in missing) <= budget - dual.graph.used_capacity():
            dual.transfer_partitions(missing)
        first = price_all(dual, query)
        assert price_all(dual, query) == {kind: (value, False) for kind, (value, _) in first.items()}
    assert dual.pricing.misses < dual.pricing.calls


def test_the_memo_keeps_at_most_its_slots_dropping_the_oldest():
    memo = CountingMemo()
    queries = [parse_query(f"SELECT ?s WHERE {{ ?s <urn:p{n}> ?o . }}") for n in range(PricingMemo.SLOTS + 3)]
    for n, query in enumerate(queries):
        assert memo.price("graph", query, (), lambda: n) == n
    assert len(memo) == PricingMemo.SLOTS
    assert memo.price("graph", queries[-1], (), lambda: "again") == len(queries) - 1
    assert memo.price("graph", queries[0], (), lambda: "again") == "again"
    assert memo.misses == len(queries) + 1


# ---------------------------------------------------------------------- #
# Memo on == memo off
# ---------------------------------------------------------------------- #
def epoch_trace(service, epoch):
    """Everything an epoch learned, moved and measured, as plain data."""
    report = epoch.report
    return {
        "qtable": json.dumps(service.adaptive.tuner.snapshot_state(), sort_keys=True),
        "transferred": [p.value for p in report.transferred] if report else [],
        "evicted": [p.value for p in report.evicted] if report else [],
        "tti_before": epoch.tti_before,
        "tti_after": epoch.tti_after,
        "placement": sorted(p.value for p in service.dual.graph.loaded_predicates),
        "metrics": service.adaptive_metrics(),
    }


def paper_tuned_run(memo):
    dataset = generate_yago(target_triples=3000, seed=3)
    dual = DualStore(PAPER_TUNED_CONFIG).load(dataset.triples)
    dual.pricing = memo
    trace = []
    with QueryService(dual, ServiceConfig(adaptive=AdaptiveConfig())) as service:
        for batch in yago_workload(dataset, seed=9).batches("random"):
            served = [service.run_query(query).record.seconds for query in batch]
            trace.append((served, epoch_trace(service, service.tune_now())))
    return trace


def test_paper_tuned_epochs_are_identical_with_the_memo_off():
    memo = CountingMemo()
    with_memo = paper_tuned_run(memo)
    assert with_memo == paper_tuned_run(NeverHits())
    assert sum(len(entry["transferred"]) for _served, entry in with_memo) > 0
    assert memo.misses < memo.calls / 2, "the memo barely hit: the test shows nothing"


CHURN_LAPS = 20
RESTORE_AFTER_LAP = 7


def churn_run(memo_factory, root):
    """Zipf-repeated reads between insert/delete batches, one epoch and one
    checkpoint per lap, and a warm restart from the checkpoint mid-run.
    Each lap leaves the data as it found it, so its epoch runs mid-lap,
    after a different write each lap: a price replayed across a write would
    have been computed over other rows."""
    dataset = generate_watdiv(target_triples=2500, seed=7)
    triples = sorted(dataset.triples, key=Triple.n3)
    held = triples[3::40]
    held_set = set(held)
    batches = [held[start : start + 12] for start in range(0, len(held), 12)][:4]
    inventory = watdiv_workload(dataset, seed=19).ordered()[:16]
    reads = [query for rank, query in enumerate(inventory, 1) for _ in range(max(1, 8 // rank))]
    config = ServiceConfig(
        cache_results=True,
        adaptive=AdaptiveConfig(window_size=64),
        snapshot=SnapshotPolicy(path=root, log=True),
    )
    dual = DualStore(PAPER_TUNED_CONFIG).load([t for t in triples if t not in held_set])
    dual.pricing = memo_factory()
    service = QueryService(dual, config)
    trace, sizes = [], []
    try:
        for lap in range(CHURN_LAPS):
            served = []
            for index, batch in enumerate(batches):
                served += [service.run_query(query).record.seconds for query in reads[index::len(batches)]]
                service.insert(batch)
                if index:
                    service.delete(batches[index - 1])
                if index == lap % len(batches):
                    trace.append((served, epoch_trace(service, service.tune_now())))
            service.delete(batches[-1])
            service.checkpoint()
            sizes.append(len(service.dual.pricing))
            if lap == RESTORE_AFTER_LAP:
                service.close()
                service = QueryService.restore(root, config)
                assert len(service.dual.pricing) == 0, "a restored store starts cold"
                service.dual.pricing = memo_factory()
    finally:
        service.close()
    return trace, sizes, len(set(inventory))


def test_churn_with_a_restore_is_identical_with_the_memo_off(tmp_path):
    memos = []

    def counting():
        memos.append(CountingMemo())
        return memos[-1]

    with_memo, sizes, distinct = churn_run(counting, tmp_path / "on")
    without, _sizes, _ = churn_run(NeverHits, tmp_path / "off")
    for lap, (on, off) in enumerate(zip(with_memo, without)):
        assert on == off, f"lap {lap} diverged"
    assert len(with_memo) == CHURN_LAPS
    assert sum(memo.misses for memo in memos) < sum(memo.calls for memo in memos)
    # One slot per (kind, query): bounded by the distinct queries, and it
    # stops growing once the laps repeat.
    assert max(sizes) <= 3 * distinct
    assert sizes[-1] == sizes[-5]
