"""Tests for the durable snapshot & warm-restart subsystem (repro.persist).

Two properties carry the whole feature:

1. **Round-trip fidelity** — a restored ``DualStore`` (and a restored
   ``QueryService``) is execution-equivalent to the live one: byte-identical
   bindings, bit-identical :class:`~repro.cost.counters.WorkCounters`,
   identical modelled seconds, routes, generation, placement, and
   statistics — across every template family of all three datasets,
   unsharded and sharded.
2. **Crash consistency** — a snapshot interrupted at *any* write step leaves
   either the previous complete snapshot or a loud
   :class:`~repro.errors.SnapshotError`; a restore never half-loads.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest

from repro import (
    AdaptiveConfig,
    Dotil,
    DotilConfig,
    DualStore,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
    bio2rdf_workload,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    load_snapshot,
    read_manifest,
    watdiv_workload,
    yago_workload,
)
from repro.errors import SnapshotError, SnapshotIntegrityError
from repro.persist import FORMAT_VERSION, list_snapshots
from repro.persist import snapshot as snapshot_module
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI
from repro.relstore.sharded import ShardingConfig
from repro.sparql import parse_query

TUNER_CONFIG = DotilConfig(r_bg=0.2, prob=1.0, gamma=0.7, lam=4.5)

#: Aggressive skew settings so the sharded round trip covers subject-sharded
#: (promoted mega-predicate) placement as well.
AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)


def ex_iri(name: str) -> IRI:
    return IRI(f"http://example.org/{name}")


def assert_same_statistics(restored, live) -> None:
    """Equal statistics, predicates in the same order."""
    assert restored == live
    assert list(restored.per_predicate) == list(live.per_predicate)


def assert_identical(live, restored, context: str) -> None:
    """Byte-identical bindings (content *and* order) plus bit-identical work."""
    assert restored.variables == live.variables, f"{context}: projected variables diverged"
    assert restored.bindings == live.bindings, f"{context}: bindings diverged"
    assert restored.counters.as_dict() == live.counters.as_dict(), f"{context}: work diverged"
    assert restored.seconds == live.seconds, f"{context}: modelled seconds diverged"


# --------------------------------------------------------------------------- #
# Workloads covering every template family of all three datasets
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def family_workloads():
    rng = random.Random(77)
    watdiv = generate_watdiv(target_triples=2200, seed=23)
    cases = []
    for family in ("linear", "star", "snowflake", "complex"):
        workload = watdiv_workload(watdiv, family=family, seed=rng.randrange(10_000))
        cases.append((f"watdiv-{family}", watdiv.triples, workload.randomized(seed=rng.randrange(10_000))))
    yago = generate_yago(target_triples=1800, seed=11)
    cases.append(("yago-complex", yago.triples, yago_workload(yago, seed=5).randomized()))
    bio = generate_bio2rdf(target_triples=1800, seed=13)
    cases.append(("bio2rdf-mixed", bio.triples, bio2rdf_workload(bio, seed=9).randomized()))
    return cases


def _tuned_dual(triples, queries, **dual_kwargs) -> DualStore:
    """A loaded dual store with some partitions transferred (non-trivial
    placement, non-zero generation — the state worth snapshotting)."""
    dual = DualStore(TUNER_CONFIG, **dual_kwargs).load(triples)
    transferable = sorted({p for q in queries for p in q.predicates()}, key=lambda p: p.value)
    for predicate in transferable:
        size = dual.relational.partition_size(predicate)
        if size and dual.graph.fits(size):
            dual.transfer_partition(predicate)
    return dual


# --------------------------------------------------------------------------- #
# Round-trip fidelity: DualStore, unsharded and sharded
# --------------------------------------------------------------------------- #
def test_restored_dualstore_is_execution_equivalent_for_every_family(family_workloads, tmp_path):
    for label, triples, queries in family_workloads:
        dual = _tuned_dual(triples, queries)
        live = [dual.run_query(q) for q in queries]
        root = tmp_path / label
        manifest = dual.snapshot(root)
        restored = DualStore.restore(root)

        assert restored.generation == dual.generation
        assert restored.design.in_graph_store == dual.design.in_graph_store
        assert restored.design.partition_sizes == dual.design.partition_sizes
        assert restored.design.storage_budget == dual.design.storage_budget
        assert restored.graph.partition_sizes() == dual.graph.partition_sizes()
        assert restored.graph.storage_budget == dual.graph.storage_budget
        assert restored.transfer_log == dual.transfer_log
        assert restored.config == dual.config
        assert_same_statistics(restored.relational.statistics(), dual.relational.statistics())
        assert manifest.format_version == FORMAT_VERSION
        assert manifest.triple_count == len(dual.relational)

        for index, query in enumerate(queries):
            warm = restored.run_query(query)
            assert warm.record.route == live[index].record.route, f"{label}[{index}]"
            assert_identical(live[index].result, warm.result, f"{label}[{index}]")
            assert warm.record.seconds == live[index].record.seconds


@pytest.mark.parametrize("shards", (1, 4))
def test_restored_sharded_dualstore_preserves_placement_and_answers(
    shards, family_workloads, tmp_path
):
    for label, triples, queries in family_workloads:
        dual = _tuned_dual(triples, queries, shards=shards, sharding=AGGRESSIVE)
        live = [dual.run_query(q) for q in queries]
        root = tmp_path / f"{label}-n{shards}"
        dual.snapshot(root)
        restored = DualStore.restore(root)

        backend, warm_backend = dual.relational, restored.relational
        assert warm_backend.shard_count == backend.shard_count
        assert warm_backend._placement == backend._placement
        assert warm_backend.subject_sharded_predicates() == backend.subject_sharded_predicates()
        assert warm_backend.shard_row_counts() == backend.shard_row_counts()

        for index, query in enumerate(queries):
            warm = restored.run_query(query)
            assert warm.record.route == live[index].record.route, f"{label}[{index}] N={shards}"
            assert_identical(live[index].result, warm.result, f"{label}[{index}] N={shards}")


VARIABLE_PREDICATE = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"


def _global_order_rows(table, order):
    """Snapshot rows as older builds wrote them: rows in global insertion
    order (``order``), predicates interleaved."""
    rows = [table.dictionary.encode_triple(triple) for triple in order]
    return [value for row in rows if row in table._row_set for value in row]


@pytest.mark.parametrize("shards", (None, 4))
def test_restore_equals_live_for_table_scans_and_reinserted_rows(shards, writer, tmp_path):
    """Restore == live — bindings, order, counters — for a variable-predicate
    query (a table scan: predicates by ascending id) and around a triple that
    was deleted and re-inserted (now last in its predicate), whether the live
    store was bulk-loaded or written in batches; and a snapshot whose rows are
    in global insertion order, as older builds wrote them, restores to the
    same store."""
    dataset = generate_watdiv(target_triples=800, seed=23)
    order = list(dataset.triples)
    sharding = {} if shards is None else {"shards": shards, "sharding": AGGRESSIVE}
    dual = writer.dual(dataset.triples, config=TUNER_CONFIG, **sharding)
    moved = order[0]
    assert dual.delete([moved]) == 1
    dual.insert([moved])
    order = order[1:] + [moved]
    queries = [
        parse_query(VARIABLE_PREDICATE),
        parse_query(f"SELECT ?p ?o WHERE {{ {moved.subject.n3()} ?p ?o . }}"),
        parse_query(f"SELECT ?s ?o WHERE {{ ?s {moved.predicate.n3()} ?o . }}"),
    ]
    live = [dual.relational.execute(query) for query in queries]
    partition = dual.relational.partition(moved.predicate)
    assert partition[-1] == moved

    dual.snapshot(tmp_path)
    restored = DualStore.restore(tmp_path)
    for index, (query, answer) in enumerate(zip(queries, live)):
        assert_identical(answer, restored.relational.execute(query), f"restored[{index}]")

    backend = dual.relational
    state = json.loads(json.dumps(backend.snapshot_state()))  # Python ints only
    state["rows"] = _global_order_rows(backend.table, order)
    dictionary = TermDictionary.from_payload(backend.dictionary.to_payload())
    from_legacy = type(backend).restore_state(state, dictionary)
    assert from_legacy.snapshot_state() == backend.snapshot_state()
    for index, (query, answer) in enumerate(zip(queries, live)):
        assert_identical(answer, from_legacy.execute(query), f"legacy[{index}]")


#: A snapshot written by a build that kept one triple table per shard.
LEGACY_SHARDED = Path(__file__).with_name("fixtures") / "sharded_snapshot_legacy"


def _answers_sha256(result) -> str:
    lines = sorted(
        " ".join(f"{name}={term.n3()}" for name, term in sorted(binding.items()))
        for binding in result.bindings
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_per_shard_snapshot_of_an_older_build_restores(tmp_path):
    """``fixtures/sharded_snapshot_legacy`` was written by a build that kept
    one triple table per shard, so its ``relational.json`` carries per-shard
    ``shard_rows``: ``DualStore(TUNER_CONFIG, shards=4, sharding=AGGRESSIVE)``
    over ``generate_watdiv(800, seed=23)`` (five predicates promoted), with
    the first triple deleted and re-inserted.  ``expected.json`` holds that
    build's placement, per-shard row counts and, per query, the answers'
    digest, work counters, seconds and scatter breakdown.  The snapshot
    restores to all of them."""
    root = tmp_path / "snapshot"
    shutil.copytree(LEGACY_SHARDED / "snapshot", root)
    (relational_file,) = root.glob("snapshot-*/relational.json")
    assert "shard_rows" in json.loads(relational_file.read_text())
    expected = json.loads((LEGACY_SHARDED / "expected.json").read_text())

    backend = DualStore.restore(root).relational
    assert backend.shard_count == 4
    assert {value: backend.placement(IRI(value)) for value in expected["placement"]} == (
        expected["placement"]
    )
    assert backend.shard_row_counts() == expected["shard_row_counts"]
    assert [p.value for p in backend.subject_sharded_predicates()] == expected["subject_sharded"]
    for index, case in enumerate(expected["queries"]):
        result = backend.execute(parse_query(case["sparql"]))
        assert len(result) == case["rows"], index
        assert _answers_sha256(result) == case["answers_sha256"], index
        assert result.counters.as_dict() == case["counters"], index
        assert repr(result.seconds) == case["seconds"], index
        scatter = result.scatter
        assert [
            repr(scatter.shard_seconds), repr(scatter.parallel_seconds), repr(scatter.serial_seconds)
        ] == case["scatter"], index


#: A flat snapshot written by a build that also persisted derived values.
LEGACY_FLAT = Path(__file__).with_name("fixtures") / "flat_snapshot_legacy"


def _ordered_answers_sha256(result) -> str:
    lines = (
        " ".join(f"{name}={term.n3()}" for name, term in sorted(binding.items()))
        for binding in result.bindings
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_flat_snapshot_of_an_older_build_restores(tmp_path):
    """``fixtures/flat_snapshot_legacy`` (``fixtures/make_flat_snapshot_legacy.py``)
    was written by a build that also persisted a dataset fingerprint, the
    planner statistics and an engine tag: a tuned WatDiv store with one
    resident partition and one delete.  It restores to that build's
    generation, placement, answers (content and order), work counters and
    seconds, and its recomputed statistics equal the persisted ones."""
    root = tmp_path / "snapshot"
    shutil.copytree(LEGACY_FLAT / "snapshot", root)
    (manifest_file,) = root.glob("snapshot-*/MANIFEST.json")
    assert "dataset_fingerprint" in json.loads(manifest_file.read_text())
    (relational_file,) = root.glob("snapshot-*/relational.json")
    legacy_state = json.loads(relational_file.read_text())
    assert {"statistics", "engine"} <= legacy_state.keys()
    expected = json.loads((LEGACY_FLAT / "expected.json").read_text())

    dual = DualStore.restore(root)
    assert dual.generation == expected["generation"]
    assert sorted(p.value for p in dual.design.in_graph_store) == expected["resident"]
    assert [[kind, p.value] for kind, p in dual.transfer_log] == expected["transfer_log"]
    assert len(dual.relational) == expected["triple_count"]
    persisted = legacy_state["statistics"]
    statistics = dual.relational.statistics()
    assert statistics.total_rows == persisted["total_rows"]
    assert {
        p.value: [
            s.cardinality, s.distinct_subjects, s.distinct_objects,
            s.max_subject_rows, s.max_object_rows,
        ]
        for p, s in statistics.per_predicate.items()
    } == persisted["per_predicate"]
    assert [p.value for p in statistics.per_predicate] == list(persisted["per_predicate"])
    for index, case in enumerate(expected["queries"]):
        processed = dual.run_query(parse_query(case["sparql"]))
        result = processed.result
        assert processed.record.route == case["route"], index
        assert len(result) == case["rows"], index
        assert _ordered_answers_sha256(result) == case["answers_sha256"], index
        assert result.counters.as_dict() == case["counters"], index
        assert repr(processed.record.seconds) == case["record_seconds"], index
        assert repr(result.seconds) == case["result_seconds"], index


@pytest.mark.parametrize("shards", (None, 4))
def test_new_snapshots_carry_no_derived_values(family_workloads, tmp_path, shards):
    """A snapshot holds state only: no fingerprint in the manifest, no
    statistics or engine tag in ``relational.json``; the manifest still
    hashes every data file."""
    _, triples, queries = family_workloads[0]
    dual = _tuned_dual(triples, queries, shards=shards, sharding=AGGRESSIVE if shards else None)
    manifest = dual.snapshot(tmp_path)
    snapshot_dir = tmp_path / manifest.name
    manifest_payload = json.loads((snapshot_dir / "MANIFEST.json").read_text())
    assert "dataset_fingerprint" not in manifest_payload
    assert set(manifest_payload["file_hashes"]) == {
        "dictionary.json", "relational.json", "graph.json", "design.json"
    }
    relational_payload = json.loads((snapshot_dir / "relational.json").read_text())
    assert "statistics" not in relational_payload
    assert "engine" not in relational_payload
    assert relational_payload["kind"] == ("sharded" if shards else "relational")


@pytest.mark.parametrize("shards", (None, 4))
def test_restored_statistics_equal_a_fresh_collection(family_workloads, tmp_path, shards):
    """A restored store computes its statistics from its rows on first use:
    they equal the oracle's from-scratch collection and the live store's,
    predicate order included."""
    from relational_oracle import collect_statistics

    _, triples, queries = family_workloads[4]  # yago: skewed predicates
    dual = _tuned_dual(triples, queries, shards=shards, sharding=AGGRESSIVE if shards else None)
    dual.delete([next(iter(triples))])
    dual.snapshot(tmp_path)
    restored = DualStore.restore(tmp_path).relational
    first = restored.statistics()
    fresh = collect_statistics(restored.table)
    assert_same_statistics(first, fresh)
    assert_same_statistics(first, dual.relational.statistics())


@pytest.mark.parametrize("log", (False, True))
def test_checkpoint_after_an_insert_decodes_no_term(tmp_path, monkeypatch, log):
    """A checkpoint serializes ids and term payloads: after a write it
    decodes no stored id and renders no triple."""
    from repro import Triple

    dataset = generate_yago(target_triples=1200, seed=3)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    config = ServiceConfig(snapshot=SnapshotPolicy(path=tmp_path / "root", log=log))
    with QueryService(dual, config) as service:
        service.checkpoint()
        service.insert([Triple(ex_iri("s"), ex_iri("p"), ex_iri("o"))])
        calls = []
        watched = ((TermDictionary, "decode"), (TermDictionary, "decode_many"), (Triple, "n3"))
        for owner, name in watched:
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        manifest = service.checkpoint()
        monkeypatch.undo()
    assert calls == []
    assert manifest.generation == dual.generation
    assert len(DualStore.restore(tmp_path / "root").relational) == len(dual.relational)


def test_restored_service_serves_identically_with_adaptive_state(tmp_path):
    dataset = generate_watdiv(target_triples=2500, seed=7)
    batch = watdiv_workload(dataset, family="snowflake", seed=19).ordered()
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "serve"
    config = ServiceConfig(
        adaptive=AdaptiveConfig(tuner_factory=lambda d: Dotil(d, TUNER_CONFIG)),
        snapshot=SnapshotPolicy(path=root),
    )
    with QueryService(dual, config) as live:
        live.run_batch(batch)
        epoch = live.tune_now()
        assert epoch.moves > 0
        live.checkpoint()  # the post-epoch checkpoint
        assert live.metrics.counters.snapshots_taken == 1
        assert live.last_snapshot is not None
        live.checkpoint()  # explicit checkpoint after the post-epoch serves
        live_batch = live.run_batch(batch)
        live_metrics = live.adaptive_metrics()
        live_qtable = live.adaptive.tuner.qtable.to_payload()
        live_rng = live.adaptive.tuner._rng.getstate()
        live_window = live.adaptive.window.snapshot_state()

        restored = QueryService.restore(root, config)
        try:
            warm_batch = restored.run_batch(batch)
            assert warm_batch.tti == live_batch.tti
            for live_exec, warm_exec in zip(live_batch, warm_batch):
                assert warm_exec.result.bindings == live_exec.result.bindings
                assert (
                    warm_exec.result.counters.as_dict() == live_exec.result.counters.as_dict()
                )
                assert warm_exec.record.route == live_exec.record.route
            # Adaptive state came back: window, epoch metrics, Q-state, RNG.
            warm_metrics = restored.adaptive_metrics()
            for key in ("epochs", "moves_applied", "import_seconds", "evict_seconds"):
                assert warm_metrics[key] == live_metrics[key]
            assert restored.adaptive.tuner.qtable.to_payload() == live_qtable
            assert restored.adaptive.tuner._rng.getstate() == live_rng
            warm_window = restored.adaptive.window.snapshot_state()
            assert warm_window["entries"] == live_window["entries"]
            assert warm_window["harvested"] == live_window["harvested"]
        finally:
            restored.close()


def test_restore_without_adaptive_config_ignores_adaptive_extras(tmp_path):
    dataset = generate_yago(target_triples=1500, seed=3)
    batch = yago_workload(dataset, seed=5).ordered()[:6]
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "plain"
    config = ServiceConfig(
        adaptive=AdaptiveConfig(tuner_factory=lambda d: Dotil(d, TUNER_CONFIG))
    )
    with QueryService(dual, config) as live:
        live.run_batch(batch)
        live.tune_now()
        live.checkpoint(path=root)
        live_batch = live.run_batch(batch)
    restored = QueryService.restore(root)  # default config: no adaptive layer
    try:
        assert restored.adaptive is None
        warm_batch = restored.run_batch(batch)
        assert warm_batch.tti == live_batch.tti
    finally:
        restored.close()


def test_adaptive_payload_of_an_older_build_restores(tmp_path):
    """Older builds wrote the window's ``pending`` trigger count and the
    metrics' ``epoch_failures``; a restore ignores both keys and brings back
    everything else exactly."""
    from repro.persist import capture_snapshot, commit_snapshot

    dataset = generate_watdiv(target_triples=2000, seed=7)
    batch = watdiv_workload(dataset, family="star", seed=19).ordered()
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    config = ServiceConfig(adaptive=AdaptiveConfig(tuner_factory=lambda d: Dotil(d, TUNER_CONFIG)))
    with QueryService(dual, config) as live:
        live.run_batch(batch)
        assert live.tune_now().moves > 0
        live.run_batch(batch[:5])
        current = live.adaptive.snapshot_state()
    window = current["window"]
    metrics = current["metrics"]
    older = {
        "window": {
            "capacity": window["capacity"],
            "pending": 5,
            "harvested": window["harvested"],
            "entries": window["entries"],
        },
        "tuner": current["tuner"],
        "metrics": {
            "epochs": metrics["epochs"],
            "epochs_with_moves": metrics["epochs_with_moves"],
            "epoch_failures": 2.0,
            **{key: value for key, value in metrics.items() if key not in ("epochs", "epochs_with_moves")},
        },
    }
    root = tmp_path / "older"
    commit_snapshot(capture_snapshot(dual, extras={"adaptive": older}), root)
    expected = json.loads(json.dumps(older))

    restored = QueryService.restore(root, config)
    try:
        state = restored.adaptive.snapshot_state()
        assert state["window"]["entries"] == expected["window"]["entries"]
        assert state["window"]["harvested"] == expected["window"]["harvested"]
        assert "pending" not in state["window"]
        assert state["tuner"]["qtable"] == expected["tuner"]["qtable"]
        assert state["tuner"]["rng"] == expected["tuner"]["rng"]
        del expected["metrics"]["epoch_failures"]
        assert state["metrics"] == expected["metrics"]
    finally:
        restored.close()


def test_writes_and_epochs_take_no_snapshot_until_checkpoint(tmp_path):
    """A snapshot policy names where to checkpoint, not when: mutations,
    serves and epochs write nothing until ``checkpoint()`` is called."""
    dataset = generate_watdiv(target_triples=2000, seed=7)
    batch = watdiv_workload(dataset, family="star", seed=19).ordered()
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "policy"
    config = ServiceConfig(
        adaptive=AdaptiveConfig(tuner_factory=lambda d: Dotil(d, TUNER_CONFIG)),
        snapshot=SnapshotPolicy(path=root),
    )
    with QueryService(dual, config) as service:
        sizes = dual.partition_sizes()
        predicate = min(sizes, key=lambda p: (sizes[p], p.value))
        for _ in range(5):
            service.insert([])
            service.transfer_partition(predicate)
            service.evict_partition(predicate)
        service.run_batch(batch)
        assert service.tune_now().moves > 0
        service.run_batch(batch)
        assert list_snapshots(root) == []
        assert service.last_snapshot is None
        assert service.metrics.counters.snapshots_taken == 0
        manifest = service.checkpoint()
        assert list_snapshots(root) == [manifest.name]
        assert service.metrics.counters.snapshots_taken == 1


def test_checkpoint_keep_override_prunes_the_policy_path(tmp_path):
    """``checkpoint(keep=...)`` overrides the policy's retention for that
    call only; the next plain checkpoint rotates at the policy's ``keep``."""
    dataset = generate_yago(target_triples=1200, seed=3)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "kept"
    with QueryService(dual, ServiceConfig(snapshot=SnapshotPolicy(path=root, keep=3))) as service:
        names = []
        for _ in range(4):
            service.insert([])
            names.append(service.checkpoint().name)
        assert list_snapshots(root) == names[-3:]
        service.insert([])
        names.append(service.checkpoint(keep=1).name)
        assert list_snapshots(root) == names[-1:]
        for _ in range(3):
            service.insert([])
            names.append(service.checkpoint().name)
        assert list_snapshots(root) == names[-3:]
    assert read_manifest(root).name == names[-1]


def test_checkpoint_payload_omits_the_retired_trigger_keys(tmp_path):
    """A checkpoint writes the adaptive window and metrics without the
    auto-epoch ``pending`` count and the background ``epoch_failures``."""
    dataset = generate_watdiv(target_triples=2000, seed=7)
    batch = watdiv_workload(dataset, family="star", seed=19).ordered()
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    config = ServiceConfig(adaptive=AdaptiveConfig(tuner_factory=lambda d: Dotil(d, TUNER_CONFIG)))
    root = tmp_path / "fresh"
    with QueryService(dual, config) as service:
        service.run_batch(batch)
        service.tune_now()
        service.run_batch(batch[:3])
        service.checkpoint(path=root)
        live_window = service.adaptive.window.snapshot_state()
    adaptive = load_snapshot(root).extras["adaptive"]
    assert set(adaptive["window"]) == {"capacity", "harvested", "entries"}
    assert adaptive["window"]["entries"] == json.loads(json.dumps(live_window["entries"]))
    assert "epoch_failures" not in adaptive["metrics"]
    assert adaptive["metrics"]["epochs"] == 1.0


def test_checkpoint_without_policy_or_path_is_an_error(tmp_path):
    dataset = generate_yago(target_triples=1200, seed=3)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    with QueryService(dual) as service:
        with pytest.raises(RuntimeError, match="no snapshot path"):
            service.checkpoint()
        service.checkpoint(path=tmp_path / "explicit")  # explicit path works
        assert service.metrics.counters.snapshots_taken == 1


# --------------------------------------------------------------------------- #
# Crash consistency: kill the writer at every step
# --------------------------------------------------------------------------- #
@pytest.fixture()
def crashable_store(tmp_path):
    dataset = generate_yago(target_triples=1500, seed=3)
    queries = yago_workload(dataset, seed=5).ordered()[:6]
    dual = _tuned_dual(dataset.triples, queries)
    return dual, queries, tmp_path / "crash"


def _count_calls_until(monkeypatch, target_name, fail_after):
    """Make ``snapshot_module.<target_name>`` raise once ``fail_after`` calls
    have succeeded; returns the call counter (a one-element list)."""
    original = getattr(snapshot_module, target_name)
    calls = [0]

    def wrapper(*args, **kwargs):
        if calls[0] >= fail_after:
            raise OSError("injected crash: disk vanished")
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(snapshot_module, target_name, wrapper)
    return calls


#: One injection point per durable step: each data file write, the manifest
#: write, and the CURRENT flip (6 file writes: 4 data + manifest + pointer).
@pytest.mark.parametrize("fail_after_writes", [0, 1, 2, 3, 4, 5])
def test_crash_mid_write_preserves_previous_snapshot(
    crashable_store, monkeypatch, fail_after_writes
):
    """Property: whatever write the crash lands on, the committed snapshot
    stays the previous complete one — same generation, fully loadable."""
    dual, queries, root = crashable_store
    first = dual.snapshot(root)
    live = [dual.run_query(q) for q in queries]

    dual.insert([])  # bump the generation so the second snapshot differs
    _count_calls_until(monkeypatch, "_write_file", fail_after_writes)
    with pytest.raises(OSError, match="injected crash"):
        dual.snapshot(root)
    monkeypatch.undo()

    manifest = read_manifest(root)
    assert manifest.name == first.name
    assert manifest.generation == first.generation
    restored = DualStore.restore(root)
    assert restored.generation == first.generation
    for index, query in enumerate(queries):
        assert_identical(live[index].result, restored.run_query(query).result, f"crash[{index}]")
    # The aborted attempt left no committed snapshot directory behind.
    assert list_snapshots(root) == [first.name]


def test_crash_at_the_commit_point_preserves_previous_snapshot(crashable_store, monkeypatch):
    dual, queries, root = crashable_store
    first = dual.snapshot(root)
    dual.insert([])

    def failing_publish(*args, **kwargs):
        raise OSError("injected crash at commit")

    monkeypatch.setattr(snapshot_module, "_publish_current", failing_publish)
    with pytest.raises(OSError, match="injected crash at commit"):
        dual.snapshot(root)
    monkeypatch.undo()
    assert read_manifest(root).name == first.name
    assert DualStore.restore(root).generation == first.generation


def test_crash_before_any_commit_fails_loudly_not_half_loaded(crashable_store, monkeypatch):
    dual, _queries, root = crashable_store
    monkeypatch.setattr(
        snapshot_module,
        "_publish_current",
        lambda *a, **k: (_ for _ in ()).throw(OSError("injected crash at commit")),
    )
    with pytest.raises(OSError):
        dual.snapshot(root)
    monkeypatch.undo()
    with pytest.raises(SnapshotError, match="no committed snapshot"):
        DualStore.restore(root)


def test_corrupted_data_file_raises_integrity_error(crashable_store):
    dual, _queries, root = crashable_store
    manifest = dual.snapshot(root)
    target = root / manifest.name / "relational.json"
    payload = json.loads(target.read_text())
    payload["rows"] = payload["rows"][:-3]  # silently drop one row
    target.write_text(json.dumps(payload, separators=(",", ":")))
    with pytest.raises(SnapshotIntegrityError, match="corrupt"):
        DualStore.restore(root)


def test_unsupported_format_version_raises_integrity_error(crashable_store):
    dual, _queries, root = crashable_store
    manifest = dual.snapshot(root)
    target = root / manifest.name / "MANIFEST.json"
    payload = json.loads(target.read_text())
    payload["format_version"] = FORMAT_VERSION + 1
    target.write_text(json.dumps(payload))
    with pytest.raises(SnapshotIntegrityError, match="not supported"):
        DualStore.restore(root)


def test_missing_root_raises_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError, match="no snapshot root"):
        load_snapshot(tmp_path / "never-written")


def test_retention_prunes_old_snapshots_but_keeps_current(crashable_store):
    dual, _queries, root = crashable_store
    names = []
    for _ in range(4):
        dual.insert([])
        names.append(dual.snapshot(root, keep=2).name)
    remaining = list_snapshots(root)
    assert len(remaining) == 2
    assert names[-1] in remaining
    assert read_manifest(root).name == names[-1]
    DualStore.restore(root)  # the retained pair stays loadable


# --------------------------------------------------------------------------- #
# Review regressions
# --------------------------------------------------------------------------- #
def test_graph_replica_lagging_the_master_copy_restores_verbatim(tmp_path):
    """A resident graph partition is the partition *as transferred*; inserts
    land in the relational master only.  The snapshot must carry the replica
    itself — refeeding it from the restored master would silently grow it,
    change graph-routed answers, and break the budget accounting."""
    from repro import IRI, Triple

    dataset = generate_yago(target_triples=1500, seed=3)
    queries = yago_workload(dataset, seed=5).ordered()[:6]
    dual = _tuned_dual(dataset.triples, queries)
    resident = sorted(dual.graph.loaded_predicates, key=lambda p: p.value)
    assert resident, "need at least one transferred partition"
    predicate = resident[0]
    replica_size = dual.graph.partition_size(predicate)

    # Grow the master partition after the transfer: the replica must lag.
    fresh = [
        Triple(IRI(f"http://example.org/late/{i}"), predicate, IRI(f"http://example.org/o/{i}"))
        for i in range(7)
    ]
    dual.insert(fresh)
    assert dual.relational.partition_size(predicate) == replica_size + 7
    assert dual.graph.partition_size(predicate) == replica_size

    live = [dual.run_query(q) for q in queries]
    root = tmp_path / "lagging"
    dual.snapshot(root)
    restored = DualStore.restore(root)

    assert restored.graph.partition_size(predicate) == replica_size
    assert restored.graph.partition_sizes() == dual.graph.partition_sizes()
    assert restored.graph.used_capacity() == dual.graph.used_capacity()
    for index, query in enumerate(queries):
        warm = restored.run_query(query)
        assert warm.record.route == live[index].record.route, f"lagging[{index}]"
        assert_identical(live[index].result, warm.result, f"lagging[{index}]")


@pytest.mark.parametrize("shards", (None, 4))
def test_graph_replica_lagging_after_an_insert_and_a_delete_restores_verbatim(shards, tmp_path):
    """The replica's id columns are written as they are and restored straight
    into blocks: after the master copy gained and lost rows of a resident
    partition, the restored store answers graph-routed queries with the
    live store's rows, order, work and seconds."""
    from repro import IRI, Triple

    dataset = generate_yago(target_triples=1500, seed=3)
    queries = yago_workload(dataset, seed=5).ordered()[:6]
    dual = _tuned_dual(dataset.triples, queries, shards=shards, sharding=AGGRESSIVE)
    predicate = sorted(dual.graph.loaded_predicates, key=lambda p: p.value)[0]
    replica = dual.graph.partition_block(predicate)
    doomed = dual.relational.partition(predicate)[:5]
    dual.insert([Triple(IRI(f"http://example.org/late/{i}"), predicate, doomed[i].object) for i in range(3)])
    assert dual.delete(doomed) == 5
    assert dual.relational.partition_size(predicate) == replica.count - 2
    assert dual.graph.partition_block(predicate) is replica

    p = f"<{predicate.value}>"
    queries += [
        parse_query(f"SELECT ?a ?c WHERE {{ ?a {p} ?b . ?c {p} ?b . ?a {p} ?d . ?c {p} ?d . }} LIMIT 90"),
        parse_query(f"SELECT ?a ?b WHERE {{ ?a {p} ?b . ?b {p} ?a . }}"),
    ]
    live = [dual.run_query(q) for q in queries]
    root = tmp_path / "lagging-writes"
    dual.snapshot(root)
    restored = DualStore.restore(root)

    block = restored.graph.partition_block(predicate)
    assert block.subjects.tolist() == replica.subjects.tolist()
    assert block.objects.tolist() == replica.objects.tolist()
    assert restored.graph.partition_sizes() == dual.graph.partition_sizes()
    assert live[-2].route == live[-1].route == "graph"
    assert len(live[-2].result) > 20
    for index, query in enumerate(queries):
        warm = restored.run_query(query)
        assert warm.record.route == live[index].record.route, f"lagging[{index}]"
        assert_identical(live[index].result, warm.result, f"lagging[{index}]")
        assert warm.record.seconds == live[index].record.seconds


def test_writer_thread_reacquiring_write_raises_not_deadlocks():
    """Symmetric with the read-side re-entrancy fix: a tuner epoch callback
    that *mutates* through the service (insert/transfer/checkpoint) must get
    a TuningError, not a silent deadlock."""
    from repro.errors import TuningError
    from repro.serve.adaptive import ReadWriteLock

    lock = ReadWriteLock()
    with lock.write_locked():
        with pytest.raises(TuningError, match="re-entrant write acquisition"):
            lock.acquire_write()
    with lock.write_locked():  # released cleanly
        pass


def test_stale_tmp_artifacts_are_swept_on_the_next_write(crashable_store):
    """A hard crash can leak `.tmp-*` dirs and `CURRENT.tmp-*` pointer files
    that retention never matches; the next writer sweeps them."""
    dual, _queries, root = crashable_store
    dual.snapshot(root)
    orphan_dir = root / ".tmp-deadbeef"
    orphan_dir.mkdir()
    (orphan_dir / "relational.json").write_text("{}")
    orphan_pointer = root / "CURRENT.tmp-deadbeef"
    orphan_pointer.write_text("snapshot-99999999-g0\n")
    dual.insert([])
    dual.snapshot(root)
    assert not orphan_dir.exists()
    assert not orphan_pointer.exists()
    DualStore.restore(root)


def test_checkpoint_counts_and_propagates_a_commit_failure(tmp_path, monkeypatch):
    """A failed commit (full/unwritable disk) is counted in
    snapshot_failures and raised to the checkpoint() caller; mutations keep
    working, and once the disk recovers the next checkpoint commits."""
    dataset = generate_yago(target_triples=1200, seed=3)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "fragile"
    config = ServiceConfig(snapshot=SnapshotPolicy(path=root))
    with QueryService(dual, config) as service:

        def failing_commit(*args, **kwargs):
            raise OSError("injected: disk full")

        monkeypatch.setattr("repro.serve.service.commit_snapshot", failing_commit)
        with pytest.raises(OSError, match="disk full"):
            service.checkpoint()
        assert service.metrics.counters.snapshot_failures == 1
        assert service.metrics.counters.snapshots_taken == 0
        generation_before = dual.generation
        assert service.insert([]) >= 0.0
        assert dual.generation == generation_before + 1
        monkeypatch.undo()
        service.checkpoint()
        assert service.metrics.counters.snapshots_taken == 1
        assert read_manifest(root).generation == dual.generation


def test_snapshot_io_runs_outside_the_writer_gate(tmp_path, monkeypatch):
    """The consistent cut is captured under the writer gate; the disk write
    must happen after the gate is released so serving is not stalled for
    the fsync window."""
    from repro.persist import commit_snapshot as real_commit

    dataset = generate_yago(target_triples=1200, seed=3)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "gated"
    config = ServiceConfig(
        adaptive=AdaptiveConfig(tuner_factory=lambda d: Dotil(d, TUNER_CONFIG)),
        snapshot=SnapshotPolicy(path=root),
    )
    with QueryService(dual, config) as service:
        gate_states = []

        def observing_commit(captured, path, keep=2):
            gate_states.append(service._gate._writer)
            return real_commit(captured, path, keep=keep)

        monkeypatch.setattr("repro.serve.service.commit_snapshot", observing_commit)
        service.insert([])
        service.checkpoint()  # after a mutation
        service.run_batch(
            yago_workload(dataset, seed=5).ordered()[:4]
        )
        service.tune_now()
        service.checkpoint()  # after an epoch
        service.checkpoint()  # with nothing in between
        assert len(gate_states) == 3, "a checkpoint's commit was not observed"
        assert not any(gate_states), "a snapshot commit ran while the writer gate was held"


def test_stale_capture_cannot_roll_back_a_newer_commit(crashable_store):
    """Two captures can race to the commit: if the younger one lands first,
    committing the older one afterwards must be a no-op — flipping CURRENT
    back would silently lose the newer mutations on restore."""
    from repro.persist import capture_snapshot, commit_snapshot

    dual, _queries, root = crashable_store
    stale = capture_snapshot(dual)  # captured at generation g
    dual.insert([])  # generation g+1
    newer = commit_snapshot(capture_snapshot(dual), root)
    assert newer.generation == dual.generation

    outcome = commit_snapshot(stale, root)  # the older capture commits last
    assert outcome.name == newer.name, "the stale capture must not be committed"
    assert read_manifest(root).generation == dual.generation
    assert list_snapshots(root) == [newer.name]
    assert DualStore.restore(root).generation == dual.generation


def test_checkpoint_of_an_unsnapshottable_backend_raises(tmp_path):
    """A capture that cannot run (unsupported backend — here a store with
    materialized views) fails checkpoint() loudly; the service's mutations
    are unaffected."""
    from repro.relstore import RelationalStore

    dataset = generate_yago(target_triples=1200, seed=3)
    backend = RelationalStore(view_row_budget=64)  # snapshotting unsupported
    dual = DualStore(TUNER_CONFIG, relational_store=backend).load(dataset.triples)
    config = ServiceConfig(snapshot=SnapshotPolicy(path=tmp_path / "views"))
    with QueryService(dual, config) as service:
        assert service.insert([]) >= 0.0
        with pytest.raises(SnapshotError, match="materialized views"):
            service.checkpoint()


def test_sweep_handles_nested_tmp_directories(crashable_store):
    """Cleanup must be recursive: a leftover temp dir (or pruned snapshot)
    containing a subdirectory used to crash the sweep with IsADirectoryError
    — after the commit point, turning a successful snapshot into an error."""
    dual, _queries, root = crashable_store
    dual.snapshot(root)
    nested = root / ".tmp-deadbeef" / "sub" / "deeper"
    nested.mkdir(parents=True)
    (nested / "file.json").write_text("{}")
    dual.insert([])
    dual.snapshot(root)  # sweeps the nested orphan without raising
    assert not (root / ".tmp-deadbeef").exists()


def test_uncommitted_snapshot_dir_does_not_eat_a_retention_slot(crashable_store):
    """A hard kill between the directory rename and the CURRENT flip leaves
    an orphaned snapshot-* directory; it must be swept before the next
    commit, not counted by retention in place of a real snapshot."""
    import shutil as shutil_module

    dual, _queries, root = crashable_store
    first = dual.snapshot(root, keep=2)
    dual.insert([])
    second = dual.snapshot(root, keep=2)
    # Fake the crash artifact: a renamed-but-never-committed directory with
    # the next sequence number.
    orphan = root / "snapshot-00000099-g999"
    shutil_module.copytree(root / second.name, orphan)

    dual.insert([])
    third = dual.snapshot(root, keep=2)
    names = list_snapshots(root)
    assert orphan.name not in names, "the uncommitted orphan survived the sweep"
    assert third.name in names
    assert second.name in names, "retention dropped a committed snapshot for the orphan"
    assert first.name not in names  # normal keep=2 rotation
    assert read_manifest(root).name == third.name


def test_stale_capture_skip_is_not_counted_as_a_snapshot(tmp_path):
    """A stale capture that commit_snapshot refuses to write must not bump
    snapshots_taken — the counter reports durable checkpoints committed."""
    from repro.persist import capture_snapshot

    dataset = generate_yago(target_triples=1200, seed=3)
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "stale-count"
    config = ServiceConfig(snapshot=SnapshotPolicy(path=root))
    with QueryService(dual, config) as service:
        stale = capture_snapshot(dual)
        service.insert([])
        service.checkpoint()  # commits the newer generation
        assert service.metrics.counters.snapshots_taken == 1
        # Force-commit the stale capture through the service's commit path.
        manifest = service._commit_captured(stale, root, 2)
        assert manifest.generation == dual.generation  # the newer one came back
        assert service.metrics.counters.snapshots_taken == 1, "stale skip was counted"
