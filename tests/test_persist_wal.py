"""Crash-consistency and replication tests for the write-ahead delta log.

The contract under test (``docs/architecture.md`` §9):

* ``snapshot + replay(tail)`` restores **byte-identically** — same bindings,
  same order, bit-identical work counters — for every template family;
* a crash at *any* log-write or rotation step leaves a log whose replay
  either reaches the pre-crash generation or stops cleanly at the last
  complete record (never a half-applied store, never an exception at serve
  time);
* followers tail the committed log (:class:`~repro.persist.WalTailer`) and
  fall back to a full restore exactly when the log rotated past them
  (:class:`~repro.errors.WalGapError`).
"""

import random
import time

import pytest

from repro import (
    DotilConfig,
    DualStore,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
    generate_watdiv,
    generate_yago,
    load_snapshot,
    watdiv_workload,
    yago_workload,
)
from repro.errors import SnapshotError, WalError, WalGapError, WalReplayError
from repro.persist import wal as wal_module
from repro.persist import watch as watch_module
from repro.persist.snapshot import read_manifest
from repro.persist.wal import (
    DeltaLog,
    WalTailer,
    apply_record,
    collect_tail,
    list_segments,
    read_segment,
    restore_with_log,
    triple_from_payload,
    triple_to_payload,
)
from repro.persist.watch import SnapshotWatcher
from repro.relstore.sharded import ShardingConfig

TUNER_CONFIG = DotilConfig(r_bg=0.2, prob=1.0, gamma=0.7, lam=4.5)

AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)


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
# Workloads: every watdiv template family plus a second dataset, with a pool
# of genuinely-new triples to mutate with after the anchor snapshot.
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def family_cases():
    rng = random.Random(41)
    watdiv = generate_watdiv(target_triples=1600, seed=23)
    watdiv_fresh = _fresh_triples(watdiv.triples, generate_watdiv(target_triples=2000, seed=23))
    cases = []
    for family in ("linear", "star", "snowflake", "complex"):
        workload = watdiv_workload(watdiv, family=family, seed=rng.randrange(10_000))
        cases.append(
            (
                f"watdiv-{family}",
                watdiv.triples,
                workload.randomized(seed=rng.randrange(10_000)),
                watdiv_fresh,
            )
        )
    yago = generate_yago(target_triples=1400, seed=11)
    yago_fresh = _fresh_triples(yago.triples, generate_yago(target_triples=1800, seed=11))
    cases.append(("yago-complex", yago.triples, yago_workload(yago, seed=5).randomized(), yago_fresh))
    return cases


def _fresh_triples(base, bigger):
    seen = set(base)
    fresh = [t for t in bigger.triples if t not in seen]
    assert len(fresh) >= 60, "fixture needs new triples to insert after the anchor"
    return fresh


def _tuned_dual(triples, queries, **dual_kwargs) -> DualStore:
    """A loaded dual store with some partitions transferred (non-trivial
    placement, non-zero generation — the state worth logging against)."""
    dual = DualStore(TUNER_CONFIG, **dual_kwargs).load(triples)
    transferable = sorted({p for q in queries for p in q.predicates()}, key=lambda p: p.value)
    for predicate in transferable:
        size = dual.relational.partition_size(predicate)
        if size and dual.graph.fits(size):
            dual.transfer_partition(predicate)
    return dual


def _mutate_every_op_kind(service, triples, fresh):
    """Drive one of each op kind through the service's delta log: insert,
    delete (present and absent triples), transfer, evict."""
    service.insert(fresh[:40])
    service.delete(list(triples)[:8] + fresh[:4])
    dual = service.dual
    resident = sorted(dual.design.in_graph_store, key=lambda p: p.value)
    if resident:
        dual.evict_partition(resident[0])
        for candidate in resident:
            size = dual.relational.partition_size(candidate)
            if size and dual.graph.fits(size):
                dual.transfer_partition(candidate)
                break
    service.insert(fresh[40:60])


# --------------------------------------------------------------------------- #
# The restore invariant: snapshot + replay(tail) = byte-identical restore
# --------------------------------------------------------------------------- #
def test_snapshot_plus_replay_is_byte_identical_for_every_family(family_cases, tmp_path):
    for label, triples, queries, fresh in family_cases:
        root = tmp_path / label
        dual = _tuned_dual(triples, queries)
        policy = SnapshotPolicy(path=root, log=True, keep=2)
        with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
            base = read_manifest(root)
            _mutate_every_op_kind(service, triples, fresh)
            assert service.metrics.counters.wal_failures == 0, service.last_wal_error
            assert service.metrics.counters.wal_records >= 4
            live = [dual.run_query(q) for q in queries]

            restored = restore_with_log(root)
            warm = restored.dual
            # The manifest stays the base snapshot's; the store is ahead of it.
            assert restored.manifest.generation == base.generation
            assert warm.generation == dual.generation
            assert warm.design.in_graph_store == dual.design.in_graph_store
            assert warm.design.partition_sizes == dual.design.partition_sizes
            assert warm.transfer_log == dual.transfer_log
            assert_same_statistics(warm.relational.statistics(), dual.relational.statistics())
            for index, query in enumerate(queries):
                replayed = warm.run_query(query)
                assert replayed.record.route == live[index].record.route, f"{label}[{index}]"
                assert_identical(live[index].result, replayed.result, f"{label}[{index}]")


def test_sharded_replay_preserves_placement_and_answers(family_cases, tmp_path):
    label, triples, queries, fresh = family_cases[1]  # watdiv-star
    root = tmp_path / "sharded"
    dual = _tuned_dual(triples, queries, shards=4, sharding=AGGRESSIVE)
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
        _mutate_every_op_kind(service, triples, fresh)
        assert service.metrics.counters.wal_failures == 0, service.last_wal_error
        live = [dual.run_query(q) for q in queries]

        warm = restore_with_log(root).dual
        assert warm.generation == dual.generation
        assert warm.relational.shard_count == dual.relational.shard_count
        assert warm.relational._placement == dual.relational._placement
        assert warm.relational.shard_row_counts() == dual.relational.shard_row_counts()
        for index, query in enumerate(queries):
            replayed = warm.run_query(query)
            assert replayed.record.route == live[index].record.route, f"{label}[{index}]"
            assert_identical(live[index].result, replayed.result, f"{label}[{index}]")


def test_log_mode_restore_resumes_appending(family_cases, tmp_path):
    """Warm restart: a service restored from snapshot+tail recovers the open
    segment (truncating nothing when the tail is clean) and keeps appending
    where the crashed leader left off."""
    _label, triples, queries, fresh = family_cases[0]
    root = tmp_path / "resume"
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    dual = _tuned_dual(triples, queries)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
        service.insert(fresh[:20])
        service.delete(fresh[:5])
        head = dual.generation

    with QueryService.restore(root, config=ServiceConfig(snapshot=policy)) as reborn:
        assert reborn.dual.generation == head
        assert reborn.delta_log is not None and reborn.delta_log.is_open
        reborn.insert(fresh[20:40])
        assert reborn.metrics.counters.wal_failures == 0, reborn.last_wal_error
        final = reborn.dual.generation
        live = [reborn.dual.run_query(q) for q in queries[:6]]

    warm = restore_with_log(root).dual
    assert warm.generation == final
    for index, query in enumerate(queries[:6]):
        assert_identical(live[index].result, warm.run_query(query).result, f"resume[{index}]")


def test_log_mode_restore_reports_the_snapshot_it_anchored(tmp_path):
    """Restoring a root that has no delta log with ``log=True`` anchors a
    fresh snapshot; ``last_snapshot`` names that one, not the older snapshot
    the restore read.  A restore that resumes an existing log commits
    nothing and reports the snapshot it read."""
    dataset = generate_yago(target_triples=1200, seed=3)
    root = tmp_path / "unlogged"
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    with QueryService(dual, ServiceConfig(snapshot=SnapshotPolicy(path=root))) as service:
        written = service.checkpoint()

    logged = ServiceConfig(snapshot=SnapshotPolicy(path=root, log=True))
    with QueryService.restore(root, logged) as reborn:
        anchored = read_manifest(root)
        assert anchored.name != written.name
        assert reborn.metrics.counters.snapshots_taken == 1
        assert reborn.last_snapshot.name == anchored.name

    with QueryService.restore(root, logged) as resumed:
        assert resumed.metrics.counters.snapshots_taken == 0
        assert resumed.last_snapshot.name == anchored.name


def test_only_a_checkpoint_on_the_policy_path_rotates_the_log(tmp_path):
    dataset = generate_yago(target_triples=1200, seed=3)
    root = tmp_path / "policy"
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    config = ServiceConfig(snapshot=SnapshotPolicy(path=root, log=True, keep=3))
    with QueryService(dual, config) as service:
        anchored = [segment.name for segment in list_segments(root)]
        assert len(anchored) == 1
        service.insert([])
        service.checkpoint(path=tmp_path / "side")
        assert [segment.name for segment in list_segments(root)] == anchored
        service.checkpoint()
        segments = list_segments(root)
        assert [segment.name for segment in segments[:-1]] == anchored
        assert segments[-1].base_generation == dual.generation


# --------------------------------------------------------------------------- #
# Frames and segments
# --------------------------------------------------------------------------- #
def test_triple_payload_round_trips_every_term_kind(family_cases):
    _label, triples, _queries, _fresh = family_cases[0]
    for triple in list(triples)[:200]:
        assert triple_from_payload(triple_to_payload(triple)) == triple


def _scripted_segment(root, records=3):
    """A closed segment with ``records`` mutation records; returns the log."""
    log = DeltaLog(root, keep_segments=4)
    log.rotate(base_generation=1, snapshot_name="snap-1")
    for offset in range(records):
        log.append([{"op": "transfer", "p": f"urn:p{offset}"}], generation=2 + offset)
    return log


def test_torn_tail_stops_cleanly_at_every_byte_boundary(tmp_path):
    """Truncating the segment at *any* byte yields a clean prefix of complete
    records — the crash model the append path (write+flush+fsync of one
    frame) guarantees."""
    log = _scripted_segment(tmp_path)
    log.close()
    segment = list_segments(tmp_path)[-1]
    data = segment.path.read_bytes()
    complete = read_segment(segment).records
    header_end = len(data) - sum(r.nbytes for r in complete)
    record_ends = []
    offset = header_end
    for record in complete:
        offset += record.nbytes
        record_ends.append(offset)
    frame_boundaries = {0, header_end, *record_ends}
    for cut in range(len(data) + 1):
        segment.path.write_bytes(data[:cut])
        scan = read_segment(segment)
        expected = sum(1 for end in record_ends if end <= cut)
        assert len(scan.records) == expected, f"cut at byte {cut}"
        assert scan.clean == (cut in frame_boundaries), f"cut at byte {cut}"
        assert scan.valid_bytes == max(
            (b for b in frame_boundaries if b <= cut), default=0
        ), f"cut at byte {cut}"


def test_corrupt_body_byte_stops_the_scan(tmp_path):
    log = _scripted_segment(tmp_path)
    log.close()
    segment = list_segments(tmp_path)[-1]
    data = bytearray(segment.path.read_bytes())
    data[-3] ^= 0xFF  # flip a byte inside the last record's body
    segment.path.write_bytes(bytes(data))
    scan = read_segment(segment)
    assert not scan.clean
    assert len(scan.records) == 2  # the corrupt record and nothing after it are dropped


def test_mismatched_header_raises_walerror(tmp_path):
    log = _scripted_segment(tmp_path)
    log.close()
    segment = list_segments(tmp_path)[-1]
    # Rename to claim a different base generation than the header carries.
    renamed = segment.path.with_name("wal-00000009-g7.log")
    segment.path.rename(renamed)
    with pytest.raises(WalError):
        read_segment(list_segments(tmp_path)[-1])


def test_vanished_segment_is_a_gap_not_a_crash(tmp_path):
    log = _scripted_segment(tmp_path)
    log.close()
    segment = list_segments(tmp_path)[-1]
    tailer = WalTailer(tmp_path, generation=1)
    assert [r.generation for r in tailer.poll()] == [2, 3, 4]
    segment.path.write_bytes(b"")  # shrank below the tailer's cursor
    with pytest.raises(WalGapError):
        tailer.poll()


# --------------------------------------------------------------------------- #
# DeltaLog writer discipline
# --------------------------------------------------------------------------- #
def test_append_without_a_segment_raises(tmp_path):
    log = DeltaLog(tmp_path)
    with pytest.raises(WalError):
        log.append([{"op": "transfer", "p": "urn:p"}], generation=2)


def test_non_contiguous_append_closes_the_log(tmp_path):
    log = _scripted_segment(tmp_path)
    with pytest.raises(WalError):
        log.append([{"op": "transfer", "p": "urn:p"}], generation=9)  # head is 4
    assert not log.is_open
    # The records before the refused append are still replayable.
    assert [r.generation for r in collect_tail(tmp_path, after_generation=1)] == [2, 3, 4]


def test_stale_rotation_is_a_no_op(tmp_path):
    log = _scripted_segment(tmp_path)
    current = log.segment_name
    log.rotate(base_generation=0, snapshot_name="older")  # must not roll back
    assert log.segment_name == current
    assert log.head_generation == 4


def test_rotation_prunes_to_the_retention_window(tmp_path):
    log = DeltaLog(tmp_path, keep_segments=2)
    for base in (1, 5, 9, 13):
        log.rotate(base_generation=base, snapshot_name=f"snap-{base}")
    names = [segment.name for segment in list_segments(tmp_path)]
    assert len(names) == 2
    assert names[-1] == log.segment_name
    assert [segment.base_generation for segment in list_segments(tmp_path)] == [9, 13]


def test_records_after_a_rotation_point_may_live_in_the_older_segment(tmp_path):
    """The leader appends between snapshot capture and rotation, so the tail
    for generation g can straddle the segment anchored *before* g."""
    log = DeltaLog(tmp_path, keep_segments=4)
    log.rotate(base_generation=1, snapshot_name="snap-1")
    log.append([{"op": "transfer", "p": "urn:a"}], generation=2)
    # A snapshot captured at generation 2 commits while generation 3 lands:
    log.append([{"op": "transfer", "p": "urn:b"}], generation=3)
    log.rotate(base_generation=2, snapshot_name="snap-2")
    log.append([{"op": "transfer", "p": "urn:c"}], generation=4)
    assert [r.generation for r in collect_tail(tmp_path, after_generation=2)] == [3, 4]
    tailer = WalTailer(tmp_path, generation=2)
    assert [r.generation for r in tailer.poll()] == [3, 4]


def test_collect_tail_raises_gap_when_rotated_past_the_caller(tmp_path):
    log = DeltaLog(tmp_path, keep_segments=1)
    log.rotate(base_generation=1, snapshot_name="snap-1")
    log.append([{"op": "transfer", "p": "urn:a"}], generation=2)
    log.rotate(base_generation=5, snapshot_name="snap-5")  # prunes the g1 segment
    log.append([{"op": "transfer", "p": "urn:b"}], generation=6)
    with pytest.raises(WalGapError):
        collect_tail(tmp_path, after_generation=2)
    with pytest.raises(WalGapError):
        WalTailer(tmp_path, generation=2).poll()
    # A follower already at the new base reads on fine.
    assert [r.generation for r in collect_tail(tmp_path, after_generation=5)] == [6]


def test_recover_truncates_a_torn_tail_and_resumes(tmp_path):
    log = _scripted_segment(tmp_path)
    log.close()
    segment = list_segments(tmp_path)[-1]
    with open(segment.path, "ab") as handle:
        handle.write(b"WAL1\x99")  # torn frame: magic plus half a header
    reopened = DeltaLog(tmp_path, keep_segments=4)
    assert reopened.recover(head_generation=4)
    assert reopened.is_open and reopened.head_generation == 4
    reopened.append([{"op": "transfer", "p": "urn:next"}], generation=5)
    scan = read_segment(list_segments(tmp_path)[-1])
    assert scan.clean
    assert [r.generation for r in scan.records] == [2, 3, 4, 5]


def test_recover_refuses_a_mismatched_head(tmp_path):
    log = _scripted_segment(tmp_path)
    log.close()
    reopened = DeltaLog(tmp_path, keep_segments=4)
    assert not reopened.recover(head_generation=7)  # log ends at 4
    assert not reopened.is_open


def test_recover_failure_on_truncation_leaves_the_log_closed(tmp_path, monkeypatch):
    log = _scripted_segment(tmp_path)
    log.close()
    segment = list_segments(tmp_path)[-1]
    with open(segment.path, "ab") as handle:
        handle.write(b"WAL1")  # torn tail forces the truncation step

    def explode(path, valid_bytes):
        raise OSError("injected: truncate failed")

    monkeypatch.setattr(wal_module, "_truncate_segment", explode)
    reopened = DeltaLog(tmp_path, keep_segments=4)
    assert not reopened.recover(head_generation=4)
    assert not reopened.is_open


def test_replay_refuses_empty_and_unknown_ops(tmp_path):
    from repro.persist.wal import WalRecord

    dual = DualStore(TUNER_CONFIG).load(generate_watdiv(target_triples=300, seed=3).triples)
    with pytest.raises(WalReplayError):
        apply_record(dual, WalRecord(generation=dual.generation + 1, ops=[], nbytes=0))
    with pytest.raises(WalReplayError):
        apply_record(
            dual,
            WalRecord(generation=dual.generation + 1, ops=[{"op": "mystery"}], nbytes=0),
        )


# --------------------------------------------------------------------------- #
# Crash injection at every append and rotation step
# --------------------------------------------------------------------------- #
class _CrashAt:
    """Fail the Nth durable write, optionally tearing partial bytes first."""

    def __init__(self, real, fail_at: int, torn_bytes: int = 0):
        self.real = real
        self.fail_at = fail_at
        self.torn = torn_bytes
        self.calls = 0

    def __call__(self, handle, frame):
        self.calls += 1
        if self.calls == self.fail_at:
            if self.torn:
                handle.write(frame[: self.torn])
                handle.flush()
            raise OSError(f"injected crash at durable write #{self.calls}")
        self.real(handle, frame)


@pytest.mark.parametrize("torn_bytes", (0, 3, 9, 20))
def test_crash_at_every_append_step_keeps_the_tail_replayable(tmp_path, monkeypatch, torn_bytes):
    """Whatever write the crash lands on — header or record, clean or torn —
    replay reaches exactly the last durable generation and the service keeps
    serving mutations (the log closes; it never poisons the write path)."""
    triples = generate_watdiv(target_triples=500, seed=7).triples
    fresh = _fresh_triples(triples, generate_watdiv(target_triples=700, seed=7))
    real_write = wal_module._write_frame

    # First count the durable writes of an uninjected run of the script.
    def script(service, pool):
        service.insert(pool[:6])
        service.delete(pool[:2])
        service.insert(pool[6:12])
        service.checkpoint()  # rotation: one header write
        service.insert(pool[12:18])

    probe_root = tmp_path / "probe"
    dual = DualStore(TUNER_CONFIG).load(triples)
    policy = SnapshotPolicy(path=probe_root, log=True, keep=2)
    counter = _CrashAt(real_write, fail_at=10**9)
    monkeypatch.setattr(wal_module, "_write_frame", counter)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
        script(service, fresh)
        assert service.metrics.counters.wal_failures == 0
    total_writes = counter.calls
    assert total_writes >= 6  # anchor header + 5 records + rotation header

    for fail_at in range(1, total_writes + 1):
        root = tmp_path / f"crash-{torn_bytes}-{fail_at}"
        dual = DualStore(TUNER_CONFIG).load(triples)
        policy = SnapshotPolicy(path=root, log=True, keep=2)
        crash = _CrashAt(real_write, fail_at=fail_at, torn_bytes=torn_bytes)
        monkeypatch.setattr(wal_module, "_write_frame", crash)
        with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
            script(service, fresh)  # must never raise out of a mutation
            live_generation = dual.generation
            failures = service.metrics.counters.wal_failures
        assert failures >= 1, f"write #{fail_at} should have failed"
        monkeypatch.setattr(wal_module, "_write_frame", real_write)
        restored = restore_with_log(root)
        assert restored.dual.generation <= live_generation
        # The durable tail is exactly what replay reached: replaying again is
        # stable (idempotent read path, no exception).
        again = restore_with_log(root)
        assert again.dual.generation == restored.dual.generation


def test_crash_during_rotation_re_anchors_on_the_next_checkpoint(tmp_path, monkeypatch):
    triples = generate_watdiv(target_triples=500, seed=7).triples
    fresh = _fresh_triples(triples, generate_watdiv(target_triples=700, seed=7))
    root = tmp_path / "rotate-crash"
    dual = DualStore(TUNER_CONFIG).load(triples)
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    real_write = wal_module._write_frame
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
        service.insert(fresh[:6])
        # Crash the next durable write — the rotation's header frame.
        crash = _CrashAt(real_write, fail_at=1, torn_bytes=5)
        monkeypatch.setattr(wal_module, "_write_frame", crash)
        service.checkpoint()
        assert service.metrics.counters.wal_failures == 1
        assert service.delta_log is not None and not service.delta_log.is_open
        monkeypatch.setattr(wal_module, "_write_frame", real_write)
        # Mutations while the log is closed stay durable via the snapshot path.
        service.insert(fresh[6:12])
        service.checkpoint()  # re-anchors: fresh segment at the new base
        assert service.delta_log.is_open
        service.insert(fresh[12:18])
        assert service.metrics.counters.wal_failures == 1  # no new failures
        head = dual.generation
    assert restore_with_log(root).dual.generation == head


def test_append_failure_never_raises_out_of_the_mutation(tmp_path, monkeypatch):
    triples = generate_watdiv(target_triples=400, seed=9).triples
    fresh = _fresh_triples(triples, generate_watdiv(target_triples=600, seed=9))
    root = tmp_path / "append-crash"
    dual = DualStore(TUNER_CONFIG).load(triples)
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
        def explode(handle, frame):
            raise OSError("injected: disk full")

        monkeypatch.setattr(wal_module, "_write_frame", explode)
        before = dual.generation
        service.insert(fresh[:10])  # the mutation itself must succeed
        assert dual.generation == before + 1
        assert service.metrics.counters.wal_failures == 1
        assert isinstance(service.last_wal_error, Exception)
        assert not service.delta_log.is_open


def test_unrepresentable_mutation_closes_the_log(tmp_path):
    """A generation bump with no op payload (e.g. a re-load) cannot be
    replayed; the service must stop logging rather than write a lying tail."""
    triples = generate_watdiv(target_triples=400, seed=9).triples
    root = tmp_path / "unrepresentable"
    dual = DualStore(TUNER_CONFIG).load(triples)
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as service:
        # A bare bump with no recorded ops is what a re-``load`` (or any
        # future op the vocabulary does not cover) produces.
        dual._bump_generation()
        assert service.metrics.counters.wal_failures == 1
        assert not service.delta_log.is_open
        head = dual.generation
        service.checkpoint()  # re-anchor captures the post-load state
        assert service.delta_log.is_open
    assert restore_with_log(root).dual.generation >= head


# --------------------------------------------------------------------------- #
# The follower tailer
# --------------------------------------------------------------------------- #
def test_tailer_sees_records_incrementally_and_skips_incomplete_tails(tmp_path):
    log = DeltaLog(tmp_path, keep_segments=4)
    log.rotate(base_generation=1, snapshot_name="snap-1")
    tailer = WalTailer(tmp_path, generation=1)
    assert tailer.poll() == []
    log.append([{"op": "transfer", "p": "urn:a"}], generation=2)
    assert [r.generation for r in tailer.poll()] == [2]
    # A torn in-flight frame is left for the next poll, not an error.
    segment = list_segments(tmp_path)[-1]
    with open(segment.path, "ab") as handle:
        handle.write(b"WAL1\x01")
        handle.flush()
    assert tailer.poll() == []
    assert tailer.generation == 2


def test_tailer_and_full_restore_agree_through_live_service_churn(tmp_path):
    """Apply the tailer's records to a follower copy while the leader keeps
    mutating and checkpointing; the follower must match a fresh
    ``restore_with_log`` at every step."""
    triples = generate_watdiv(target_triples=600, seed=31).triples
    queries = watdiv_workload(
        generate_watdiv(target_triples=600, seed=31), family="star", seed=4
    ).ordered()[:5]
    fresh = _fresh_triples(triples, generate_watdiv(target_triples=900, seed=31))
    root = tmp_path / "churn"
    dual = DualStore(TUNER_CONFIG).load(triples)
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as leader:
        follower = load_snapshot(root).dual
        tailer = WalTailer(root, follower.generation)
        chunks = [fresh[i : i + 8] for i in range(0, 48, 8)]
        for round_index, chunk in enumerate(chunks):
            leader.insert(chunk)
            if round_index == 2:
                leader.delete(chunk[:3])
            if round_index == 4:
                leader.checkpoint()  # rotation mid-tail
            for record in tailer.poll():
                apply_record(follower, record)
            assert follower.generation == dual.generation
        for index, query in enumerate(queries):
            assert_identical(
                dual.run_query(query).result,
                follower.run_query(query).result,
                f"follower[{index}]",
            )


# --------------------------------------------------------------------------- #
# Satellite regressions: watcher cursor, bulk ingest
# --------------------------------------------------------------------------- #
def test_watcher_cursor_survives_repeated_load_failures(tmp_path, monkeypatch):
    """``load_if_newer`` failing all its attempts must leave the generation
    *news*: the next call retries it instead of silently skipping it."""
    triples = generate_watdiv(target_triples=300, seed=3).triples
    dual = DualStore(TUNER_CONFIG).load(triples)
    dual.snapshot(tmp_path)
    watcher = SnapshotWatcher(tmp_path)

    attempts = {"n": 0}

    def failing_load(root, cost_model=None, throttle=None):
        attempts["n"] += 1
        raise SnapshotError("injected: lost the retention race")

    monkeypatch.setattr(watch_module, "load_snapshot", failing_load)
    with pytest.raises(SnapshotError):
        watcher.load_if_newer(attempts=3)
    assert attempts["n"] == 3
    monkeypatch.undo()
    restored = watcher.load_if_newer()
    assert restored is not None, "the failed generation was silently skipped"
    assert restored.dual.generation == dual.generation
    assert watcher.load_if_newer() is None  # now genuinely seen


def _restored_service_store(root, config=None) -> DualStore:
    with QueryService.restore(root, config) as service:
        return service.dual


RESTORE_ENTRY_POINTS = {
    "DualStore.restore": DualStore.restore,
    "QueryService.restore": _restored_service_store,
    "QueryService.restore-logless-config": lambda root: _restored_service_store(
        root, ServiceConfig()
    ),
}


@pytest.mark.parametrize("entry_point", sorted(RESTORE_ENTRY_POINTS))
def test_every_restore_replays_the_acknowledged_log_tail(tmp_path, entry_point):
    """A logged write is durable whatever the restoring caller's config
    says: every restore entry point replays the root's log tail on top of
    the snapshot, so it resumes at the leader's generation and rows."""
    dataset = generate_watdiv(target_triples=500, seed=17)
    queries = watdiv_workload(dataset, family="star", seed=2).ordered()[:5]
    fresh = _fresh_triples(dataset.triples, generate_watdiv(target_triples=800, seed=17))
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    root = tmp_path / "leader"
    with QueryService(dual, ServiceConfig(snapshot=SnapshotPolicy(path=root, log=True))) as service:
        service.insert(fresh[:10])
        assert dual.generation == read_manifest(root).generation + 1
        live = [dual.run_query(q) for q in queries]

    restored = RESTORE_ENTRY_POINTS[entry_point](root)
    assert restored.generation == dual.generation
    assert len(restored.relational) == len(dual.relational)
    for index, query in enumerate(queries):
        assert_identical(live[index].result, restored.run_query(query).result, f"{entry_point}[{index}]")


def test_ingest_stream_defers_statistics_and_matches_plain_inserts(tmp_path):
    triples = generate_watdiv(target_triples=500, seed=17).triples
    queries = watdiv_workload(
        generate_watdiv(target_triples=500, seed=17), family="linear", seed=2
    ).ordered()[:5]
    fresh = _fresh_triples(triples, generate_watdiv(target_triples=800, seed=17))

    plain = DualStore(TUNER_CONFIG).load(triples)
    for start in range(0, 60, 10):
        plain.insert(fresh[start : start + 10])

    streamed = DualStore(TUNER_CONFIG).load(triples)
    with QueryService(streamed, ServiceConfig()) as service:
        report = service.ingest_stream(iter(fresh[:60]), chunk_size=16)
    assert report.triples == 60
    assert report.chunks == 4  # 16+16+16+12
    assert report.modelled_seconds > 0.0
    assert_same_statistics(streamed.relational.statistics(), plain.relational.statistics())
    for index, query in enumerate(queries):
        assert_identical(
            plain.run_query(query).result,
            streamed.run_query(query).result,
            f"ingest[{index}]",
        )


# --------------------------------------------------------------------------- #
# Follower catch-up through the real worker process
# --------------------------------------------------------------------------- #
def test_worker_catches_up_via_deltas_without_full_reloads(tmp_path):
    """A live worker fleet tails the leader's delta log: mutations propagate
    record-by-record (zero snapshot reloads), responses stay byte-identical
    to the leader's and generation-stamped, and a later checkpoint (rotation)
    does not trigger a reload either."""
    from repro.endpoint.client import EndpointPool
    from repro.endpoint.worker import WorkerSupervisor

    wat = generate_watdiv(target_triples=700, seed=23)
    queries = watdiv_workload(wat, family="star", seed=5).ordered()[:5]
    fresh = _fresh_triples(wat.triples, generate_watdiv(target_triples=1000, seed=23))
    root = tmp_path / "root"
    dual = DualStore(TUNER_CONFIG).load(wat.triples)
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    with QueryService(dual, ServiceConfig(snapshot=policy)) as leader:
        with WorkerSupervisor(root, workers=2, poll_interval=0.05, run_dir=tmp_path / "run") as fleet:
            fleet.wait_ready(60)
            leader.insert(fresh[:20])
            leader.delete(fresh[:5])
            leader.insert(fresh[20:30])
            target = leader.dual.generation
            fleet.wait_generation(target, timeout=30)
            for index in range(2):
                info = fleet.announce(index)
                assert info["reloads"] == 0, f"worker {index} full-reloaded: {info}"
                stats = fleet.delta_stats(index)
                assert stats["records"] >= 3 and stats["bytes"] > 0, stats

            # Byte-identical serving: each worker's wire bytes equal the
            # leader's own answer rendered through the same encoder.
            from repro.endpoint.protocol import encode_results

            pool = EndpointPool(fleet.urls)
            for query in queries:
                expected = encode_results(leader.run_query(query).result)
                response = pool.query(query.to_sparql())
                assert response.status == 200, response.body
                assert response.generation == target
                assert response.body == expected

            # A checkpoint rotates the log; the fleet must stay put (the
            # deltas already covered that generation) — still no reloads.
            leader.checkpoint()
            time.sleep(0.5)  # several poll intervals
            for index in range(2):
                info = fleet.announce(index)
                assert info["reloads"] == 0, info
                assert info["generation"] == target


def test_delete_round_trips_through_snapshot_unsharded_and_sharded(tmp_path):
    triples = generate_watdiv(target_triples=500, seed=19).triples
    queries = watdiv_workload(
        generate_watdiv(target_triples=500, seed=19), family="star", seed=6
    ).ordered()[:5]
    for label, kwargs in (("flat", {}), ("sharded", {"shards": 4, "sharding": AGGRESSIVE})):
        dual = _tuned_dual(triples, queries, **kwargs)
        doomed = list(triples)[:12]
        removed = dual.delete(doomed + doomed[:3])  # repeats are absent by then
        assert removed == 12
        assert dual.delete(doomed) == 0  # deleting absent triples is a no-op
        root = tmp_path / f"delete-{label}"
        dual.snapshot(root)
        warm = DualStore.restore(root)
        assert len(warm.relational) == len(dual.relational)
        for index, query in enumerate(queries):
            assert_identical(
                dual.run_query(query).result,
                warm.run_query(query).result,
                f"delete-{label}[{index}]",
            )
