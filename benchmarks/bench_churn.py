"""Benchmark P2 — sustained churn: streaming ingest, live serving, and
delta-log follower catch-up vs full-snapshot reloads.

The write-ahead delta log (``repro.persist.wal``, ``docs/architecture.md``
§9) exists so that a mutating leader can keep followers current without
shipping the whole store per generation.  This benchmark drives a sustained
insert/delete stream through a gated leader *while a client thread serves
queries and tuning epochs run*, with two followers racing to stay current:

* **delta follower** — restores once, then tails the committed log with a
  :class:`~repro.persist.WalTailer` and applies each record in place;
* **reload follower** — the pre-log discipline: a
  :class:`~repro.persist.SnapshotWatcher` plus a full ``load_snapshot`` per
  published generation.

Pinned invariants:

1. both followers end **byte-identical** to the leader (bindings and
   bit-identical work counters at the final generation);
2. the delta follower's catch-up traffic is **strictly cheaper in bytes**
   than the reload follower's snapshot traffic;
3. the leader's ingest stream and concurrent serving both make progress
   (non-zero throughput, non-zero queries served mid-churn), and the delta
   follower's staleness stays bounded (it reaches the leader's generation
   every round).

Results land in ``BENCH_churn.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_churn.py -q -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_churn.py

Environment knobs: ``BENCH_CHURN_TRIPLES`` (base dataset size),
``BENCH_CHURN_ROUNDS`` (mutation rounds), ``BENCH_CHURN_BATCH`` (triples per
round), ``BENCH_CHURN_CHECKPOINT_EVERY`` (rounds between snapshot commits).
"""

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    AdaptiveConfig,
    Dotil,
    DotilConfig,
    DualStore,
    QueryService,
    ServiceConfig,
    SnapshotPolicy,
    generate_watdiv,
    watdiv_workload,
)
from repro.persist import SnapshotWatcher, WalTailer, apply_record, restore_with_log  # noqa: E402

TRIPLES = int(os.environ.get("BENCH_CHURN_TRIPLES", "4000"))
ROUNDS = int(os.environ.get("BENCH_CHURN_ROUNDS", "12"))
BATCH = int(os.environ.get("BENCH_CHURN_BATCH", "64"))
CHECKPOINT_EVERY = int(os.environ.get("BENCH_CHURN_CHECKPOINT_EVERY", "4"))
SEED = 7
WORKLOAD_SEED = 19
TUNER_CONFIG = DotilConfig(r_bg=0.2, prob=1.0, gamma=0.7, lam=4.5)
FAMILIES = ("linear", "star")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_churn.json"


def _snapshot_bytes(root: Path, name: str) -> int:
    """On-disk size of one committed snapshot directory."""
    total = 0
    for entry in (root / name).rglob("*"):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def _fresh_pool(base_triples, needed: int):
    seen = set(base_triples)
    bigger = generate_watdiv(target_triples=TRIPLES + 4 * needed, seed=SEED)
    pool = [t for t in bigger.triples if t not in seen]
    assert len(pool) >= needed, f"fresh pool too small ({len(pool)} < {needed})"
    return pool


def test_delta_catch_up_is_strictly_cheaper_than_full_reloads():
    dataset = generate_watdiv(target_triples=TRIPLES, seed=SEED)
    traffic = []
    for family in FAMILIES:
        traffic.extend(watdiv_workload(dataset, family=family, seed=WORKLOAD_SEED).ordered())
    pool = _fresh_pool(dataset.triples, ROUNDS * BATCH)
    root = Path(tempfile.mkdtemp(prefix="repro-churn-")) / "snapshots"
    policy = SnapshotPolicy(path=root, log=True, keep=2)
    config = ServiceConfig(
        adaptive=AdaptiveConfig(
            window_size=1024,
            tuner_factory=lambda dual: Dotil(dual, TUNER_CONFIG),
        ),
        snapshot=policy,
    )
    report = {
        "benchmark": "churn",
        "workload": f"watdiv {'+'.join(FAMILIES)}",
        "triples": TRIPLES,
        "rounds": ROUNDS,
        "batch": BATCH,
        "checkpoint_every": CHECKPOINT_EVERY,
        "rounds_timeline": [],
    }

    print()
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    with QueryService(dual, config) as leader:
        # Followers boot from the anchor snapshot the leader just committed.
        delta_follower = restore_with_log(root).dual
        tailer = WalTailer(root, delta_follower.generation)
        watcher = SnapshotWatcher(root)
        reload_follower = watcher.load_if_newer().dual
        delta_bytes = 0
        delta_records = 0
        full_bytes = 0
        full_reloads = 0
        max_staleness = 0
        ingested = 0
        deleted = 0
        modelled_ingest_seconds = 0.0

        # Concurrent serving: a client thread runs the query mix against the
        # gated leader for the whole churn window.
        served = {"queries": 0}
        stop_serving = threading.Event()

        def serve() -> None:
            index = 0
            while not stop_serving.is_set():
                leader.run_query(traffic[index % len(traffic)])
                served["queries"] += 1
                index += 1

        client = threading.Thread(target=serve, name="churn-client", daemon=True)
        client.start()

        churn_started = time.perf_counter()
        inserted_so_far = []
        for round_index in range(ROUNDS):
            chunk = pool[round_index * BATCH : (round_index + 1) * BATCH]
            ingest = leader.ingest_stream(iter(chunk), chunk_size=max(1, BATCH // 4))
            ingested += ingest.triples
            modelled_ingest_seconds += ingest.modelled_seconds
            inserted_so_far.extend(chunk)
            if round_index % 3 == 2:
                doomed = inserted_so_far[: BATCH // 4]
                del inserted_so_far[: BATCH // 4]
                deleted += leader.delete(doomed)
            if round_index % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                leader.tune_now()
                leader.checkpoint()  # publishes + rotates the log

            # Delta follower: tail and apply; staleness is how many
            # generations behind it was when it started catching up.
            staleness = dual.generation - tailer.generation
            max_staleness = max(max_staleness, staleness)
            for record in tailer.poll():
                apply_record(delta_follower, record)
                delta_records += 1
                delta_bytes += record.nbytes

            # Reload follower: the old discipline, one full restore per
            # published snapshot.
            newer = watcher.load_if_newer()
            if newer is not None:
                reload_follower = newer.dual
                full_reloads += 1
                full_bytes += _snapshot_bytes(root, newer.manifest.name)
            report["rounds_timeline"].append(
                {
                    "round": round_index,
                    "leader_generation": dual.generation,
                    "delta_generation": delta_follower.generation,
                    "staleness_before_poll": staleness,
                }
            )
        churn_wall_seconds = time.perf_counter() - churn_started
        stop_serving.set()
        client.join(timeout=10)

        # Quiesce: one final publish so the reload follower can reach the
        # leader, and one final tail poll for the delta follower.
        leader.checkpoint()
        for record in tailer.poll():
            apply_record(delta_follower, record)
            delta_records += 1
            delta_bytes += record.nbytes
        final = watcher.load_if_newer()
        if final is not None:
            reload_follower = final.dual
            full_reloads += 1
            full_bytes += _snapshot_bytes(root, final.manifest.name)

        assert delta_follower.generation == dual.generation
        assert reload_follower.generation == dual.generation
        leader_answers = [leader.run_query(q) for q in traffic]

    # Byte-identical serving state on both followers.
    for index, query in enumerate(traffic):
        mine = leader_answers[index].result
        via_delta = delta_follower.run_query(query).result
        via_reload = reload_follower.run_query(query).result
        assert via_delta.bindings == mine.bindings, f"delta bindings diverged at {index}"
        assert via_delta.counters.as_dict() == mine.counters.as_dict(), f"delta work at {index}"
        assert via_reload.bindings == mine.bindings, f"reload bindings diverged at {index}"
        assert via_reload.counters.as_dict() == mine.counters.as_dict(), f"reload work at {index}"

    ingest_rate = ingested / churn_wall_seconds if churn_wall_seconds > 0 else float("inf")
    report.update(
        {
            "ingested_triples": ingested,
            "deleted_triples": deleted,
            "modelled_ingest_seconds": modelled_ingest_seconds,
            "churn_wall_seconds": churn_wall_seconds,
            "ingest_triples_per_second": ingest_rate,
            "queries_served_during_churn": served["queries"],
            "delta_records": delta_records,
            "delta_bytes": delta_bytes,
            "full_reloads": full_reloads,
            "full_reload_bytes": full_bytes,
            "delta_to_full_byte_ratio": (delta_bytes / full_bytes) if full_bytes else None,
            "max_staleness_generations": max_staleness,
        }
    )
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"BENCH_CHURN ingest={ingested} triples ({ingest_rate:.0f}/s wall) "
        f"deleted={deleted} served={served['queries']} queries mid-churn"
    )
    print(
        f"BENCH_CHURN delta: {delta_records} records / {delta_bytes} bytes; "
        f"full reloads: {full_reloads} / {full_bytes} bytes "
        f"(ratio {delta_bytes / full_bytes:.4f})"
    )
    print(f"BENCH_CHURN max staleness {max_staleness} generations; wrote {OUTPUT}")
    shutil.rmtree(root.parent, ignore_errors=True)

    # The tentpole ratchet: catching up by deltas moves strictly fewer bytes
    # than catching up by reloading snapshots.
    assert delta_records > 0 and delta_bytes > 0
    assert full_reloads >= 2 and full_bytes > 0
    assert delta_bytes < full_bytes, (
        f"delta catch-up ({delta_bytes} bytes) must be strictly cheaper than "
        f"full reloads ({full_bytes} bytes)"
    )
    # Churn made real progress while serving stayed live.
    assert ingested == ROUNDS * BATCH and deleted > 0
    assert served["queries"] > 0, "the client thread never got a query through the gate"


if __name__ == "__main__":
    test_delta_catch_up_is_strictly_cheaper_than_full_reloads()
    print("ok")
