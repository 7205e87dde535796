"""Benchmark P1 — warm restart from a durable snapshot vs the cold start.

The cold-start cost the paper's Section 6 experiments measure is exactly what
a process restart used to pay: re-ingest the dataset from triples and
re-learn the physical design from an untrained tuner.  ``repro.persist``
removes it.  This benchmark pins the headline:

1. **Warm restart is free of re-tuning** — a ``QueryService`` restored from a
   snapshot serves the traffic mix at *exactly* the pre-restart modelled TTI
   (byte-identical bindings, same modelled seconds) with **zero** tuning
   epochs after the restart: the snapshot carried the placement, statistics,
   workload window, and DOTIL's Q-state.
2. **Cold restart pays** — an identically configured service rebuilt from raw
   triples starts at a strictly worse untuned TTI, pays the modelled
   re-ingest again, and needs ≥ 1 tuning epoch (with fresh import seconds)
   to work its way back to the tuned TTI.

Everything asserted is modelled (work counters priced by the deterministic
cost model), so the numbers are machine-independent; restore wall-clock is
reported informationally.  Results land in ``BENCH_warm_restart.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_warm_restart.py -q -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_warm_restart.py

Environment knobs: ``BENCH_RESTART_TRIPLES`` (dataset size),
``BENCH_RESTART_WARMUP_EPOCHS`` (tuning epochs before the snapshot),
``BENCH_RESTART_MAX_RECOVERY_EPOCHS`` (cold-path epoch budget).
"""

import json
import os
import shutil
import sys
import tempfile
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

TRIPLES = int(os.environ.get("BENCH_RESTART_TRIPLES", "6000"))
WARMUP_EPOCHS = int(os.environ.get("BENCH_RESTART_WARMUP_EPOCHS", "3"))
MAX_RECOVERY_EPOCHS = int(os.environ.get("BENCH_RESTART_MAX_RECOVERY_EPOCHS", "8"))
SEED = 7
WORKLOAD_SEED = 19
TUNER_CONFIG = DotilConfig(r_bg=0.2, prob=1.0, gamma=0.7, lam=4.5)
FAMILIES = ("snowflake", "complex")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_warm_restart.json"


def _traffic(dataset):
    queries = []
    for family in FAMILIES:
        queries.extend(watdiv_workload(dataset, family=family, seed=WORKLOAD_SEED).ordered())
    return queries


def _service_config(snapshot_root=None):
    return ServiceConfig(
        adaptive=AdaptiveConfig(
            window_size=1024,
            tuner_factory=lambda dual: Dotil(dual, TUNER_CONFIG),
        ),
        snapshot=SnapshotPolicy(path=snapshot_root)
        if snapshot_root is not None
        else None,
    )


def test_warm_restart_reaches_pre_restart_tti_with_zero_tuning_epochs():
    dataset = generate_watdiv(target_triples=TRIPLES, seed=SEED)
    traffic = _traffic(dataset)
    snapshot_root = Path(tempfile.mkdtemp(prefix="repro-warm-restart-")) / "snapshots"
    report = {
        "benchmark": "warm_restart",
        "workload": f"watdiv {'+'.join(FAMILIES)}",
        "triples": len(dataset.triples),
        "r_bg": TUNER_CONFIG.r_bg,
        "warmup_epochs": WARMUP_EPOCHS,
        "warmup_timeline": [],
        "cold_timeline": [],
    }

    print()
    # ---------------------------------------------------------------- #
    # Phase 1: live service — ingest, tune to convergence, snapshot.
    # ---------------------------------------------------------------- #
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    ingest_seconds = dual.relational.total_insert_seconds
    with QueryService(dual, _service_config(snapshot_root)) as live:
        for epoch in range(WARMUP_EPOCHS):
            tti = live.run_batch(traffic).tti
            epoch_report = live.tune_now()
            report["warmup_timeline"].append(
                {"epoch": epoch, "tti": tti, "moves": epoch_report.moves}
            )
            print(f"BENCH_WARM_RESTART warmup epoch={epoch} tti={tti:.4f} moves={epoch_report.moves}")
        pre_batch = live.run_batch(traffic)
        pre_restart_tti = pre_batch.tti
        pre_bindings = [execution.result.bindings for execution in pre_batch]
        live_metrics = live.adaptive_metrics()
        live.checkpoint()
        tuning_seconds = live_metrics["import_seconds"] + live_metrics["evict_seconds"]

    # ---------------------------------------------------------------- #
    # Phase 2: warm restart — restore, serve, zero epochs.
    # ---------------------------------------------------------------- #
    restore_started = time.perf_counter()
    warm = QueryService.restore(snapshot_root, _service_config(snapshot_root))
    restore_wall_seconds = time.perf_counter() - restore_started
    try:
        warm_metrics_before = warm.adaptive_metrics()
        warm_batch = warm.run_batch(traffic)
        warm_tti = warm_batch.tti
        warm_bindings = [execution.result.bindings for execution in warm_batch]
        warm_metrics_after = warm.adaptive_metrics()
        warm_epochs_run = warm_metrics_after["epochs"] - warm_metrics_before["epochs"]
        warm_ingest_seconds = warm.dual.relational.total_insert_seconds
    finally:
        warm.close()

    # ---------------------------------------------------------------- #
    # Phase 3: cold restart — re-ingest, re-tune until recovered.
    # ---------------------------------------------------------------- #
    cold_dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    cold_ingest_seconds = cold_dual.relational.total_insert_seconds
    epochs_to_recover = None
    with QueryService(cold_dual, _service_config()) as cold:
        cold_first_tti = cold.run_batch(traffic).tti
        cold_tti = cold_first_tti
        for epoch in range(MAX_RECOVERY_EPOCHS):
            epoch_report = cold.tune_now()
            cold_tti = cold.run_batch(traffic).tti
            report["cold_timeline"].append(
                {"epoch": epoch, "tti": cold_tti, "moves": epoch_report.moves}
            )
            print(f"BENCH_WARM_RESTART cold epoch={epoch} tti={cold_tti:.4f} moves={epoch_report.moves}")
            if epochs_to_recover is None and cold_tti <= pre_restart_tti * 1.001:
                epochs_to_recover = epoch + 1
                break
        cold_metrics = cold.adaptive_metrics()
        cold_tuning_seconds = cold_metrics["import_seconds"] + cold_metrics["evict_seconds"]

    report.update(
        {
            "pre_restart_tti": pre_restart_tti,
            "warm_tti": warm_tti,
            "warm_epochs_after_restart": warm_epochs_run,
            "warm_modelled_ingest_seconds": warm_ingest_seconds - ingest_seconds
            if warm_ingest_seconds > ingest_seconds
            else 0.0,
            "restore_wall_seconds": restore_wall_seconds,
            "live_ingest_seconds": ingest_seconds,
            "live_tuning_seconds": tuning_seconds,
            "cold_first_tti": cold_first_tti,
            "cold_final_tti": cold_tti,
            "cold_ingest_seconds": cold_ingest_seconds,
            "cold_tuning_seconds": cold_tuning_seconds,
            "cold_epochs_to_recover": epochs_to_recover,
            "cold_extra_modelled_seconds": cold_ingest_seconds + cold_tuning_seconds,
        }
    )
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"BENCH_WARM_RESTART warm tti={warm_tti:.4f} (pre-restart {pre_restart_tti:.4f}) "
        f"epochs_after_restart={warm_epochs_run:.0f} restore_wall={restore_wall_seconds:.3f}s"
    )
    print(
        f"BENCH_WARM_RESTART cold first_tti={cold_first_tti:.4f} "
        f"recover_epochs={epochs_to_recover} "
        f"re-ingest+re-tune={cold_ingest_seconds + cold_tuning_seconds:.4f}s modelled"
    )
    print(f"BENCH_WARM_RESTART wrote {OUTPUT}")

    # Everything needed below is in memory; clean the tempdir up *before*
    # the assertions so a failing ratchet does not leak a full snapshot
    # tree in /tmp on every failing run.
    shutil.rmtree(snapshot_root.parent, ignore_errors=True)

    # 1. Warm restart serves at exactly the pre-restart modelled TTI, with
    #    byte-identical bindings, and ran zero tuning epochs to get there.
    assert warm_epochs_run == 0, "a warm restart must not need tuning epochs"
    assert warm_tti == pre_restart_tti, (
        f"warm-restart TTI {warm_tti!r} must equal the pre-restart TTI {pre_restart_tti!r}"
    )
    assert warm_bindings == pre_bindings, "warm-restart bindings must be byte-identical"
    # The warm path also skipped the modelled re-ingest entirely.
    assert warm_ingest_seconds == ingest_seconds

    # 2. The cold path starts strictly worse and pays to come back.
    assert cold_first_tti > pre_restart_tti, (
        f"untuned cold TTI {cold_first_tti:.4f} should exceed the tuned {pre_restart_tti:.4f}"
    )
    assert epochs_to_recover is not None and epochs_to_recover >= 1, (
        f"cold path never recovered to the tuned TTI within {MAX_RECOVERY_EPOCHS} epochs "
        f"(final {cold_tti:.4f} vs target {pre_restart_tti:.4f})"
    )
    assert cold_ingest_seconds > 0.0 and cold_tuning_seconds > 0.0


if __name__ == "__main__":
    test_warm_restart_reaches_pre_restart_tti_with_zero_tuning_epochs()
    print("ok")
