"""Benchmark D1 — online adaptive tuning under a drifting WatDiv mix.

The scenario the paper's incremental-tuning claim lives or dies on: template
traffic whose family mix *shifts mid-stream*.  Two identical dual stores are
warmed with a DOTIL pass over the first phase's workload (linear + star
templates), then serve epoch after epoch of traffic:

* the **static** service freezes that placement forever (the pre-adaptive
  serving layer's behaviour);
* the **adaptive** service (``ServiceConfig.adaptive``) harvests served
  complex subqueries into a :class:`WorkloadWindow` and runs a DOTIL tuning
  epoch after every traffic epoch.

Half-way through, the mix flips to the snowflake + complex families.  The
assertions pin the two headline properties:

1. **Recovery** — the adaptive service's final-epoch modelled TTI is strictly
   better than the static service's on the drifted mix, and strictly better
   than its own TTI at the drift epoch (it converges back toward a re-tuned
   optimum instead of staying degraded).
2. **One generation bump per epoch** — however many transfers/evictions an
   epoch applies, the store's generation advances exactly once (the moves
   are batched through ``DualStore.batch_mutations``).  The result cache
   drops only the entries whose queries read a moved partition
   (``invalidation_events`` counts those drops).

Everything asserted is modelled (work counters priced by the deterministic
cost model), so the numbers are machine-independent.  Results land in
``BENCH_online_drift.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_online_drift.py -q -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_online_drift.py

Environment knobs: ``BENCH_DRIFT_TRIPLES`` (dataset size),
``BENCH_DRIFT_EPOCHS`` (total traffic epochs, half per phase).
"""

import json
import os
import sys
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
    generate_watdiv,
    watdiv_workload,
)

TRIPLES = int(os.environ.get("BENCH_DRIFT_TRIPLES", "6000"))
EPOCHS = int(os.environ.get("BENCH_DRIFT_EPOCHS", "8"))
SEED = 7
WORKLOAD_SEED = 19
#: Tight enough that the two phases' partition sets cannot be resident at
#: once — the budget pressure that makes adaptivity matter.
TUNER_CONFIG = DotilConfig(r_bg=0.15, prob=1.0, gamma=0.7, lam=4.5)
PHASE_A_FAMILIES = ("linear", "star")
PHASE_B_FAMILIES = ("snowflake", "complex")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_online_drift.json"


def _family_mix(dataset, families):
    queries = []
    for family in families:
        queries.extend(watdiv_workload(dataset, family=family, seed=WORKLOAD_SEED).ordered())
    return queries


def _warmed_dual(dataset, warmup_subqueries):
    """A loaded dual store whose placement DOTIL tuned for phase A."""
    dual = DualStore(TUNER_CONFIG).load(dataset.triples)
    Dotil(dual, TUNER_CONFIG).warm_up(warmup_subqueries)
    return dual


def test_adaptive_service_recovers_after_workload_drift():
    assert EPOCHS >= 4 and EPOCHS % 2 == 0, "need at least two epochs per phase"
    dataset = generate_watdiv(target_triples=TRIPLES, seed=SEED)
    phase_a = _family_mix(dataset, PHASE_A_FAMILIES)
    phase_b = _family_mix(dataset, PHASE_B_FAMILIES)
    drift_epoch = EPOCHS // 2

    probe = DualStore(TUNER_CONFIG).load(dataset.triples)
    warmup = [probe.identify(q) for q in phase_a]
    warmup = [sq for sq in warmup if sq is not None]

    adaptive_dual = _warmed_dual(dataset, warmup)
    static_dual = _warmed_dual(dataset, warmup)
    assert adaptive_dual.design.graph_partitions == static_dual.design.graph_partitions

    service_config = ServiceConfig(
        adaptive=AdaptiveConfig(
            window_size=max(len(phase_a), len(phase_b)),
            tuner_factory=lambda dual: Dotil(dual, TUNER_CONFIG),
        )
    )

    report = {
        "benchmark": "online_drift",
        "workload": (
            f"watdiv {'+'.join(PHASE_A_FAMILIES)} -> {'+'.join(PHASE_B_FAMILIES)} "
            f"at epoch {drift_epoch}"
        ),
        "triples": len(dataset.triples),
        "epochs": EPOCHS,
        "drift_epoch": drift_epoch,
        "r_bg": TUNER_CONFIG.r_bg,
        "timeline": [],
    }

    print()
    adaptive_ttis, static_ttis = [], []
    with QueryService(adaptive_dual, service_config) as adaptive, QueryService(
        static_dual
    ) as static:
        for epoch in range(EPOCHS):
            phase = "A" if epoch < drift_epoch else "B"
            batch = phase_a if phase == "A" else phase_b
            adaptive_tti = adaptive.run_batch(batch).tti
            static_tti = static.run_batch(batch).tti
            generation = adaptive_dual.generation
            epoch_report = adaptive.tune_now()
            generation_bumps = adaptive_dual.generation - generation
            adaptive_ttis.append(adaptive_tti)
            static_ttis.append(static_tti)
            report["timeline"].append(
                {
                    "epoch": epoch,
                    "phase": phase,
                    "adaptive_tti": adaptive_tti,
                    "static_tti": static_tti,
                    "moves": epoch_report.moves,
                    "generation_bumps": generation_bumps,
                    "window_tti_before": epoch_report.tti_before,
                    "window_tti_after": epoch_report.tti_after,
                }
            )
            print(
                f"BENCH_ONLINE_DRIFT epoch={epoch} phase={phase} "
                f"adaptive_tti={adaptive_tti:.4f} static_tti={static_tti:.4f} "
                f"moves={epoch_report.moves} generation_bumps={generation_bumps}"
            )

        counters = adaptive.metrics.counters
        daemon_metrics = adaptive.adaptive_metrics()
        report["adaptive_metrics"] = daemon_metrics
        report["invalidation_events"] = counters.invalidation_events
        report["final_epoch"] = {
            "adaptive_tti": adaptive_ttis[-1],
            "static_tti": static_ttis[-1],
            "improvement_percent": (static_ttis[-1] - adaptive_ttis[-1]) / static_ttis[-1] * 100.0,
        }

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"BENCH_ONLINE_DRIFT final adaptive={adaptive_ttis[-1]:.4f} "
        f"static={static_ttis[-1]:.4f} "
        f"improvement={report['final_epoch']['improvement_percent']:.1f}% "
        f"moves={daemon_metrics['moves_applied']:.0f} "
        f"invalidation_events={counters.invalidation_events}"
    )
    print(f"BENCH_ONLINE_DRIFT wrote {OUTPUT}")

    # 1. Recovery: the adaptive service beats the frozen placement on the
    #    drifted mix, and beats its own TTI at the drift point (convergence).
    assert adaptive_ttis[-1] < static_ttis[-1], (
        f"adaptive final-epoch TTI {adaptive_ttis[-1]:.4f} must be strictly better "
        f"than the static placement's {static_ttis[-1]:.4f} on the drifted mix"
    )
    assert adaptive_ttis[-1] < adaptive_ttis[drift_epoch], (
        f"adaptive TTI must improve after re-tuning: final {adaptive_ttis[-1]:.4f} "
        f"vs drift-epoch {adaptive_ttis[drift_epoch]:.4f}"
    )
    # The static placement really is frozen: identical mix, identical cost.
    assert static_ttis[-1] == static_ttis[drift_epoch]

    # 2. Exactly one generation bump per tuning epoch, however many moves
    #    each epoch applied.
    for entry in report["timeline"]:
        assert entry["generation_bumps"] <= 1, entry
        if entry["moves"]:
            assert entry["generation_bumps"] == 1, entry
    epochs_with_moves = sum(1 for entry in report["timeline"] if entry["moves"])
    # Batching actually paid: some epoch applied more than one move.
    assert daemon_metrics["moves_applied"] > epochs_with_moves


if __name__ == "__main__":
    test_adaptive_service_recovers_after_workload_drift()
    print("ok")
