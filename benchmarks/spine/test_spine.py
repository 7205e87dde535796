"""Tests of the benchmark spine itself.

The estimator is pinned on synthetic laps (no clocks); the ``--quick`` smoke
drives a real server subprocess at toy scale and checks the *shape* of the
output — every metric of ``BENCHMARK.json`` present with its unit, nothing
failed, count-type metrics identical between two runs — never a timing.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from estimator import (  # noqa: E402
    REFERENCE_KERNEL_S,
    percentile,
    position_floors,
    relative_spread,
    summarize_laps,
)


# --------------------------------------------------------------------------- #
# The floor estimator on synthetic laps
# --------------------------------------------------------------------------- #
def _true_costs(size=200, seed=1):
    rng = random.Random(seed)
    return [0.001 + 0.004 * rng.random() for _ in range(size)]


def _noisy_laps(costs, laps=8, seed=2):
    """Every replay pays the true cost plus one-sided noise; each position is
    left undisturbed in at least one replay."""
    rng = random.Random(seed)
    quiet = [rng.randrange(laps) for _ in costs]
    return [
        [
            cost if lap == quiet[position] else cost + rng.expovariate(1 / 0.002)
            for position, cost in enumerate(costs)
        ]
        for lap in range(laps)
    ]


#: Reference slots of a host exactly as fast as the reference host.
_AT_REFERENCE = [[REFERENCE_KERNEL_S] * 20]


def _summary(laps, reads=None):
    reads = range(len(laps[0])) if reads is None else reads
    return summarize_laps(laps, reads, reads, _AT_REFERENCE)


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([5.0], 95) == 5.0
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_additive_noise_leaves_the_floors_unchanged():
    costs = _true_costs()
    laps = _noisy_laps(costs)
    assert position_floors(laps) == costs
    clean = _summary([costs])
    noisy = _summary(laps)
    for name in ("latency_p50_ms", "latency_p95_ms", "throughput_rps"):
        assert noisy[name] == pytest.approx(clean[name])
    # ...whereas the whole-run median the first spine attempt used does move.
    pooled = [value for lap in laps for value in lap]
    assert percentile(pooled, 50) > 1.2 * percentile(costs, 50)


def test_a_real_slowdown_of_one_position_moves_p95():
    costs = [0.002] * 200
    slow = list(costs)
    for position in range(0, 200, 10):  # 10% of the lap gets 5x slower, in every replay
        slow[position] = 0.010
    before = _summary(_noisy_laps(costs))
    after = _summary(_noisy_laps(slow))
    assert after["latency_p95_ms"] == pytest.approx(10.0)
    assert before["latency_p95_ms"] == pytest.approx(2.0)
    assert after["latency_p50_ms"] == pytest.approx(before["latency_p50_ms"])
    assert after["throughput_rps"] < before["throughput_rps"]


def test_latency_covers_reads_and_throughput_reads_and_writes_but_no_epoch():
    lap = [0.001, 0.010, 0.001, 0.001, 0.300]  # position 1 is a write, 4 a tuning epoch
    summary = summarize_laps([lap, lap], [0, 2, 3], [0, 1, 2, 3], _AT_REFERENCE)
    assert summary["latency_p95_ms"] == pytest.approx(1.0)
    assert summary["throughput_rps"] == pytest.approx(4 / 0.013)
    assert summary["lap_drift"] == pytest.approx(1.0)


def test_a_slower_host_moves_nothing_and_a_slower_library_moves_everything():
    costs = _true_costs()
    kernel = [REFERENCE_KERNEL_S * (1 + 0.1 * (slot % 3)) for slot in range(20)]
    positions = range(len(costs))

    def run(host, library):
        """The host scales the library's work and the kernel alike."""
        laps = [[cost * library * host for cost in lap] for lap in _noisy_laps(costs)]
        reference = [[slot * host for slot in lap] for lap in _noisy_laps(kernel, seed=3)]
        return summarize_laps(laps, positions, positions, reference)

    calm, loaded, regressed = run(1.0, 1.0), run(1.3, 1.0), run(1.3, 1.2)
    assert loaded["host_reference_ms"] == pytest.approx(1.3 * calm["host_reference_ms"])
    for name in ("latency_p50_ms", "latency_p95_ms", "throughput_rps"):
        assert loaded[name] == pytest.approx(calm[name])
    assert regressed["latency_p50_ms"] == pytest.approx(1.2 * calm["latency_p50_ms"])
    assert regressed["throughput_rps"] == pytest.approx(calm["throughput_rps"] / 1.2)


def test_replays_of_different_length_are_refused():
    with pytest.raises(ValueError):
        position_floors([[1.0, 2.0], [1.0]])


def test_relative_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert 0.0 < relative_spread(values) < 0.03


# --------------------------------------------------------------------------- #
# --quick smoke against a real server subprocess
# --------------------------------------------------------------------------- #
def _quick(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick",
         "--seed", "5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ["lookup_small", "churn_cached"])
def test_quick_run_prints_every_end_to_end_metric_with_its_unit(contract, workload):
    metrics = _quick(workload, trace=0)
    assert set(metrics) == {metric["name"] for metric in contract["end_to_end"]}
    for metric in contract["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["value"] > 0  # end-to-end metrics are never 0


def test_quick_trace_prints_every_layer_metric_and_counts_repeat_exactly(contract):
    from tracing import EXACT

    first = _quick("churn_cached", trace=1)
    second = _quick("churn_cached", trace=1)
    assert set(first) == {metric["name"] for metric in contract["per_layer"]}
    for metric in contract["per_layer"]:
        assert first[metric["name"]]["unit"] == metric["unit"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert first["persist.checkpoints_per_lap"]["value"] == 1.0
    spans = [
        json.loads(line)
        for line in (HERE / "out" / "trace_churn_cached.jsonl").read_text().splitlines()
    ]
    assert spans and all(span["end"] >= span["start"] for span in spans)
    by_id = {span["id"]: span for span in spans}
    children = [span for span in spans if span["parent"] is not None]
    assert children and all(
        by_id[span["parent"]]["start"] <= span["start"] and span["end"] <= by_id[span["parent"]]["end"]
        for span in children
    )
