#!/usr/bin/env python3
"""The end-to-end benchmark spine: one command, four HTTP workloads.

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/spine/run.py --workload lookup_small --seed 3 --seconds 20 --trace 0

starts the real stack in a server subprocess, drives it over HTTP from this
single-threaded client, verifies every response against an in-process oracle
and prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

Without ``--workload`` it runs the whole suite, end to end and traced;
``--repeat-check N`` runs the suite in two sets of N and compares the set
medians with the bounds of ``BENCHMARK.json``; ``--quick`` is the smoke scale.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro").is_dir():
    sys.stderr.write(f"benchmark spine: no library to measure at {SRC / 'repro'}\n")
    sys.exit(2)
if os.environ.get("PYTHONHASHSEED") != "0":
    # Set iteration order reaches the planner; pin it for client and server.
    os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from client import HttpClient, ServerProcess, get_request, pin_cpus, replay_lap  # noqa: E402
from estimator import REFERENCE_KERNEL_S, relative_spread, summarize_laps  # noqa: E402
from tracing import run_trace  # noqa: E402


def host_fingerprint() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "loadavg_1m": os.getloadavg()[0],
    }


def load_contract() -> dict:
    """``BENCHMARK.json``: the workloads, and every metric's unit and bound."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# One end-to-end run
# --------------------------------------------------------------------------- #
def oracle_outputs(spec, service, lap, batches, replays: int):
    """Expected SHA-256 (reads) or acknowledgement (writes) per position,
    for each of ``replays`` laps, from a dry run through ``QueryService`` +
    ``encode_results``.  A workload that never mutates answers every lap the
    same, so one lap (one execution per distinct query) serves them all."""

    def dry_lap(memo):
        outputs = []
        for kind, arg in lap:
            if kind != "get":
                outputs.append(workloads.apply_write(service, kind, arg, batches))
            elif memo is not None and arg in memo:
                outputs.append(memo[arg])
            else:
                digest = hashlib.sha256(workloads.read_body(service, arg)).digest()
                if memo is not None:
                    memo[arg] = digest
                outputs.append(digest)
        return outputs

    if spec.mutates:
        return [dry_lap(None) for _ in range(replays)]
    return [dry_lap({})] * replays


def run_end_to_end(spec, seed: int, seconds: float, scale, cpus) -> dict:
    scratch = OUT / f"run-{spec.name}-{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    laps = workloads.laps_for(spec, seconds, scale)
    marks = [time.perf_counter()]
    builds = scale.builds or spec.builds
    with ServerProcess(spec, seed, scale is workloads.QUICK, cpus[0], scratch / "server", builds) as server:
        # The client prepares (and finishes) its oracle before the go signal,
        # so the server's timed builds have the host to themselves.
        inputs = workloads.prepare_inputs(spec, seed, scale)
        lap = inputs.lap
        oracle = workloads.build_stack(
            spec, inputs.base, inputs.inventory, scratch / "client" if spec.mutates else None
        )
        try:
            expected = oracle_outputs(spec, oracle, lap, inputs.batches, laps + 1)
        finally:
            oracle.close()
            del oracle
        shutil.rmtree(scratch / "client", ignore_errors=True)
        marks.append(time.perf_counter())

        ready = server.go(inputs.inventory)
        marks.append(time.perf_counter())
        http = HttpClient(ready["port"])
        requests = {arg: get_request(arg) for kind, arg in lap if kind == "get"}
        results = []
        starts = random.Random(f"starts:{seed}")
        for lap_index in range(laps + 1):  # lap 0 warms and is not timed
            # A lap with writes must run in order: its reads see what they left.
            start = 0 if spec.mutates else starts.randrange(len(lap))
            results.append(
                replay_lap(lap, expected[lap_index], http, server, requests, start=start, ref_every=workloads.REF_EVERY)
            )
        http.close()
        marks.append(time.perf_counter())
        peak_rss_mb = server.stop()["peak_rss_mb"]
    shutil.rmtree(scratch, ignore_errors=True)

    reads = [position for position, (kind, _arg) in enumerate(lap) if kind == "get"]
    requests_at = [position for position, (kind, _arg) in enumerate(lap) if kind in ("get", "insert", "delete")]
    summary = summarize_laps(
        [result.seconds for result in results[1:]], reads, requests_at,
        [result.reference for result in results[1:]],
    )
    # Each build at the speed the host had around it; the fastest counts.
    setup_s = min(
        build * REFERENCE_KERNEL_S / reference
        for build, reference in zip(ready["setup_s"], ready["setup_reference_s"])
    )
    failures = [result.first_failure for result in results if result.failed]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p95_ms": summary["latency_p95_ms"],
        "throughput_rps": summary["throughput_rps"],
        "server_peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": f"min of {len(ready['setup_s'])} builds",
        "latency_p50_ms": f"{len(reads)} read positions x {laps} laps",
        "latency_p95_ms": f"{len(reads)} read positions x {laps} laps",
        "throughput_rps": f"{len(requests_at)} requests x {laps} laps",
        "server_peak_rss_mb": "1 process",
    }
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": len(lap) * (laps + 1),
        "failed": sum(result.failed for result in results),
        "first_failure": failures[0] if failures else None,
        "lap_drift": summary["lap_drift"],
        # Timings above are the measured ones x REFERENCE_KERNEL_S / this.
        "host_reference_ms": summary["host_reference_ms"],
        "setup_measured_s": min(ready["setup_s"]),
        "connects_per_op": http.connects / (len(reads) * (laps + 1)),
        "phase_s": dict(zip(("prepare+oracle", "server_builds", "laps"), (b - a for a, b in zip(marks, marks[1:])))),
    }


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def report(name: str, outcome: dict, declared: list) -> None:
    """Human-readable lines for the metrics ``declared`` in the contract,
    then the contract's JSON object as the last."""
    metrics = {metric["name"]: outcome["metrics"][metric["name"]] for metric in declared}
    for metric in declared:
        extra = ""
        if "bound" in metric:
            extra = f"  n={outcome['samples'][metric['name']]}  bound={metric['bound'] * 100:.0f}%"
        print(f"{name:14s} {metric['name']:38s} {metrics[metric['name']]:14.6f} {metric['unit']:6s}{extra}")
    for key in (
        "host_reference_ms", "setup_measured_s", "lap_drift", "connects_per_op", "phase_s", "spans", "trace_file",
    ):
        if key in outcome:
            print(f"{name:14s} {key:38s} {outcome[key]}")
    print(f"{name:14s} failed_ops/ops {outcome['failed']}/{outcome['attempted']}")
    if outcome["first_failure"]:
        sys.stderr.write(f"{name}: FIRST FAILURE {outcome['first_failure']}\n")
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
                    for metric in declared
                },
            }
        ),
        flush=True,
    )


def run_one(name: str, seed: int, args, trace: bool, cpus, contract) -> dict:
    spec = workloads.SPECS[name]
    scale = workloads.QUICK if args.quick else workloads.FULL
    if trace:
        outcome = run_trace(spec, seed, scale, OUT, cpus)
    else:
        outcome = run_end_to_end(spec, seed, args.seconds, scale, cpus)
    report(name, outcome, contract["per_layer" if trace else "end_to_end"])
    return outcome


def repeat_check(args, names, cpus, contract) -> int:
    """Two sets of N suite runs (seeds ``--seed`` .. ``--seed + N - 1`` in
    both); fails when any set medians differ by more than the metric's bound."""
    sets = []
    for _set in range(2):
        runs = {name: [] for name in names}
        for repeat in range(args.repeat_check):
            for name in names:
                runs[name].append(run_one(name, args.seed + repeat, args, False, cpus, contract))
        sets.append(runs)
    worst = 0
    print(f"\n{'workload':14s} {'metric':20s} {'median A':>12s} {'median B':>12s} {'diff':>7s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        for declared in contract["end_to_end"]:
            metric, bound = declared["name"], declared["bound"]
            values = [[run["metrics"][metric] for run in runs[name]] for runs in sets]
            first, second = (statistics.median(of_set) for of_set in values)
            diff = abs(second - first) / first
            spread = relative_spread(values[0] + values[1])
            flag = "  EXCEEDS" if diff > bound else ""
            worst += diff > bound
            print(
                f"{name:14s} {metric:20s} {first:12.4f} {second:12.4f} {diff * 100:6.2f}% "
                f"{spread * 100:6.2f}% {bound * 100:5.0f}%{flag}"
            )
        drifts = [run["lap_drift"] for runs in sets for run in runs[name]]
        failed = sum(run["failed"] for runs in sets for run in runs[name])
        print(f"{name:14s} lap_drift min {min(drifts):.3f} max {max(drifts):.3f}   failed_ops {failed}")
        worst += failed > 0
    return 1 if worst else 0


def main() -> int:
    contract = load_contract()
    suite = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=suite, help="default: the whole suite")
    parser.add_argument("--seed", type=int, default=17, help="lap order and held-out triples")
    parser.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS, help="measured time per run; sets the lap count")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="1: per-layer metrics (default for the suite: both)")
    parser.add_argument("--quick", action="store_true", help="smoke scale: 4k triples, 1 warm + 2 laps x 50 reads")
    parser.add_argument("--repeat-check", type=int, metavar="N", help="two sets of N suite runs, compared with the bounds")
    parser.add_argument("--save", type=Path, help="write all results and the host fingerprint as JSON")
    args = parser.parse_args()

    cpus = pin_cpus()
    fingerprint = host_fingerprint()
    controls = {
        "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"], "seed": args.seed, "data_seed": workloads.DATA_SEED,
        "seconds": args.seconds, "quick": args.quick, "server_cpu": cpus[0], "client_cpu": cpus[1],
        "client_gc": "disabled inside each lap", "reference_kernel_ms": REFERENCE_KERNEL_S * 1e3,
    }
    print("fingerprint " + json.dumps(fingerprint))
    print("controls " + json.dumps(controls))
    OUT.mkdir(exist_ok=True)

    if args.repeat_check:
        status = repeat_check(args, suite, cpus, contract)
    else:
        names = [args.workload] if args.workload else suite
        modes = [bool(args.trace)] if (args.workload or args.trace is not None) else [False, True]
        saved = {"fingerprint": fingerprint, "controls": controls, "workloads": {}}
        status = 0
        # The contract's JSON line of the last run must stay the last line,
        # so anything printed after the runs goes to stderr.
        for name in names:
            for trace in modes:
                outcome = run_one(name, args.seed, args, trace, cpus, contract)
                status |= outcome["failed"] > 0
                entry = saved["workloads"].setdefault(name, {})
                entry["per_layer" if trace else "end_to_end"] = outcome["metrics"]
                if not trace:
                    entry["host_reference_ms"] = outcome["host_reference_ms"]
                entry.setdefault("failed_ops", 0)
                entry["failed_ops"] += outcome["failed"]
        if args.save:
            saved["fingerprint"]["loadavg_1m_end"] = os.getloadavg()[0]
            args.save.parent.mkdir(parents=True, exist_ok=True)
            args.save.write_text(json.dumps(saved, indent=2) + "\n", encoding="utf-8")
    sys.stderr.write(f"loadavg_1m at end {os.getloadavg()[0]:.2f}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
