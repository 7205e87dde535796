"""Benchmark P2 — multi-process endpoint QPS vs a single worker.

The GIL caps one Python process at roughly one core of query execution, so a
single-worker endpoint is the throughput floor however many client threads
push on it.  The multi-process mode (``repro.endpoint.worker``) serves the
same committed snapshot from N OS processes; this benchmark pins the
headline:

1. **N workers beat 1 worker** — under an identical closed-loop many-client
   load, sustained QPS with ``BENCH_ENDPOINT_WORKERS`` workers is strictly
   greater than with a single worker (``BENCH_ENDPOINT_MIN_SPEEDUP`` ratchets
   the required ratio above 1.0 where the host allows).
2. **Replication changes nothing semantically** — every response body from
   every worker, in both fleets, is byte-identical to encoding the leader's
   own direct answer for that query (verified per request, counted exactly).

Workers run with the result cache off: the measured quantity is store
execution throughput, not cache-hit throughput.  Latency percentiles come
from the serving layer's own :class:`LatencyDigest`.  Results land in
``BENCH_endpoint_qps.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_endpoint_qps.py -q -s
    # or, standalone:
    PYTHONPATH=src python benchmarks/bench_endpoint_qps.py

Environment knobs: ``BENCH_ENDPOINT_TRIPLES`` (dataset size),
``BENCH_ENDPOINT_WORKERS`` (fleet size, ≥ 2), ``BENCH_ENDPOINT_CLIENTS``
(closed-loop client threads), ``BENCH_ENDPOINT_REQUESTS`` (requests per
client), ``BENCH_ENDPOINT_REPEATS`` (closed-loop laps per fleet; laps alternate
between fleets and the median lap is scored), ``BENCH_ENDPOINT_MIN_SPEEDUP``
(required multi/single QPS ratio).
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
    DualStore,
    EndpointPool,
    QueryService,
    ServiceConfig,
    WorkerSupervisor,
    generate_yago,
    yago_workload,
)
from repro.endpoint import encode_results, sparql_request  # noqa: E402
from repro.serve.metrics import LatencyDigest  # noqa: E402

TRIPLES = int(os.environ.get("BENCH_ENDPOINT_TRIPLES", "4000"))
WORKERS = int(os.environ.get("BENCH_ENDPOINT_WORKERS", "4"))
CLIENTS = int(os.environ.get("BENCH_ENDPOINT_CLIENTS", "16"))
REQUESTS_PER_CLIENT = int(os.environ.get("BENCH_ENDPOINT_REQUESTS", "30"))
REPEATS = int(os.environ.get("BENCH_ENDPOINT_REPEATS", "5"))
MIN_SPEEDUP = float(os.environ.get("BENCH_ENDPOINT_MIN_SPEEDUP", "1.0"))
SEED = 7
WORKLOAD_SEED = 19
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_endpoint_qps.json"


def _closed_loop(urls, queries, expected):
    """CLIENTS threads, each issuing REQUESTS_PER_CLIENT queries back-to-back
    against a shared round-robin pool; returns (qps, digest, mismatches)."""
    pool = EndpointPool(urls, timeout=60)
    digest = LatencyDigest()
    lock = threading.Lock()
    mismatches = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client(index: int) -> None:
        barrier.wait()
        for step in range(REQUESTS_PER_CLIENT):
            query = queries[(index + step) % len(queries)]
            started = time.perf_counter()
            response = pool.query(query)
            elapsed = time.perf_counter() - started
            with lock:
                digest.observe(elapsed)
                if response.status != 200:
                    mismatches.append((query, f"status {response.status}"))
                elif response.body != expected[query]:
                    mismatches.append((query, "body diverged from direct answer"))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    total = CLIENTS * REQUESTS_PER_CLIENT
    return total / elapsed, digest, mismatches


def _warm(urls, queries):
    # Warm-up lap: every worker parses every template once, so no measured
    # lap pays one-off plan-cache misses.
    for url in urls:
        for query in queries:
            response = sparql_request(url, query, timeout=60)
            assert response.status == 200


def _measure_interleaved(single_urls, multi_urls, queries, expected):
    """Alternate single-fleet and multi-fleet laps; score the median lap.

    Shared hosts drift (CPU throttling, noisy neighbours) on a timescale of
    seconds; measuring one fleet completely and then the other would let the
    drift masquerade as a speedup or mask a real one.  Interleaving samples
    both fleets under near-identical conditions, and the *median* of
    ``REPEATS`` laps discards flukes in both directions (a best-of score
    would let one lucky single-worker lap sink the comparison).
    Byte-identity, by contrast, must hold on *every* lap — mismatches
    accumulate across all of them.
    """
    laps = {"single": [], "multi": []}
    mismatches = {"single": [], "multi": []}
    for _ in range(max(1, REPEATS)):
        for name, urls in (("single", single_urls), ("multi", multi_urls)):
            qps, digest, lap_bad = _closed_loop(urls, queries, expected)
            mismatches[name].extend(lap_bad)
            laps[name].append((qps, digest))
    scored = {}
    for name, results in laps.items():
        results.sort(key=lambda lap: lap[0])
        scored[name] = results[len(results) // 2]  # median lap (qps + digest)
    return scored, laps, mismatches


def test_multi_worker_fleet_outperforms_single_worker():
    assert WORKERS >= 2, "BENCH_ENDPOINT_WORKERS must be at least 2"
    dataset = generate_yago(target_triples=TRIPLES, seed=SEED)
    workload = yago_workload(dataset, seed=WORKLOAD_SEED)
    queries = [entry.query.to_sparql() for entry in workload.queries]

    tmp = Path(tempfile.mkdtemp(prefix="repro-endpoint-qps-"))
    root = tmp / "snapshots"
    print()
    try:
        dual = DualStore().load(dataset.triples)
        with QueryService(dual, ServiceConfig()) as leader:
            leader.checkpoint(path=root)
            # The ground truth every response must match, byte for byte.
            expected = {
                query: encode_results(leader.run_query(query).result)
                for query in queries
            }

        # Both fleets live for the whole measurement (idle workers only poll
        # the snapshot root, every 5s — negligible) so their laps interleave.
        # Per-worker admission admits every client (max_inflight=CLIENTS,
        # identical config in both fleets, as replication requires): the
        # closed loop then measures execution throughput, with the single
        # worker carrying all CLIENTS threads on one GIL while the fleet
        # spreads them across processes — precisely the contention the
        # multi-process mode exists to sidestep.
        with WorkerSupervisor(
            root, workers=1, poll_interval=5.0, cache_results=False,
            max_inflight=CLIENTS,
        ) as single_fleet, WorkerSupervisor(
            root, workers=WORKERS, poll_interval=5.0, cache_results=False,
            max_inflight=CLIENTS,
        ) as multi_fleet:
            single_fleet.wait_ready()
            multi_fleet.wait_ready()
            _warm(single_fleet.urls, queries)
            _warm(multi_fleet.urls, queries)
            scored, laps, mismatches = _measure_interleaved(
                single_fleet.urls, multi_fleet.urls, queries, expected
            )
        qps_single, lat_single = scored["single"]
        qps_multi, lat_multi = scored["multi"]
        bad_single, bad_multi = mismatches["single"], mismatches["multi"]
        print(
            f"BENCH_ENDPOINT_QPS single worker: qps={qps_single:.1f} "
            f"p50={lat_single.p50 * 1e3:.1f}ms p95={lat_single.p95 * 1e3:.1f}ms"
        )
        print(
            f"BENCH_ENDPOINT_QPS {WORKERS} workers:  qps={qps_multi:.1f} "
            f"p50={lat_multi.p50 * 1e3:.1f}ms p95={lat_multi.p95 * 1e3:.1f}ms"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    speedup = qps_multi / qps_single if qps_single else float("inf")
    report = {
        "benchmark": "endpoint_qps",
        "workload": "yago",
        "triples": len(dataset.triples),
        "distinct_queries": len(queries),
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "repeats": REPEATS,
        "total_requests_per_fleet": CLIENTS * REQUESTS_PER_CLIENT * max(1, REPEATS),
        "workers": WORKERS,
        "qps_single": qps_single,
        "qps_multi": qps_multi,
        "qps_single_laps": sorted(qps for qps, _ in laps["single"]),
        "qps_multi_laps": sorted(qps for qps, _ in laps["multi"]),
        "speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "latency_single": lat_single.as_dict(),
        "latency_multi": lat_multi.as_dict(),
        "response_mismatches_single": len(bad_single),
        "response_mismatches_multi": len(bad_multi),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"BENCH_ENDPOINT_QPS speedup={speedup:.2f}x "
        f"({WORKERS} workers vs 1; required > {MIN_SPEEDUP:.2f}x)"
    )
    print(f"BENCH_ENDPOINT_QPS wrote {OUTPUT}")

    # Semantics first: replication must not change a single byte.
    assert not bad_single, f"single-worker responses diverged: {bad_single[:3]}"
    assert not bad_multi, f"multi-worker responses diverged: {bad_multi[:3]}"
    # The headline: N processes sustain strictly more QPS than one.
    assert qps_multi > qps_single * MIN_SPEEDUP, (
        f"{WORKERS}-worker fleet reached {qps_multi:.1f} qps vs single-worker "
        f"{qps_single:.1f} qps (speedup {speedup:.2f}x, required > {MIN_SPEEDUP:.2f}x)"
    )


if __name__ == "__main__":
    test_multi_worker_fleet_outperforms_single_worker()
    print("ok")
