"""The outside-in per-layer trace of the benchmark spine (``--trace 1``).

No file of the library is touched: the harness builds the same stack in its
own process, replays the lap single-threaded, and records a span — name,
start, end, parent, op, lap — around each public call, in the order the HTTP
handler makes them (``request_from_get`` -> ``QueryService.resolve`` ->
``QueryService.run_query`` -> ``encode_results``).  Layers below the service
are timed by calling their public functions on the same queries
(``canonical_query_text``, ``parse_query``, ``identify``,
``QueryProcessor.process``, ``RelationalStore.plan/execute``,
``DualStore.graph_cost``, ``TermDictionary.decode_many``, ``DeltaLog.append``,
``restore_with_log``).  A second, HTTP pass against a real server subprocess
splits the client's time (connect / first byte / body) and, by interleaving
laps with and without span recording, measures what tracing itself costs.

Timings use the spine's estimator — per-position floors over the replays,
p50 across positions; counts come from the system's own counters and must
repeat exactly between runs.  Workloads that never mutate replay each
*distinct* query once per lap and weight it by its multiplicity in the real
lap, which is the same number for a fraction of the time.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence
from urllib.parse import quote

from repro import DeltaLog, DualStore, RelationalStore, canonical_query_text, parse_query, restore_with_log
from repro.endpoint.protocol import encode_results, negotiate_accept, request_from_get

import workloads
from client import HEALTHZ_REQUEST, HttpClient, ServerProcess, get_request, replay_lap
from estimator import percentile, position_floors

__all__ = ["EXACT", "Tracer", "run_trace"]

#: Count-type metrics: identical in every run of one commit and one seed.
EXACT = (
    "serve.result_cache_hit_ratio",
    "serve.plan_cache_hit_ratio",
    "serve.invalidations_per_lap",
    "core.route_graph_share",
    "core.route_split_share",
    "core.route_relational_share",
    "core.graph_coverage",
    "core.tune_moves_per_epoch",
    "cost.modelled_tti_s",
    "cost.dual_vs_rdb_modelled_ratio",
    "relstore.rows_scanned_per_result_row",
    "graphstore.resident_triples",
    "endpoint.body_kb_per_op",
    "endpoint.connects_per_op",
    "endpoint.shed_ops",
    "persist.wal_bytes_per_triple",
    "persist.snapshot_bytes_per_triple",
    "persist.checkpoints_per_lap",
)

ACCEPT = "application/sparql-results+json"
HANDLER_STAGES = ("endpoint.parse_request", "serve.resolve", "serve.run_query", "endpoint.encode")
#: Timed right after the handler's calls, on the same plan objects, so that
#: ``serve.self_ms`` = run_query - process compares like with like.
PROCESS = "core.process"
HEALTHZ_PER_LAP = 30


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int], op: int, lap: int) -> int:
        self.spans.append((name, start, end, parent, op, lap))
        return len(self.spans) - 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (name, start, end, parent, op, lap) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "lap": lap}
                    )
                    + "\n"
                )


def _p50_ms(values: Sequence[float]) -> float:
    return percentile(values, 50) * 1e3 if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# In-process pass: the handler's calls, in the handler's order
# --------------------------------------------------------------------------- #
class _HandlerPass:
    """Replays of the trace lap through the service's public calls."""

    def __init__(self, tlap):
        self.tlap = tlap
        self.query_strings = {arg: "query=" + quote(arg, safe="") for kind, arg in tlap if kind == "get"}
        self.stage_laps: Dict[str, List[List[float]]] = {name: [] for name in HANDLER_STAGES + (PROCESS,)}
        self.write_laps: List[List[float]] = []
        self.outputs: List[List[object]] = []
        #: From the last replay: per read position (rows, body bytes, route,
        #: from_cache, modelled seconds).
        self.info: List[Optional[tuple]] = [None] * len(tlap)

    def replay(self, service, batches, tracer: Tracer, lap_index: int) -> None:
        """One more replay.  The collector stays on, as in the server: its
        per-request share is part of what a stage costs there."""
        size = len(self.tlap)
        stages = {name: [0.0] * size for name in self.stage_laps}
        writes = [0.0] * size
        outputs: List[object] = [None] * size
        processor = service.dual.processor
        now = time.perf_counter
        for position, (kind, arg) in enumerate(self.tlap):
            if kind == "get":
                outputs[position] = self._handle(service, processor, arg, stages, position, tracer, lap_index)
                continue
            t0 = now()
            outputs[position] = workloads.apply_write(service, kind, arg, batches)
            t1 = now()
            writes[position] = t1 - t0
            tracer.add(f"serve.{kind}", t0, t1, None, position, lap_index)
        for name, seconds in stages.items():
            self.stage_laps[name].append(seconds)
        self.write_laps.append(writes)
        self.outputs.append(outputs)

    def _handle(self, service, processor, text, stages, position, tracer, lap_index) -> bytes:
        """The HTTP handler's calls for one GET, then the processor alone;
        returns the body's digest."""
        now = time.perf_counter
        t0 = now()
        negotiate_accept(ACCEPT)
        request = request_from_get(self.query_strings[text])
        t1 = now()
        plan = service.resolve(request.query)
        t2 = now()
        processed = service.run_query(request.query)
        t3 = now()
        body = encode_results(processed.result)
        t4 = now()
        processor.process(plan.query, plan.complex_subquery)
        t5 = now()
        stages[PROCESS][position] = t5 - t4
        tracer.add(PROCESS, t4, t5, None, position, lap_index)
        marks = (t0, t1, t2, t3, t4)
        parent = tracer.add("endpoint.handler", t0, t4, None, position, lap_index)
        for index, name in enumerate(HANDLER_STAGES):
            stages[name][position] = marks[index + 1] - marks[index]
            tracer.add(name, marks[index], marks[index + 1], parent, position, lap_index)
        record = processed.record
        self.info[position] = (
            len(processed.result), len(body), record.route, record.from_cache, record.seconds,
        )
        return hashlib.sha256(body).digest()


# --------------------------------------------------------------------------- #
# Probes: the layers under the service, called directly on each distinct query
# --------------------------------------------------------------------------- #
PROBES = (
    "sparql.canonical", "sparql.parse", "core.identify",
    "relstore.plan", "relstore.execute", "relstore.execute_columnar", "graphstore.match",
)


def _probe_queries(service, columnar: RelationalStore, texts, tracer: Tracer, replays: int):
    """Per distinct query: floor seconds of each probe, plus the counts the
    relational execution reports (rows, rows scanned, modelled seconds).
    The stores are probed with the service's own plan objects, as
    ``run_query`` calls them."""
    dual = service.dual
    floors = {name: {} for name in PROBES}
    facts = {}
    now = time.perf_counter
    for replay in range(replays + 1):  # first replay warms plans and is dropped
        for op, text in enumerate(texts):
            plan = service.resolve(text)
            t0 = now()
            canonical_query_text(text)
            t1 = now()
            parse_query(text)
            t2 = now()
            dual.identifier.identify(plan.query)
            t3 = now()
            parsed, subquery = plan.query, plan.complex_subquery
            dual.relational.plan(parsed)
            t4 = now()
            relational = dual.relational.execute(parsed)
            t5 = now()
            columnar.execute(parsed)
            t6 = now()
            marks = [t0, t1, t2, t3, t4, t5, t6]
            if subquery is not None and dual.graph.covers(subquery.predicates):
                dual.graph_cost(subquery.query)
                marks.append(now())
            if replay == 0:
                facts[text] = (len(relational), relational.counters.rows_scanned, relational.seconds)
                continue
            for index, name in enumerate(PROBES[: len(marks) - 1]):
                seconds = marks[index + 1] - marks[index]
                tracer.add(name, marks[index], marks[index + 1], None, op, replay)
                if seconds < floors[name].get(text, float("inf")):
                    floors[name][text] = seconds
    return floors, facts


def _best_of(rounds: int, call) -> float:
    """Seconds of the fastest of ``rounds`` calls."""
    best = float("inf")
    for _round in range(rounds):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def _decode_many_us_per_term(dual: DualStore) -> float:
    dictionary = dual.relational.table.dictionary
    ids = list(range(min(len(dictionary), 20000)))
    return _best_of(5, lambda: dictionary.decode_many(ids)) / len(ids) * 1e6


def _transfer_ms_per_ktriple(dual: DualStore, triples) -> float:
    """Re-transfer the resident partitions into a scratch dual store (best
    of three rounds, evicting in between)."""
    resident = sorted(dual.design.graph_partitions, key=lambda p: p.value)
    if not resident:
        return 0.0
    scratch = DualStore(dual.config).load(workloads.OrderedTripleSet(triples))
    sizes = scratch.partition_sizes()
    best = float("inf")
    for _round in range(3):
        started = time.perf_counter()
        for predicate in resident:
            scratch.transfer_partition(predicate)
        best = min(best, time.perf_counter() - started)
        for predicate in resident:
            scratch.evict_partition(predicate)
    return best * 1e3 / (sum(sizes[p] for p in resident) / 1000.0)


def _persist_metrics(service, batches, scratch: Path) -> Dict[str, float]:
    if service.delta_log is None:
        return {
            "persist.wal_append_ms": 0.0, "persist.restore_ms": 0.0,
            "persist.snapshot_bytes_per_triple": 0.0,
        }
    from repro.persist.wal import triple_to_payload

    ops = [{"op": "insert", "t": [triple_to_payload(triple) for triple in batches[0]]}]
    log_root = scratch / "wal-probe"
    log = DeltaLog(log_root)
    log.rotate(0)
    appends = []
    for generation in range(1, 21):
        started = time.perf_counter()
        log.append(ops, generation)
        appends.append(time.perf_counter() - started)
    log.close()
    root = Path(service.config.snapshot.path)
    manifest = service.last_snapshot
    snapshot_bytes = sum((root / manifest.name / name).stat().st_size for name in manifest.file_hashes)
    return {
        "persist.wal_append_ms": _p50_ms(appends),
        "persist.restore_ms": _best_of(2, lambda: restore_with_log(root)) * 1e3,
        "persist.snapshot_bytes_per_triple": _ratio(snapshot_bytes, manifest.triple_count),
    }


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #
def _trace_lap(spec, lap):
    """``(trace lap, expand)``: the ops a traced replay runs, and for each
    position of the real lap the trace-lap position that stands for it.  A
    mutating workload replays the real lap; the others replay each distinct
    query once and are weighted by its multiplicity in the real lap."""
    if spec.mutates:
        return lap, list(range(len(lap)))
    texts = list(dict.fromkeys(arg for _kind, arg in lap))
    index = {text: position for position, text in enumerate(texts)}
    return [("get", text) for text in texts], [index[arg] for _kind, arg in lap]


def _http_pass(server, port: int, tlap, outputs, tracer: Tracer, healthz_laps: int):
    """Replay every lap over HTTP (odd laps record their spans, even laps do
    not), then time the empty request; returns ``(lap results, healthz laps,
    connects per GET, server CPU ms per op)``."""
    http = HttpClient(port)
    requests = {arg: get_request(arg) for kind, arg in tlap if kind == "get"}
    results, cpu_per_lap = [], []
    for lap_index, expected in enumerate(outputs):
        cpu_before = server.call({"op": "cpu"})["cpu_s"]
        result = replay_lap(tlap, expected, http, server, requests, traced=lap_index % 2 == 1)
        cpu_per_lap.append(server.call({"op": "cpu"})["cpu_s"] - cpu_before)
        results.append(result)
        for position, (t0, connected, first, end) in result.splits.items():
            parent = tracer.add("http.request", t0, end, None, position, lap_index)
            tracer.add("endpoint.connect", t0, connected, parent, position, lap_index)
            tracer.add("endpoint.ttfb", connected, first, parent, position, lap_index)
            tracer.add("endpoint.read_body", first, end, parent, position, lap_index)
    gets = sum(1 for kind, _arg in tlap if kind == "get") * len(outputs)
    connects_per_op = _ratio(http.connects, gets)
    healthz = []
    for _lap in range(healthz_laps):
        samples = []
        for _request in range(HEALTHZ_PER_LAP):
            started = time.perf_counter()
            http.request(HEALTHZ_REQUEST)
            samples.append(time.perf_counter() - started)
        healthz.append(samples)
    http.close()
    return results, healthz, connects_per_op, min(cpu_per_lap[1:]) / len(tlap) * 1e3


def run_trace(spec, seed: int, scale, out_dir: Path, cpus) -> dict:
    """One ``--trace 1`` run of ``spec``; returns ``{"metrics", "attempted",
    "failed", "first_failure", "spans", "trace_file"}``."""
    tracer = Tracer()
    scratch = out_dir / f"trace-{spec.name}-{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    with ServerProcess(spec, seed, scale is workloads.QUICK, cpus[0], scratch / "server", 1) as server:
        inputs = workloads.prepare_inputs(spec, seed, scale)
        base, batches, inventory = inputs.base, inputs.batches, inputs.inventory
        tlap, expand = _trace_lap(spec, inputs.lap)
        replays = scale.laps or (3 if spec.mutates else 8)
        # One in-process replay per HTTP lap (warm + traced + untraced), so a
        # mutating workload's in-process answers are the HTTP pass's oracle.
        laps = 1 + 2 * replays

        epoch_seconds: List[float] = []

        def build_span(name: str, start: float, end: float) -> None:
            tracer.add(f"setup.{name}", start, end, None, -1, -1)
            if name == "core.tune_epoch":
                epoch_seconds.append(end - start)

        service = workloads.build_stack(
            spec, base, inventory, scratch / "client" if spec.mutates else None, span=build_span
        )
        dual = service.dual
        run = _HandlerPass(tlap)
        before = None
        for lap_index in range(laps):
            if lap_index == 1:
                before = _counter_snapshot(service)
            run.replay(service, batches, tracer, lap_index)
        after = _counter_snapshot(service)

        distinct = list(dict.fromkeys(arg for kind, arg in tlap if kind == "get"))
        columnar = RelationalStore(engine="columnar")
        columnar.load(base)
        probe_floors, facts = _probe_queries(service, columnar, distinct, tracer, 2 if scale.laps else 5)
        metrics = _persist_metrics(service, batches, scratch)
        metrics["rdf.decode_many_us_per_term"] = _decode_many_us_per_term(dual)
        metrics["graphstore.transfer_ms_per_ktriple"] = _transfer_ms_per_ktriple(dual, base)
        metrics["graphstore.resident_triples"] = float(dual.graph.used_capacity())
        metrics["core.graph_coverage"] = dual.graph_coverage()
        adaptive = service.adaptive_metrics() or {}
        metrics["core.tune_moves_per_epoch"] = _ratio(adaptive.get("moves_applied", 0.0), adaptive.get("epochs", 0.0))
        service.close()

        ready = server.go(inventory)
        (
            results, healthz, metrics["endpoint.connects_per_op"], metrics["endpoint.server_cpu_ms_per_op"],
        ) = _http_pass(server, ready["port"], tlap, run.outputs, tracer, replays + 1)
        metrics["endpoint.shed_ops"] = float(server.call({"op": "shed"})["shed"])
        server.stop()
    shutil.rmtree(scratch, ignore_errors=True)

    delta = {key: after[key] - before[key] for key in after}
    metrics.update(_reduce(spec, tlap, expand, run, probe_floors, facts, delta, laps - 1, epoch_seconds, results, healthz))
    trace_file = out_dir / f"trace_{spec.name}.jsonl"
    tracer.write(trace_file)
    failures = [result.first_failure for result in results if result.failed]
    return {
        "metrics": metrics,
        "attempted": len(tlap) * laps,
        "failed": sum(result.failed for result in results),
        "first_failure": failures[0] if failures else None,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file),
    }


def _reduce(spec, tlap, expand, run, probe_floors, facts, delta, timed, epoch_seconds, results, healthz):
    """Turn the raw replays into the per-layer metrics: floors per position
    over the timed replays (the warm one dropped), p50 across the positions
    of the real lap."""
    reads = [p for p, (kind, _arg) in enumerate(tlap) if kind == "get"]
    read_expand = [p for p in expand if tlap[p][0] == "get"]
    at = {kind: [p for p, (k, _a) in enumerate(tlap) if k == kind] for kind in ("insert", "delete", "tune", "checkpoint")}
    stage = {name: position_floors(laps[1:]) for name, laps in run.stage_laps.items()}
    write = position_floors(run.write_laps[1:])
    info, text_at = run.info, {p: tlap[p][1] for p in reads}
    hits = [p for p in read_expand if info[p][3]]
    misses = [p for p in read_expand if not info[p][3]]

    def over_reads(per_position) -> List[float]:
        return [per_position[p] for p in read_expand]

    def probe(name) -> List[float]:
        floors = probe_floors[name]
        return [floors[text_at[p]] for p in read_expand if text_at[p] in floors]

    m: Dict[str, float] = {}
    for name in ("sparql.canonical", "sparql.parse", "core.identify", "relstore.plan",
                 "relstore.execute", "relstore.execute_columnar", "graphstore.match"):
        m[f"{name}_ms"] = _p50_ms(probe(name))
    run_query, process, encode = stage["serve.run_query"], stage[PROCESS], stage["endpoint.encode"]
    m["serve.resolve_hit_ms"] = _p50_ms(over_reads(stage["serve.resolve"]))
    m["serve.run_query_ms"] = _p50_ms(over_reads(run_query))
    m["serve.self_ms"] = _p50_ms([run_query[p] - process[p] for p in misses])
    m["serve.cache_hit_ms"] = _p50_ms([run_query[p] for p in hits])
    m["serve.cache_hit_us_per_row"] = _ratio(sum(run_query[p] for p in hits) * 1e6, sum(info[p][0] for p in hits))
    m["serve.insert_ms"] = _p50_ms([write[p] for p in at["insert"]])
    m["serve.delete_ms"] = _p50_ms([write[p] for p in at["delete"]])
    m["serve.result_cache_hit_ratio"] = _ratio(
        delta["result_cache_hits"], delta["result_cache_hits"] + delta["result_cache_misses"]
    )
    m["serve.plan_cache_hit_ratio"] = _ratio(
        delta["plan_cache_hits"], delta["plan_cache_hits"] + delta["plan_cache_misses"]
    )
    m["serve.invalidations_per_lap"] = delta["invalidation_events"] / timed
    m["core.process_ms"] = _p50_ms(over_reads(process))
    routes = [info[p][2] for p in read_expand]
    for route in ("graph", "split", "relational"):
        m[f"core.route_{route}_share"] = routes.count(route) / len(routes)
    if spec.mutates:
        epoch_seconds = [write[p] for p in at["tune"]]
    m["core.tune_epoch_ms"] = min(epoch_seconds) * 1e3 if epoch_seconds else 0.0
    execute_sum = sum(probe("relstore.execute"))
    m["core.dual_vs_rdb_wall_ratio"] = _ratio(sum(over_reads(process)), execute_sum)
    m["cost.modelled_tti_s"] = sum(info[p][4] for p in read_expand)
    m["cost.dual_vs_rdb_modelled_ratio"] = _ratio(
        m["cost.modelled_tti_s"], sum(facts[text_at[p]][2] for p in read_expand)
    )
    relational_rows = sum(facts[text_at[p]][0] for p in read_expand)
    m["relstore.execute_us_per_row"] = _ratio(execute_sum * 1e6, relational_rows)
    m["relstore.rows_scanned_per_result_row"] = _ratio(
        sum(facts[text_at[p]][1] for p in read_expand), relational_rows
    )
    m["endpoint.parse_request_ms"] = _p50_ms(over_reads(stage["endpoint.parse_request"]))
    m["endpoint.encode_ms"] = _p50_ms(over_reads(encode))
    m["endpoint.encode_us_per_row"] = _ratio(sum(over_reads(encode)) * 1e6, sum(info[p][0] for p in read_expand))
    m["endpoint.body_kb_per_op"] = sum(info[p][1] for p in read_expand) / len(read_expand) / 1024.0
    m["persist.checkpoint_ms"] = _p50_ms([write[p] for p in at["checkpoint"]])
    m["persist.checkpoints_per_lap"] = delta["snapshots_taken"] / timed
    m["persist.wal_bytes_per_triple"] = _ratio(
        delta["wal_bytes"], timed * 2 * spec.write_batches * workloads.WRITE_BATCH
    )

    # The HTTP pass: client floors against the in-process stages.
    timed_results = results[1:]
    traced, untraced = timed_results[0::2], timed_results[1::2]
    http_floor = position_floors([r.seconds for r in timed_results])
    in_process = [sum(stage[name][p] for name in HANDLER_STAGES) for p in range(len(tlap))]
    m["endpoint.http_overhead_ms"] = _p50_ms([http_floor[p] - in_process[p] for p in read_expand])
    m["endpoint.healthz_rtt_ms"] = _p50_ms(position_floors(healthz[1:]))
    m["endpoint.unexplained_ms"] = m["endpoint.http_overhead_ms"] - m["endpoint.healthz_rtt_ms"]
    for name, lo, hi in (("connect", 0, 1), ("ttfb", 1, 2), ("read_body", 2, 3)):
        floors = position_floors([[r.splits[p][hi] - r.splits[p][lo] for p in reads] for r in traced])
        by_position = dict(zip(reads, floors))
        m[f"endpoint.{name}_ms"] = _p50_ms([by_position[p] for p in read_expand])
    pooled = [r.seconds[p] for r in timed_results for p in reads]
    m["endpoint.pooled_p99_ms"] = percentile(pooled, 99) * 1e3
    m["endpoint.max_ms"] = max(pooled) * 1e3
    m["endpoint.stall_share"] = 1.0 - sum(http_floor) / percentile([sum(r.seconds) for r in timed_results], 50)
    m["serve.write_ack_p50_ms"] = _p50_ms([http_floor[p] for p in at["insert"] + at["delete"]])
    traced_p50 = percentile(over_reads(position_floors([r.seconds for r in traced])), 50)
    untraced_p50 = percentile(over_reads(position_floors([r.seconds for r in untraced])), 50)
    m["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    return m


def _counter_snapshot(service) -> Dict[str, int]:
    counters = service.metrics.counters
    return {
        name: getattr(counters, name)
        for name in (
            "result_cache_hits", "result_cache_misses", "plan_cache_hits",
            "plan_cache_misses", "invalidation_events", "snapshots_taken", "wal_bytes",
        )
    }
