"""Serving a workload through the QueryService: caches, dedup, freshness.

This walks the serving layer end to end:

1. load a dual store and front it with a :class:`repro.QueryService`,
2. serve a workload batch cold (every query executes) and warm (every query
   is a result-cache hit, byte-identical, ~100x cheaper in wall-clock),
3. tune the physical design with DOTIL — a transfer moves the read stamp of
   the queries over the moved partitions, so those re-execute with the new
   (faster) routing while the rest still hit,
4. insert new knowledge — the queries that read it re-execute, so no stale
   answer survives,
5. print the service metrics: hit rates, p50/p95 latency, queue depth.

Run with::

    python examples/serving.py
"""

from __future__ import annotations

import time

from repro import (
    IRI,
    Dotil,
    DotilConfig,
    DualStore,
    QueryService,
    Triple,
    generate_yago,
    yago_workload,
)


def timed(label: str, fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    wall = (time.perf_counter() - start) * 1000
    print(f"   {label}: {wall:.2f} ms wall-clock")
    return value


def main() -> None:
    print("== 1. Load the dual store and start a query service ==")
    dataset = generate_yago(target_triples=6000, seed=7)
    dual = DualStore().load(dataset.triples)
    workload = yago_workload(dataset)
    batch = workload.batches("random")[0]
    print(f"   {len(dataset.triples)} triples, batch of {len(batch)} queries")

    with QueryService(dual) as service:
        print("\n== 2. Serve the batch cold, then warm ==")
        cold = timed("cold pass (all executions)", service.run_batch, batch)
        warm = timed("warm pass (all cache hits)", service.run_batch, batch)
        assert warm.cache_hits == len(batch)
        assert [r.result.rows() for r in warm] == [r.result.rows() for r in cold]
        print(f"   warm hits: {warm.cache_hits}/{len(batch)}, "
              f"modelled TTI unchanged: {warm.tti == cold.tti}")

        print("\n== 3. Tune with DOTIL — transfers re-route the queries over them ==")
        complex_subqueries = [c for c in (dual.identify(q) for q in batch) if c is not None]
        tuner = Dotil(dual, DotilConfig(prob=1.0, gamma=0.7, lam=4.5))
        tuner.tune(complex_subqueries)
        print(f"   graph store now holds {dual.graph.used_capacity()}/{dual.storage_budget} triples")
        retuned = timed("post-tuning pass", service.run_batch, batch)
        routes = retuned.batch_result().route_counts()
        print(f"   {retuned.cache_hits}/{len(batch)} hits; routes after tuning: {routes}")

        print("\n== 4. Insert new knowledge — cached answers can never go stale ==")
        predicate = sorted(batch[0].predicates(), key=lambda p: p.value)[0]
        service.insert([Triple(IRI("urn:example:ada"), predicate, IRI("urn:example:bob"))])
        after = service.run_batch(batch)
        assert after.cache_hits < len(batch)
        print(f"   a write to {predicate.value}: the queries reading it re-executed, "
              f"{after.cache_hits}/{len(batch)} still hit")

        print("\n== 5. Service metrics ==")
        snapshot = service.metrics.snapshot()
        counters = snapshot["counters"]
        print(f"   queries served: {counters['queries_served']}, "
              f"executions: {counters['executions']}, "
              f"result hit rate: {snapshot['result_cache_hit_rate']:.0%}, "
              f"plan hit rate: {snapshot['plan_cache_hit_rate']:.0%}")
        wall = snapshot["wall_latency"]
        print(f"   execution wall latency: p50 {wall['p50'] * 1000:.2f} ms, "
              f"p95 {wall['p95'] * 1000:.2f} ms")
        print(f"   peak queue depth: {snapshot['queue']['peak']}")


if __name__ == "__main__":
    main()
