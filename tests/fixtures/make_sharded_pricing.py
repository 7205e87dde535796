"""Write ``sharded_pricing.json``: the sharded store's modelled prices, pinned.

For every template family of ``tests/test_differential_sharding.py`` (the
same datasets, seeds and randomized query order), every shard count in
:data:`SHARD_COUNTS` and both ways of writing a store (``loaded``: one bulk
load; ``batched``: the same triples inserted :data:`BATCH_ROWS` at a time),
the fixture records

* per query, ``repr`` of the modelled ``seconds`` and of the scatter triple
  (``shard_seconds``, ``parallel_seconds``, ``serial_seconds``), so a
  comparison is exact to the last bit;
* per store, after its queries ran: ``shard_row_counts()``, the
  subject-sharded predicates, and the per-shard probe totals of the
  ``shard_metrics`` board.

Work counters are not recorded: the differential suite holds them to the
unsharded oracle.  ``tests/test_sharded_pricing.py`` requires exact equality
with the committed file.  Regenerate only when a pricing change is intended::

    PYTHONPATH=src python tests/fixtures/make_sharded_pricing.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro import (
    ShardedRelationalStore,
    ShardingConfig,
    bio2rdf_workload,
    generate_bio2rdf,
    generate_watdiv,
    generate_yago,
    watdiv_workload,
    yago_workload,
)

FIXTURE = Path(__file__).with_name("sharded_pricing.json")

SHARD_COUNTS = (1, 2, 4, 7)
WRITERS = ("loaded", "batched")
BATCH_ROWS = 7

#: The differential suite's placement tunables (subject-sharding exercised).
AGGRESSIVE = ShardingConfig(skew_threshold=0.2, min_subject_shard_rows=16)


def family_workloads():
    """``(label, triples, queries)`` per family, as the differential suite
    builds them."""
    rng = random.Random(99)
    watdiv = generate_watdiv(target_triples=2500, seed=23)
    cases = []
    for family in ("linear", "star", "snowflake", "complex"):
        workload = watdiv_workload(watdiv, family=family, seed=rng.randrange(10_000))
        cases.append(
            (f"watdiv-{family}", watdiv.triples, workload.randomized(seed=rng.randrange(10_000)))
        )
    yago = generate_yago(target_triples=2000, seed=11)
    cases.append(
        ("yago-complex", yago.triples, yago_workload(yago, seed=rng.randrange(10_000)).randomized())
    )
    bio = generate_bio2rdf(target_triples=2000, seed=13)
    cases.append(
        ("bio2rdf-mixed", bio.triples, bio2rdf_workload(bio, seed=rng.randrange(10_000)).randomized())
    )
    return cases


def write_store(store, triples, writer: str):
    if writer == "loaded":
        store.load(triples)
        return store
    triples = list(triples)
    for start in range(0, len(triples), BATCH_ROWS):
        store.insert(triples[start : start + BATCH_ROWS])
    return store


def price_store(triples, queries, shards: int, writer: str) -> dict:
    """One store's pinned record: per-query prices, then its final state."""
    store = write_store(ShardedRelationalStore(shards=shards, config=AGGRESSIVE), triples, writer)
    prices = []
    for query in queries:
        result = store.execute(query)
        scatter = result.scatter
        prices.append(
            [
                repr(result.seconds),
                repr(scatter.shard_seconds),
                repr(scatter.parallel_seconds),
                repr(scatter.serial_seconds),
            ]
        )
    board = store.shard_metrics.snapshot()
    return {
        "prices": prices,
        "shard_row_counts": list(store.shard_row_counts()),
        "subject_sharded": [p.value for p in store.subject_sharded_predicates()],
        "board": [
            [repr(entry["busy_seconds"]), entry["rows_scanned"], entry["index_lookups"], entry["probes"]]
            for entry in board
        ],
    }


def measure() -> dict:
    """Every family x shard count x writer, keyed ``"label/N/writer"``."""
    out = {}
    for label, triples, queries in family_workloads():
        for shards in SHARD_COUNTS:
            for writer in WRITERS:
                out[f"{label}/{shards}/{writer}"] = price_store(triples, queries, shards, writer)
    return out


if __name__ == "__main__":
    records = measure()
    # One store per line, so a pricing change shows as a readable diff.
    lines = [f"{json.dumps(key)}: {json.dumps(records[key])}" for key in sorted(records)]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    queries = sum(len(record["prices"]) for record in records.values())
    print(f"wrote {FIXTURE.name}: {len(records)} stores, {queries} priced queries")
