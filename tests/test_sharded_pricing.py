"""The sharded store's modelled prices, held to a pinned fixture bit for bit.

``tests/fixtures/sharded_pricing.json`` records, for every template family of
the sharding differential suite, N in {1, 2, 4, 7} and both ways of writing
a store, each query's ``seconds`` and scatter triple (as ``repr`` strings)
and each store's per-shard row counts, promoted predicates and metrics-board
totals.  ``tests/fixtures/make_sharded_pricing.py`` builds the same record
from the current code; every field must be equal.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).with_name("fixtures")


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_sharded_pricing", FIXTURES / "make_sharded_pricing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKER = _maker()
PINNED = json.loads((FIXTURES / "sharded_pricing.json").read_text())


@pytest.fixture(scope="module")
def families():
    return MAKER.family_workloads()


def test_fixture_covers_every_family_shard_count_and_writer(families):
    expected = {
        f"{label}/{shards}/{writer}"
        for label, _, _ in families
        for shards in MAKER.SHARD_COUNTS
        for writer in MAKER.WRITERS
    }
    assert set(PINNED) == expected
    assert sum(len(queries) for _, _, queries in families) == 145


@pytest.mark.parametrize("writer", MAKER.WRITERS)
@pytest.mark.parametrize("shards", MAKER.SHARD_COUNTS)
def test_prices_and_placement_match_the_pinned_fixture(shards, writer, families):
    for label, triples, queries in families:
        key = f"{label}/{shards}/{writer}"
        record = MAKER.price_store(triples, queries, shards, writer)
        pinned = PINNED[key]
        for index, (mine, theirs) in enumerate(zip(record["prices"], pinned["prices"])):
            assert mine == theirs, f"{key}: query {index} priced differently"
        assert record == pinned, key
