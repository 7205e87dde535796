"""Unit tests for the in-memory TripleSet."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import TermError
from repro.rdf import IRI, Literal, Triple, TripleSet, YAGO

BORN = YAGO.term("wasBornIn")
NAME = YAGO.term("hasGivenName")
ALICE = YAGO.term("Alice")
BOB = YAGO.term("Bob")
BERLIN = YAGO.term("Berlin")
PARIS = YAGO.term("Paris")


@pytest.fixture()
def small_set() -> TripleSet:
    return TripleSet(
        [
            Triple(ALICE, BORN, BERLIN),
            Triple(BOB, BORN, PARIS),
            Triple(ALICE, NAME, Literal("Alice")),
        ]
    )


class TestMutation:
    def test_add_returns_true_only_for_new_triples(self, small_set):
        assert not small_set.add(Triple(ALICE, BORN, BERLIN))
        assert small_set.add(Triple(BOB, NAME, Literal("Bob")))
        assert len(small_set) == 4

    def test_add_rejects_non_triples(self, small_set):
        with pytest.raises(TermError):
            small_set.add(("s", "p", "o"))  # type: ignore[arg-type]

    def test_add_all_counts_new_triples(self):
        triples = TripleSet()
        added = triples.add_all([Triple(ALICE, BORN, BERLIN), Triple(ALICE, BORN, BERLIN)])
        assert added == 1

    def test_discard_removes_and_updates_indexes(self, small_set):
        assert small_set.discard(Triple(ALICE, BORN, BERLIN))
        assert not small_set.discard(Triple(ALICE, BORN, BERLIN))
        assert Triple(ALICE, BORN, BERLIN) not in small_set
        assert small_set.predicate_count(BORN) == 1
        assert list(small_set.match(subject=ALICE, predicate=BORN)) == []


class TestInspection:
    def test_len_and_contains(self, small_set):
        assert len(small_set) == 3
        assert Triple(ALICE, BORN, BERLIN) in small_set

    def test_predicates_sorted(self, small_set):
        assert small_set.predicates == sorted([BORN, NAME], key=lambda p: p.value)

    def test_partition_returns_only_that_predicate(self, small_set):
        partition = small_set.partition(BORN)
        assert len(partition) == 2
        assert all(t.predicate == BORN for t in partition)

    def test_partition_of_unknown_predicate_is_empty(self, small_set):
        assert small_set.partition(YAGO.term("unknown")) == []

    def test_entity_count_counts_subjects_and_objects(self, small_set):
        # alice, bob, berlin, paris, and the literal "Alice"
        assert small_set.entity_count() == 5

    def test_predicate_histogram(self, small_set):
        histogram = small_set.predicate_histogram()
        assert histogram[BORN] == 2
        assert histogram[NAME] == 1


class TestMatch:
    def test_match_by_subject(self, small_set):
        assert {t.predicate for t in small_set.match(subject=ALICE)} == {BORN, NAME}

    def test_match_by_predicate(self, small_set):
        assert len(list(small_set.match(predicate=BORN))) == 2

    def test_match_by_object(self, small_set):
        assert [t.subject for t in small_set.match(object=BERLIN)] == [ALICE]

    def test_match_with_all_positions(self, small_set):
        assert len(list(small_set.match(ALICE, BORN, BERLIN))) == 1
        assert list(small_set.match(ALICE, BORN, PARIS)) == []

    def test_match_unknown_subject_returns_nothing(self, small_set):
        assert list(small_set.match(subject=YAGO.term("Nobody"))) == []

    def test_match_without_constraints_returns_everything(self, small_set):
        assert len(list(small_set.match())) == 3


class TestSetOperations:
    def test_copy_is_independent(self, small_set):
        clone = small_set.copy()
        clone.add(Triple(BOB, NAME, Literal("Bob")))
        assert len(clone) == 4
        assert len(small_set) == 3

    def test_union(self, small_set):
        other = TripleSet([Triple(BOB, NAME, Literal("Bob"))])
        merged = small_set.union(other)
        assert len(merged) == 4

    def test_subset_for_predicates(self, small_set):
        subset = small_set.subset_for_predicates([BORN])
        assert len(subset) == 2
        assert subset.predicates == [BORN]

    def test_equality(self, small_set):
        assert small_set == small_set.copy()
        assert small_set != TripleSet()


class TestIterationOrder:
    def test_iterates_in_insertion_order(self, small_set):
        assert list(small_set) == [
            Triple(ALICE, BORN, BERLIN),
            Triple(BOB, BORN, PARIS),
            Triple(ALICE, NAME, Literal("Alice")),
        ]
        small_set.discard(Triple(ALICE, BORN, BERLIN))
        small_set.add(Triple(ALICE, BORN, BERLIN))
        assert list(small_set)[-1] == Triple(ALICE, BORN, BERLIN)
        assert list(small_set.copy()) == list(small_set)
        assert small_set == TripleSet(reversed(list(small_set)))  # equality ignores order

    def test_a_loaded_store_has_the_same_rows_in_every_process(self):
        """The table's row order is a function of the input alone: two
        interpreters with different hash seeds load one generated dataset
        through ``DualStore.load(TripleSet(...))`` into equal ``dump_rows()``."""
        script = (
            "import json\n"
            "from repro import DualStore, generate_watdiv\n"
            "from repro.rdf import TripleSet\n"
            "dataset = generate_watdiv(target_triples=1500, seed=5)\n"
            "dual = DualStore().load(TripleSet(dataset.triples))\n"
            "print(json.dumps(dual.relational.table.dump_rows()))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0] and outputs[0] == outputs[1]
