"""Unit tests for the graph oracle's property graph and for the graph store."""

import pytest

from graph_oracle import PropertyGraph
from repro.errors import StorageBudgetExceeded, StorageError, UnknownPartitionError
from repro.graphstore import GraphStore
from repro.rdf import Literal, Triple, YAGO
from repro.relstore import RelationalStore
from repro.sparql import parse_query

BORN = YAGO.term("wasBornIn")
ADVISOR = YAGO.term("hasAcademicAdvisor")
MARRIED = YAGO.term("isMarriedTo")
GIVEN = YAGO.term("hasGivenName")
FAMILY = YAGO.term("hasFamilyName")


class TestPropertyGraph:
    def test_add_edge_deduplicates(self):
        graph = PropertyGraph()
        assert graph.add_edge(YAGO.Alice, BORN, YAGO.Berlin)
        assert not graph.add_edge(YAGO.Alice, BORN, YAGO.Berlin)
        assert graph.edge_count() == 1
        assert graph.vertex_count() == 2

    def test_adjacency_lists(self, mini_kg):
        graph = PropertyGraph()
        graph.add_triples(mini_kg)
        assert graph.out_neighbours(YAGO.term("Alice"), BORN) == [YAGO.term("Berlin")]
        assert set(graph.in_neighbours(YAGO.term("Berlin"), BORN)) == {
            YAGO.term("Alice"),
            YAGO.term("Bob"),
            YAGO.term("Dave"),
        }
        assert graph.out_neighbours(YAGO.term("Alice"), MARRIED) == []

    def test_edges_by_predicate(self, mini_kg):
        graph = PropertyGraph()
        graph.add_triples(mini_kg)
        assert len(list(graph.edges(BORN))) == 7
        assert graph.predicate_count(BORN) == 7

    def test_remove_predicate_cleans_up(self, mini_kg):
        graph = PropertyGraph()
        graph.add_triples(mini_kg)
        removed = graph.remove_predicate(MARRIED)
        assert removed == 2
        assert graph.predicate_count(MARRIED) == 0
        assert list(graph.edges(MARRIED)) == []
        assert MARRIED not in graph.predicates()

    def test_remove_predicate_drops_isolated_vertices(self):
        graph = PropertyGraph()
        graph.add_edge(YAGO.Alice, MARRIED, YAGO.Bob)
        graph.remove_predicate(MARRIED)
        assert graph.vertex_count() == 0

    def test_degree_and_contains(self):
        graph = PropertyGraph()
        graph.add_edge(YAGO.Alice, BORN, YAGO.Berlin)
        graph.add_edge(YAGO.Bob, MARRIED, YAGO.Alice)
        assert graph.degree(YAGO.Alice) == 2
        assert (YAGO.Alice, BORN, YAGO.Berlin) in graph
        assert graph.has_vertex(YAGO.Berlin)

    def test_triples_round_trip(self, mini_kg):
        graph = PropertyGraph()
        graph.add_triples(mini_kg)
        assert set(graph.triples()) == set(mini_kg)


class TestGraphStorePartitions:
    def _partition(self, mini_kg, predicate):
        return [t for t in mini_kg if t.predicate == predicate]

    def test_load_partition_and_coverage(self, mini_kg):
        store = GraphStore(storage_budget=100)
        seconds = store.load_partition(BORN, self._partition(mini_kg, BORN))
        assert seconds > 0
        assert store.covers({BORN})
        assert not store.covers({BORN, ADVISOR})
        assert store.used_capacity() == 7
        assert store.partition_size(BORN) == 7

    def test_budget_is_enforced(self, mini_kg):
        store = GraphStore(storage_budget=3)
        with pytest.raises(StorageBudgetExceeded):
            store.load_partition(BORN, self._partition(mini_kg, BORN))
        assert store.used_capacity() == 0

    def test_unbounded_store_accepts_everything(self, mini_kg):
        store = GraphStore(storage_budget=None)
        for predicate in mini_kg.predicates:
            store.load_partition(predicate, self._partition(mini_kg, predicate))
        assert store.used_capacity() == len(mini_kg)
        assert store.remaining_capacity() is None

    def test_load_partition_rejects_foreign_triples(self, mini_kg):
        store = GraphStore()
        with pytest.raises(StorageError):
            store.load_partition(BORN, self._partition(mini_kg, ADVISOR))

    def test_reload_partition_is_idempotent(self, mini_kg):
        store = GraphStore(storage_budget=50)
        store.load_partition(BORN, self._partition(mini_kg, BORN))
        store.load_partition(BORN, self._partition(mini_kg, BORN))
        assert store.used_capacity() == 7

    def test_evict_partition(self, mini_kg):
        store = GraphStore(storage_budget=50)
        store.load_partition(BORN, self._partition(mini_kg, BORN))
        removed = store.evict_partition(BORN)
        assert removed == 7
        assert store.used_capacity() == 0
        with pytest.raises(UnknownPartitionError):
            store.evict_partition(BORN)

    def test_clear(self, mini_kg):
        store = GraphStore(storage_budget=50)
        store.load_partition(BORN, self._partition(mini_kg, BORN))
        store.load_partition(ADVISOR, self._partition(mini_kg, ADVISOR))
        store.clear()
        assert store.used_capacity() == 0
        assert store.loaded_predicates == set()

    def test_import_cost_accumulates(self, mini_kg):
        store = GraphStore(storage_budget=50)
        store.load_partition(BORN, self._partition(mini_kg, BORN))
        store.load_partition(ADVISOR, self._partition(mini_kg, ADVISOR))
        assert store.import_count == 2
        assert store.total_import_seconds > 0

    def test_negative_budget_rejected(self):
        with pytest.raises(StorageError):
            GraphStore(storage_budget=-1)


class TestGraphStoreQueries:
    @pytest.fixture()
    def loaded_store(self, mini_kg):
        store = GraphStore(storage_budget=None)
        for predicate in mini_kg.predicates:
            store.load_partition(predicate, [t for t in mini_kg if t.predicate == predicate])
        return store

    def test_advisor_query_matches_relational_answer(self, mini_kg, loaded_store, advisor_query):
        relational = RelationalStore()
        relational.load(mini_kg)
        graph_result = loaded_store.execute(advisor_query)
        relational_result = relational.execute(advisor_query)
        assert graph_result.distinct_rows() == relational_result.distinct_rows()

    def test_example1_query_matches_relational_answer(self, mini_kg, loaded_store, example1_query):
        relational = RelationalStore()
        relational.load(mini_kg)
        assert (
            loaded_store.execute(example1_query).distinct_rows()
            == relational.execute(example1_query).distinct_rows()
        )

    def test_missing_partition_raises(self, mini_kg):
        store = GraphStore(storage_budget=None)
        store.load_partition(BORN, [t for t in mini_kg if t.predicate == BORN])
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . }")
        with pytest.raises(StorageError):
            store.execute(query)

    def test_traversal_cost_scales_with_neighbourhood_not_graph(self, mini_kg, loaded_store):
        narrow = parse_query("SELECT ?c WHERE { <%s> y:wasBornIn ?c . }" % YAGO.term("Alice").value)
        wide = parse_query("SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . }")
        narrow_result = loaded_store.execute(narrow)
        wide_result = loaded_store.execute(wide)
        assert narrow_result.counters.edges_traversed < wide_result.counters.edges_traversed

    def test_filters_and_limit_in_graph_store(self, loaded_store):
        query = parse_query(
            'SELECT ?p ?n WHERE { ?p y:hasGivenName ?n . ?p y:wasBornIn ?c . FILTER(?n != "Eve") } LIMIT 2'
        )
        result = loaded_store.execute(query)
        assert len(result) == 2
        assert all(binding["n"] != Literal("Eve") for binding in result.bindings)

    def test_graph_seconds_are_priced_by_cost_model(self, loaded_store, advisor_query):
        result = loaded_store.execute(advisor_query)
        assert result.seconds == pytest.approx(
            loaded_store.cost_model.graph_query_seconds(result.counters)
        )
        assert result.store == "graph"

    def test_pattern_order_override(self, loaded_store, advisor_query):
        default = loaded_store.execute(advisor_query)
        naive = loaded_store.execute(advisor_query, pattern_order=list(advisor_query.patterns))
        assert default.distinct_rows() == naive.distinct_rows()


class TestGraphStoreBudgetAtomicity:
    """Regression: ``load_partition``'s budget check and partition insert
    were two separate steps, so two concurrent loaders (e.g. two tuning
    daemons calling ``apply_moves`` on one store) could both pass ``fits()``
    and together exceed the budget.  The check-then-insert now runs under
    one lock."""

    @staticmethod
    def _partition(index: int, size: int):
        predicate = YAGO.term(f"stress_p{index}")
        return predicate, [
            Triple(YAGO.term(f"s{index}_{row}"), predicate, YAGO.term(f"o{index}_{row}"))
            for row in range(size)
        ]

    def test_two_threads_never_exceed_the_budget(self):
        import threading

        partition_size = 40
        # Room for exactly three partitions: with six loaded concurrently
        # from two threads, at least three must be rejected.
        store = GraphStore(storage_budget=3 * partition_size)
        partitions = [self._partition(i, partition_size) for i in range(6)]
        overshoots = []
        rejected = []
        barrier = threading.Barrier(2)

        def loader(chunk):
            barrier.wait(timeout=10)
            for predicate, triples in chunk:
                try:
                    store.load_partition(predicate, triples)
                except StorageBudgetExceeded:
                    rejected.append(predicate)
                used = store.used_capacity()
                if used > store.storage_budget:
                    overshoots.append(used)

        threads = [
            threading.Thread(target=loader, args=(partitions[:3],)),
            threading.Thread(target=loader, args=(partitions[3:],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert not overshoots, f"budget exceeded: {overshoots}"
        assert store.used_capacity() <= store.storage_budget
        assert store.used_capacity() == 3 * partition_size
        assert len(rejected) == 3
        # Import accounting is updated under the same lock: no lost updates.
        assert store.import_count == 3
        assert store.total_import_seconds == pytest.approx(
            3 * store.cost_model.graph_import_seconds(partition_size)
        )

    def test_stress_interleaved_load_evict_keeps_budget_invariant(self):
        import random
        import threading

        store = GraphStore(storage_budget=100)
        partitions = [self._partition(i, 30) for i in range(8)]
        overshoots = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(60):
                predicate, triples = partitions[rng.randrange(len(partitions))]
                try:
                    if rng.random() < 0.6:
                        store.load_partition(predicate, triples)
                    else:
                        store.evict_partition(predicate)
                except (StorageBudgetExceeded, UnknownPartitionError):
                    pass
                if store.used_capacity() > store.storage_budget:
                    overshoots.append(store.used_capacity())

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not overshoots, f"budget exceeded: {overshoots}"


# --------------------------------------------------------------------------- #
# Resident replicas are the master copy's blocks
# --------------------------------------------------------------------------- #
def _blocks_of(dual):
    yield from dual.relational.table._partition_columns.values()
    for predicate in dual.graph.loaded_predicates:
        yield dual.graph.partition_block(predicate)


class TestResidentReplicas:
    @pytest.mark.parametrize("shards", (None, 4))
    def test_stored_block_arrays_are_read_only(self, yago_dataset, shards):
        from repro import DualStore

        dual = DualStore(shards=shards, storage_budget=len(yago_dataset.triples))
        dual.load(yago_dataset.triples)
        dual.transfer_partition(BORN)
        dual.insert([Triple(YAGO.term("Late"), BORN, YAGO.term("Berlin"))])
        blocks = list(_blocks_of(dual))
        assert len(blocks) > 3
        for block in blocks:
            for column in (block.subjects, block.objects):
                assert not column.flags.writeable
                if len(column):
                    with pytest.raises(ValueError):
                        column[0] = column[0]

    @pytest.mark.parametrize("shards", (None, 4))
    def test_writes_after_a_transfer_leave_graph_answers_unchanged_until_retransfer(
        self, yago_dataset, shards, fingerprint
    ):
        from graph_oracle import oracle_execute
        from repro import DualStore

        dual = DualStore(shards=shards, storage_budget=len(yago_dataset.triples))
        dual.load(yago_dataset.triples)
        queries = [
            parse_query("SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . }"),
            parse_query("SELECT ?p ?q WHERE { ?p y:wasBornIn ?c . ?q y:wasBornIn ?c . }"),
            parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasGivenName ?n . }"),
        ]
        for predicate in (BORN, GIVEN):
            dual.transfer_partition(predicate)
        before = [dual.graph.execute(query) for query in queries]

        born = [t for t in yago_dataset.triples if t.predicate == BORN]
        dual.insert([Triple(YAGO.term(f"Late{i}"), BORN, born[i].object) for i in range(5)])
        assert dual.delete(born[:7]) == 7
        for query, old in zip(queries, before):
            lagging = dual.graph.execute(query)
            assert lagging.bindings == old.bindings
            assert lagging.counters.as_dict() == old.counters.as_dict()
        master = dual.relational.execute(queries[0])
        assert fingerprint(master) != fingerprint(before[0])

        dual.transfer_partition(BORN)
        for query in queries:
            fresh = dual.graph.execute(query)
            assert fingerprint(fresh) == fingerprint(dual.relational.execute(query))
            expected = oracle_execute(dual.graph, query)
            assert fresh.bindings == expected.bindings
            assert fresh.counters.as_dict() == expected.counters.as_dict()

    @pytest.mark.parametrize("shards", (None, 4))
    def test_transfer_and_first_match_keep_at_most_100_bytes_per_resident_edge(self, shards):
        import gc
        import tracemalloc

        from repro import DualStore
        from repro.workload import generate_yago

        dataset = generate_yago(6000, seed=7)
        dual = DualStore(shards=shards, storage_budget=len(dataset.triples)).load(dataset.triples)
        predicates = sorted(dual.partition_sizes(), key=lambda p: p.value)
        edges = sum(dual.partition_sizes().values())
        # Opens every partition's out and in adjacency.
        queries = [
            parse_query(f"SELECT ?a ?b WHERE {{ <{YAGO.term('Nobody').value}> <{p.value}> ?b . "
                        f"?a <{p.value}> <{YAGO.term('Nowhere').value}> . }}")
            for p in predicates
        ]
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for predicate, query in zip(predicates, queries):
                dual.transfer_partition(predicate)
                dual.graph.execute(query)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert dual.graph.used_capacity() == edges
        assert retained / edges <= 100, f"{retained / edges:.0f} B per resident edge"
