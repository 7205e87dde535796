"""Unit tests for the relational store: planning, execution, work accounting."""

import pytest

from relational_oracle import ReferenceStore, join_result_table
from repro.cost.counters import WorkCounters
from repro.errors import WorkBudgetExceeded
from repro.execution import ResultTable
from repro.rdf import IRI, Literal, Triple, YAGO
from repro.relstore import RelationalStore, plan_query, relational_work_units
from repro.relstore.executor import QueryTermSpace
from repro.sparql import parse_query


@pytest.fixture(params=("reference", "columnar"))
def store(request, mini_kg):
    s = ReferenceStore() if request.param == "reference" else RelationalStore()
    s.load(mini_kg)
    return s


class TestLoadingAndUpdates:
    def test_load_counts_triples(self, store, mini_kg):
        assert len(store) == len(mini_kg)

    def test_load_returns_insert_latency(self, mini_kg):
        store = RelationalStore()
        seconds = store.load(mini_kg)
        assert seconds > 0
        assert store.total_insert_seconds == pytest.approx(seconds)

    def test_insert_and_delete(self, store):
        from repro.rdf import Triple

        new_triple = Triple(YAGO.Zoe, YAGO.term("wasBornIn"), YAGO.Berlin)
        store.insert([new_triple])
        assert store.partition_size(YAGO.term("wasBornIn")) == 8
        assert store.delete(new_triple)
        assert store.partition_size(YAGO.term("wasBornIn")) == 7

    def test_statistics_are_refreshed_after_mutation(self, store):
        before = store.statistics().total_rows
        from repro.rdf import Triple

        store.insert([Triple(YAGO.Zoe, YAGO.term("wasBornIn"), YAGO.Berlin)])
        assert store.statistics().total_rows == before + 1


class TestQueryCorrectness:
    def test_advisor_query_answers(self, store, advisor_query):
        result = store.execute(advisor_query)
        people = {binding["p"] for binding in result.bindings}
        # alice's advisor bob was born in the same city (berlin); carol's was not.
        assert YAGO.term("Alice") in people
        assert YAGO.term("Carol") not in people

    def test_single_pattern_query(self, store):
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn <%s> . }" % YAGO.term("Rome").value)
        result = store.execute(query)
        assert {b["p"] for b in result.bindings} == {YAGO.term("Eve"), YAGO.term("Frank")}

    def test_query_with_literal_object(self, store):
        query = parse_query('SELECT ?p WHERE { ?p y:hasGivenName "Eve" . }')
        result = store.execute(query)
        assert [b["p"] for b in result.bindings] == [YAGO.term("Eve")]

    def test_distinct_removes_duplicates(self, store):
        query = parse_query("SELECT DISTINCT ?city WHERE { ?p y:wasBornIn ?city . }")
        result = store.execute(query)
        assert len(result) == 3

    def test_limit(self, store):
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn ?city . } LIMIT 2")
        assert len(store.execute(query)) == 2

    def test_filter_is_applied(self, store):
        query = parse_query('SELECT ?p ?n WHERE { ?p y:hasGivenName ?n . FILTER(?n = "Frank") }')
        result = store.execute(query)
        assert len(result) == 1
        assert result.bindings[0]["n"] == Literal("Frank")

    def test_empty_result_for_impossible_join(self, store):
        # People born in Rome whose advisor was also born in Rome: Eve is the
        # only Rome-born person with an advisor, and Grace was born in Paris.
        query = parse_query(
            "SELECT ?p WHERE { ?p y:wasBornIn <%s> . ?p y:hasAcademicAdvisor ?a . "
            "?a y:wasBornIn <%s> . }" % (YAGO.term("Rome").value, YAGO.term("Rome").value)
        )
        result = store.execute(query)
        assert len(result) == 0

    def test_variable_predicate_falls_back_to_table_scan(self, store):
        query = parse_query("SELECT ?p ?o WHERE { <%s> ?p ?o . }" % YAGO.term("Alice").value)
        result = store.execute(query)
        assert len(result) == 4  # born, advisor, given, family

    def test_unknown_predicate_yields_empty_result(self, store):
        query = parse_query("SELECT ?p WHERE { ?p y:neverSeen ?o . }")
        assert len(store.execute(query)) == 0

    def test_cartesian_product_when_patterns_disconnected(self, store):
        query = parse_query(
            "SELECT ?a ?b WHERE { ?a y:isMarriedTo ?x . ?b y:hasAcademicAdvisor ?y . }"
        )
        result = store.execute(query)
        assert len(result) == 2 * 3


class TestWorkAccounting:
    def test_partition_scan_charges_rows_scanned(self, store, advisor_query):
        result = store.execute(advisor_query)
        # wasBornIn is scanned twice (two patterns) and advisor once.
        born = store.partition_size(YAGO.term("wasBornIn"))
        advisor = store.partition_size(YAGO.term("hasAcademicAdvisor"))
        assert result.counters.rows_scanned == 2 * born + advisor

    def test_seconds_are_priced_by_the_cost_model(self, store, advisor_query):
        result = store.execute(advisor_query)
        assert result.seconds == pytest.approx(
            store.cost_model.relational_query_seconds(result.counters)
        )
        assert result.store == "relational"

    def test_larger_scans_cost_more(self, store, advisor_query):
        simple = parse_query("SELECT ?p WHERE { ?p y:isMarriedTo ?q . }")
        assert store.execute(advisor_query).seconds > store.execute(simple).seconds

    def test_constant_object_uses_index_lookup(self, store):
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn <%s> . }" % YAGO.term("Rome").value)
        result = store.execute(query)
        assert result.counters.index_lookups == 1
        assert result.counters.rows_scanned == 2

    def test_work_budget_aborts_execution(self, store, advisor_query):
        with pytest.raises(WorkBudgetExceeded):
            store.execute(advisor_query, work_budget=1.0)

    def test_execute_capped_returns_partial_cost(self, store, advisor_query):
        result, seconds = store.execute_capped(advisor_query, work_budget=1.0)
        assert result is None
        assert seconds > 0

    def test_execute_capped_with_generous_budget_completes(self, store, advisor_query):
        result, seconds = store.execute_capped(advisor_query, work_budget=1e9)
        assert result is not None
        assert seconds == pytest.approx(result.seconds)

    def test_relational_work_units_combine_counters(self, store, advisor_query):
        counters = store.execute(advisor_query).counters
        assert relational_work_units(counters) >= counters.rows_scanned


class TestExtraTables:
    def test_extra_table_joins_with_base_patterns(self, store):
        table = ResultTable.from_rows(name="tmp", variables=("p",), rows=[(YAGO.term("Alice"),)])
        query = parse_query("SELECT ?n WHERE { ?p y:hasGivenName ?n . }")
        result = store.execute(query, extra_tables=[table])
        assert [b["n"] for b in result.bindings] == [Literal("Alice")]

    def test_view_tables_charge_view_rows(self, store):
        table = ResultTable.from_rows(name="view", variables=("p",), rows=[(YAGO.term("Alice"),)])
        query = parse_query("SELECT ?n WHERE { ?p y:hasGivenName ?n . }")
        result = store.execute(query, extra_tables=[table], tables_are_views=True)
        assert result.counters.view_rows_scanned == 1
        assert result.counters.rows_scanned > 0  # the base pattern still scans


class TestPlanner:
    def test_plan_orders_selective_pattern_first(self, store):
        query = parse_query(
            "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasGivenName \"Eve\" . }"
        )
        plan = plan_query(query, store.statistics())
        assert plan.steps[0].access_path in ("index_object", "index_subject")

    def test_plan_covers_every_pattern(self, store, example1_query):
        plan = store.plan(example1_query)
        assert len(plan) == len(example1_query.patterns)
        assert plan.estimated_work() > 0

    def test_explicit_pattern_order_is_respected(self, store, advisor_query):
        plan = store.plan(advisor_query, pattern_order=list(advisor_query.patterns))
        assert [step.pattern for step in plan] == list(advisor_query.patterns)

    def test_index_steps_are_estimated_as_point_lookups(self, store):
        """The old ``min(estimated, max(1, estimated))`` clamp was a no-op;
        index-path steps must now carry the distinct-count point-lookup
        estimate instead of anything near the partition cardinality."""
        query = parse_query("SELECT ?p WHERE { ?p y:wasBornIn <%s> . }" % YAGO.term("Rome").value)
        plan = store.plan(query)
        step = plan.steps[0]
        assert step.access_path == "index_object"
        stats = store.statistics().per_predicate[YAGO.term("wasBornIn")]
        assert step.estimated_rows == stats.object_lookup_rows
        assert step.estimated_rows < stats.cardinality

    def test_greedy_ordering_prefers_cheap_point_lookups(self):
        """Two index-path patterns tie on bound positions; the point-lookup
        estimate (not the whole-partition cardinality) must break the tie.

        ``big`` is the larger partition but each object matches exactly one
        row (fan-in 1), while ``small`` funnels every row onto one object
        (fan-in 6): ordering by raw cardinality would run ``small`` first,
        ordering by the point-lookup estimate runs ``big`` first.
        """
        big, small = YAGO.term("big"), YAGO.term("small")
        hub = YAGO.term("hub")
        triples = [Triple(YAGO.term(f"s{i}"), big, YAGO.term(f"o{i}")) for i in range(30)]
        triples += [Triple(YAGO.term(f"t{i}"), small, hub) for i in range(6)]
        store = RelationalStore()
        store.load(triples)
        query = parse_query(
            "SELECT ?p ?q WHERE { ?p y:big <%s> . ?q y:small <%s> . }"
            % (YAGO.term("o3").value, hub.value)
        )
        plan = store.plan(query)
        assert [step.pattern.predicate for step in plan.steps] == [big, small]
        assert [step.estimated_rows for step in plan.steps] == [1, 6]


class TestBoundPlanMemo:
    def test_repeated_execution_binds_the_plan_once(self, store, advisor_query):
        store.execute(advisor_query)
        first, _ = store._bound_plans.get(advisor_query, store.read_stamp(advisor_query))
        if isinstance(store, ReferenceStore):
            # The oracle shares no memo: it re-plans and re-resolves constants
            # on every execution.
            assert first is None and len(store._bound_plans) == 0
            return
        assert first is not None
        store.execute(advisor_query)
        again, _ = store._bound_plans.get(advisor_query, store.read_stamp(advisor_query))
        # Same memo entry: the plan was not re-planned nor re-compiled.
        assert again is first

    def test_a_write_the_query_does_not_read_keeps_its_bound_plan(self, store, advisor_query):
        """The memo keys on the query's relational read stamp, not on a
        whole-store generation: a write elsewhere keeps the binding, a
        write to a predicate the query reads re-binds it."""
        if isinstance(store, ReferenceStore):
            return
        store.execute(advisor_query)
        first, _ = store._bound_plans.get(advisor_query, store.read_stamp(advisor_query))
        store.insert([Triple(YAGO.term("Zoe"), YAGO.term("isMarriedTo"), YAGO.term("Max"))])
        kept, dropped = store._bound_plans.get(advisor_query, store.read_stamp(advisor_query))
        assert kept is first and not dropped
        store.insert([Triple(YAGO.term("Zoe"), YAGO.term("wasBornIn"), YAGO.term("Berlin"))])
        stale, dropped = store._bound_plans.get(advisor_query, store.read_stamp(advisor_query))
        assert stale is None and dropped

    def test_a_write_that_reorders_the_plan_rebinds_it(self, store):
        """The bound plan is ordered by the statistics of the rows its stamp
        names: a write that makes the first step the larger one re-plans."""
        alpha, beta = YAGO.term("alpha"), YAGO.term("beta")

        def facts(predicate, count, prefix):
            return [Triple(YAGO.term(f"{prefix}{n}"), predicate, YAGO.term(f"o{n}")) for n in range(count)]

        store.insert(facts(alpha, 3, "s") + facts(beta, 6, "s"))
        query = parse_query("SELECT ?s WHERE { ?s y:alpha ?o . ?s y:beta ?p . }")

        def bound_order():
            return [step.pattern.predicate for step in store._compiled(query, None).steps]

        assert bound_order() == [alpha, beta]
        store.insert(facts(alpha, 10, "t"))
        assert bound_order() == [beta, alpha]
        assert bound_order() == [step.pattern.predicate for step in store.plan(query).steps]

    def test_mutations_invalidate_bound_constants(self, store):
        """A constant unknown at first binding must be re-resolved after an
        insert introduces it — a stale compiled plan would keep answering
        from the 'unmatchable' fast path."""
        zoe = YAGO.term("Zoe")
        query = parse_query("SELECT ?c WHERE { <%s> y:wasBornIn ?c . }" % zoe.value)
        assert len(store.execute(query)) == 0
        store.insert([Triple(zoe, YAGO.term("wasBornIn"), YAGO.term("Berlin"))])
        result = store.execute(query)
        assert [b["c"] for b in result.bindings] == [YAGO.term("Berlin")]

    def test_reference_engine_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            RelationalStore(engine="no-such-engine")

    def test_memo_evicts_least_recently_bound_plan(self, store):
        from repro.lru import LRUCache

        cache = LRUCache(capacity=2)
        plans = {}
        for name in ("a", "b", "c"):
            query = parse_query("SELECT ?p WHERE { ?p y:%s ?o . }" % name)
            plan = store.plan(query)
            plans[name] = (query, plan)
            cache.put(query, plan, stamp=1)
        assert len(cache) == 2
        assert cache.get(plans["a"][0], 1) == (None, False)  # evicted
        assert cache.get(plans["c"][0], 1) == (plans["c"][1], False)
        # Another stamp misses even for a resident entry, and drops it.
        assert cache.get(plans["c"][0], 2) == (None, True)
        assert plans["c"][0] not in cache


class TestQueryTermSpace:
    def test_unknown_terms_get_stable_local_ids(self, store):
        space = QueryTermSpace(store.table.dictionary)
        ghost = IRI("http://example.org/ghost")
        known = YAGO.term("Alice")
        assert space.encode(known) == store.table.dictionary.lookup(known)
        first = space.encode(ghost)
        assert first < 0
        assert space.encode(ghost) == first  # deduplicated per execution
        assert space.decode(first) == ghost
        mapping = space.decode_map([first, space.encode(known)])
        assert mapping[first] == ghost and mapping[space.encode(known)] == known


class TestJoinResultTableHashJoin:
    def test_shared_variable_join_filters_like_the_nested_loop(self):
        """The hash-indexed join must produce exactly what the cartesian
        merge-and-filter produced: matching rows only, same order, same
        ``rows_joined`` charge."""
        alice, bob = YAGO.term("Alice"), YAGO.term("Bob")
        bindings = [{"p": alice, "x": Literal("1")}, {"p": bob, "x": Literal("2")}]
        table = ResultTable.from_rows(
            name="tmp",
            variables=("p", "tag"),
            rows=[(alice, Literal("a1")), (alice, Literal("a2")), (YAGO.term("Carol"), Literal("c"))],
        )
        counters = WorkCounters()
        joined = join_result_table(bindings, table, counters)
        assert joined == [
            {"p": alice, "x": Literal("1"), "tag": Literal("a1")},
            {"p": alice, "x": Literal("1"), "tag": Literal("a2")},
        ]
        assert counters.rows_scanned == 3  # the table's rows
        assert counters.rows_joined == 2  # produced tuples only

    def test_disjoint_table_still_produces_the_cartesian_product(self):
        bindings = [{"p": YAGO.term("Alice")}]
        table = ResultTable.from_rows(name="tmp", variables=("y",), rows=[(Literal("1"),), (Literal("2"),)])
        counters = WorkCounters()
        joined = join_result_table(bindings, table, counters)
        assert len(joined) == 2
        assert counters.rows_joined == 2
