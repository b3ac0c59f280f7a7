"""Unit tests for the compiled-query-plan engine (:mod:`repro.query.plan`).

The differential harness proves the engine agrees with its oracles end
to end; this file pins down the pieces — the position bitmap geometry,
window shift algebra, plan structure, the plan counters, thread-safety
of per-request plans, hierarchy-aware disjunction hoisting, and every
query shape against the reference DP.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.query.plan import PositionSpace, QueryPlan, iter_bit_indexes
from repro.query.tokens import normalize_query
from repro.serve import open_store, write_sharded_store, write_store
from tests.query.dp_reference import dp_search


@pytest.fixture(scope="module")
def small_index() -> PatternIndex:
    """Five patterns over {a, c, B > {b1, b2}} (see test_oneof_floor)."""
    hierarchy = Hierarchy()
    for root in ("a", "B", "c"):
        hierarchy.add_item(root)
    for child in ("b1", "b2"):
        hierarchy.add_edge(child, "B")
    patterns = {
        ("a", "b1"): 5,
        ("a", "b2"): 3,
        ("a", "c"): 2,
        ("B",): 7,
        ("b1",): 4,
    }
    return PatternIndex(*code_patterns(patterns, hierarchy))


def _coded(index) -> dict:
    """The index's patterns as a coded pattern → frequency mapping."""
    encode = index.vocabulary.encode_sequence
    return {encode(m.pattern): m.frequency for m in index}


def _compiled(backend, query):
    return backend._compile(normalize_query(query))


def _answers(backend, query, **kwargs):
    return [
        (m.render(), m.frequency) for m in backend.search(query, **kwargs)
    ]


# ----------------------------------------------------------------------
# bitmap primitives
# ----------------------------------------------------------------------


class TestIterBitIndexes:
    def test_empty(self):
        assert list(iter_bit_indexes(0)) == []

    def test_ascending(self):
        assert list(iter_bit_indexes(0b101001)) == [0, 3, 5]

    def test_large_indexes(self):
        mask = (1 << 500) | (1 << 9000) | 1
        assert list(iter_bit_indexes(mask)) == [0, 500, 9000]


class TestPositionSpace:
    def test_geometry(self):
        space = PositionSpace([2, 3, 1])
        # fields are padded by the max length: length + max_len apart
        assert space.max_len == 3
        assert space.offsets == [0, 5, 11]
        assert space.total == 15
        # valid marks exactly the in-field slots
        expected_valid = 0
        for base, length in zip(space.offsets, [2, 3, 1]):
            for slot in range(base, base + length):
                expected_valid |= 1 << slot
        assert space.valid == expected_valid
        assert list(iter_bit_indexes(space.starts)) == [0, 5, 11]
        assert list(iter_bit_indexes(space.ends)) == [1, 7, 11]

    def test_empty_space(self):
        """A shard that holds no patterns still gets a space."""
        space = PositionSpace([])
        assert space.offsets == []
        assert space.valid == space.starts == space.ends == 0
        assert space.shift_window_up(space.starts, (0, None)) == 0

    def test_shift_window_up_exact(self):
        space = PositionSpace([3])
        # from position 0, advancing exactly 2 lands on position 2
        assert space.shift_window_up(1 << 0, (2, 2)) == 1 << 2

    def test_shift_window_up_range_and_unbounded(self):
        space = PositionSpace([4])
        bits = 1 << 0
        assert space.shift_window_up(bits, (1, 2)) == (1 << 1) | (1 << 2)
        assert space.shift_window_up(bits, (0, None)) == 0b1111

    def test_shift_clamps_overlong_distances(self):
        space = PositionSpace([3])
        # no field can hold two slots 5 apart: lower bound beyond the
        # longest pattern admits nothing
        assert space.shift_window_up(1 << 0, (5, None)) == 0

    def test_shifts_never_cross_fields(self):
        space = PositionSpace([2, 2])
        last_of_first = 1 << 1
        # even an unbounded window stays inside the first field
        reached = space.shift_window_up(last_of_first, (0, None))
        assert reached == last_of_first
        first_of_second = 1 << space.offsets[1]
        down = space.shift_window_down(first_of_second, (0, None))
        assert down == first_of_second

    def test_shift_window_down_mirrors_up(self):
        space = PositionSpace([4])
        bits = 1 << 3
        assert space.shift_window_down(bits, (1, 2)) == (1 << 1) | (1 << 2)

    def test_field_indexes_deduplicates(self):
        space = PositionSpace([2, 3])
        bits = (1 << 0) | (1 << 1) | (1 << space.offsets[1])
        assert space.field_indexes(bits) == [0, 1]


# ----------------------------------------------------------------------
# plan structure
# ----------------------------------------------------------------------


class TestQueryPlanStructure:
    def test_chain_and_windows(self, small_index):
        plan = QueryPlan(_compiled(small_index, "a * b1"), small_index)
        assert [kind for kind, _ in plan.chain] == ["in", "in"]
        # prefix window, the span between the items, tail window
        assert plan.windows == [(0, 0), (0, None), (0, 0)]
        assert plan.min_len == 2
        assert plan.max_len is None

    def test_wildcards_fold_into_windows(self, small_index):
        plan = QueryPlan(_compiled(small_index, "? *{1,2} a +"), small_index)
        assert [kind for kind, _ in plan.chain] == ["in"]
        assert plan.windows == [(2, 3), (1, None)]
        assert plan.min_len == 4

    def test_negation_is_a_chain_node(self, small_index):
        plan = QueryPlan(_compiled(small_index, "!c"), small_index)
        assert [kind for kind, _ in plan.chain] == ["notin"]
        assert plan.min_len == 1
        assert plan.max_len == 1

    def test_empty_chain_is_pure_length_test(self, small_index):
        plan = QueryPlan(_compiled(small_index, "? ?"), small_index)
        assert plan.chain == []
        assert (plan.min_len, plan.max_len) == (2, 2)
        # exactly the two-item patterns, in rank order: a b1 (5),
        # a b2 (3), a c (2) — the one-item B (7) and b1 (4) are skipped
        assert list(plan.length_scan_indexes(small_index)) == [1, 3, 4]

    def test_unsatisfiable_floor(self, small_index):
        plan = QueryPlan(_compiled(small_index, "(a|c)@1000"), small_index)
        assert plan.unsatisfiable

    def test_candidate_mask_none_when_unrestricted(self, small_index):
        # all-negative query: no positive postings to intersect
        plan = QueryPlan(_compiled(small_index, "!c"), small_index)
        assert plan.candidate_mask(small_index) is None

    def test_candidate_mask_intersects_postings(self, small_index):
        plan = QueryPlan(_compiled(small_index, "a b1"), small_index)
        mask = plan.candidate_mask(small_index)
        admitted = set(iter_bit_indexes(mask))
        # patterns containing BOTH a and b1: only 'a b1' (idx by rank)
        expected = {
            idx
            for idx in range(small_index._num_patterns())
            if {small_index.vocabulary.id("a"), small_index.vocabulary.id("b1")}
            <= set(small_index._pattern_at(idx)[0])
        }
        assert admitted == expected


# ----------------------------------------------------------------------
# plan counters + per-request plans
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_paths_counters(self, small_index):
        base = small_index.plan_stats()["paths"]
        small_index.search("a ?")  # positional backend: exact
        small_index.search("? ?")  # no chain: wildcard scan
        paths = small_index.plan_stats()["paths"]
        assert paths["exact"] == base["exact"] + 1
        assert paths["wildcard"] == base["wildcard"] + 1

    def test_stats_say_what_is_left(self, small_index):
        before = small_index.plan_stats()
        assert set(before) == {"compiles", "space_builds", "paths", "sources"}
        assert set(before["paths"]) == {"exact", "wildcard"}
        assert set(before["sources"]) == {"postings", "candidates"}
        # a plan is a per-request value: the repeat builds its own
        small_index.search("a ? *{0,1}")
        small_index.search("a ? *{0,1}")
        after = small_index.plan_stats()
        assert after["compiles"] == before["compiles"] + 2
        assert after["compiles"] >= sum(after["paths"].values())

    def test_unmaskable_chain_answers_as_reference(self, small_index):
        """``!c`` has no positive node to mask on: the length-range scan
        is the candidate set, and the answer is the reference DP's."""
        plan = QueryPlan(_compiled(small_index, "!c ?"), small_index)
        assert plan.candidate_mask(small_index) is None
        exact = small_index.plan_stats()["paths"]["exact"]
        reference = dp_search(small_index, "!c ?")
        assert reference
        assert _answers(small_index, "!c ?") == [
            (" ".join(names), freq) for names, freq in reference
        ]
        assert small_index.plan_stats()["paths"]["exact"] == exact + 1

    def test_threads_answer_as_one_thread_does(self, small_index, tmp_path):
        """8 threads × the same 50 queries on one cold backend: plans
        are per-request values, so nothing is shared that a lock would
        have to guard — what the deleted plan locks used to guarantee."""
        path = tmp_path / "threads.shards"
        write_sharded_store(
            path, _coded(small_index), small_index.vocabulary, shards=2
        )
        queries = [
            f"{QUERIES[i % len(QUERIES)]} *{{0,{i // len(QUERIES)}}}"
            for i in range(50)
        ]
        expected = [_answers(small_index, q) for q in queries]
        cold_index = PatternIndex(
            _coded(small_index), small_index.vocabulary
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with open_store(path) as store:
                for backend in (cold_index, store):
                    results: list = [None] * 8
                    start = threading.Barrier(8)

                    def worker(slot, backend=backend):
                        start.wait(timeout=10)
                        results[slot] = [
                            _answers(backend, q) for q in queries
                        ]

                    threads = [
                        threading.Thread(target=worker, args=(slot,))
                        for slot in range(8)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# node slot maps: positional postings or the candidates' own items
# ----------------------------------------------------------------------


class TestNodeSources:
    def test_ubiquitous_category_beside_a_rare_item_is_never_decoded(
        self, tmp_path
    ):
        """``rare ^C``: the mask is ``rare``'s two patterns, and
        building ``^C``'s map from those two candidates is cheaper than
        decoding the positional postings of C's subtree, which every
        other pattern holds — so those postings are never read."""
        hierarchy = Hierarchy()
        hierarchy.add_item("C")
        hierarchy.add_item("rare")
        children = [f"c{n}" for n in range(6)]
        for child in children:
            hierarchy.add_item(child, "C")
        patterns = {
            (first, second): 100 + 6 * n + m
            for n, first in enumerate(children)
            for m, second in enumerate(children)
        }
        patterns.update({("rare", "c0"): 3, ("rare",): 2, ("c1", "rare"): 1})
        coded, vocabulary = code_patterns(patterns, hierarchy)
        write_store(tmp_path / "skew.store", coded, vocabulary)
        subtree = {vocabulary.id(name) for name in ("C", *children)}
        with open_store(tmp_path / "skew.store") as store:
            read: list[int] = []
            decode = store._positional_postings_for

            def spy(item_id):
                read.append(item_id)
                return decode(item_id)

            store._positional_postings_for = spy
            before = store.plan_stats()["sources"]
            got = _answers(store, "rare ^C")
            after = store.plan_stats()["sources"]
        assert got == [("rare c0", 3)]
        assert read and not subtree & set(read), read
        assert after["candidates"] == before["candidates"] + 1
        assert after["postings"] == before["postings"] + 1


# ----------------------------------------------------------------------
# hierarchy-aware disjunction hoisting
# ----------------------------------------------------------------------


class TestDisjunctionHoisting:
    def test_subtree_disjunction_becomes_under(self, small_index):
        vocab = small_index.vocabulary
        (token,) = _compiled(small_index, "(B|b1|b2)")
        assert token == ("under", vocab.id("B"))

    def test_partial_subtree_stays_oneof(self, small_index):
        (token,) = _compiled(small_index, "(b1|b2)")
        # B itself is missing: not a full subtree
        assert token[0] == "oneof"

    def test_singleton_disjunction_becomes_item(self, small_index):
        vocab = small_index.vocabulary
        (token,) = _compiled(small_index, "(c|c)")
        assert token == ("item", vocab.id("c"))

    def test_hoisted_answers_match_subtree_query(self, small_index):
        assert _answers(small_index, "(B|b1|b2)") == _answers(
            small_index, "^B"
        )

    def test_floor_filtered_set_hoists_too(self, small_index):
        # every member of B's subtree clears floor 0: same as ^B
        assert _compiled(small_index, "(B|b1|b2)@0") == _compiled(
            small_index, "^B"
        )


# ----------------------------------------------------------------------
# every query shape against the reference DP
# ----------------------------------------------------------------------

QUERIES = (
    "a ?",
    "a * b1",
    "a *{0,1} ?",
    "? ?",
    "*",
    "!c",
    "!a ? *",
    "^B",
    "a !^B",
    "(b1|c)",
    "a +",
    "+ b1",
    "*{1,} b1",
    "?@4 ?",
)


class TestAcceleratedEqualsReference:
    @pytest.mark.parametrize("query", QUERIES)
    def test_index_paths_agree(self, small_index, query):
        assert _answers(small_index, query) == [
            (" ".join(names), freq)
            for names, freq in dp_search(small_index, query)
        ]

    def test_sharded_store_agrees(self, small_index, tmp_path):
        path = tmp_path / "reference.shards"
        write_sharded_store(
            path, _coded(small_index), small_index.vocabulary, shards=2
        )
        with open_store(path) as store:
            for query in QUERIES:
                assert _answers(store, query) == _answers(small_index, query)
            # the sharded handle aggregates its shards' counters
            assert store.plan_stats()["paths"]["exact"] > 0
