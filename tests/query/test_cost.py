"""Unit tests for the cost-based query planner (:mod:`repro.query.cost`).

The differential harness proves every node-map source the planner can
choose is answer-invariant; this file pins the *decisions* — node
ordering and the skip rule, the estimator's source picks on skewed
statistics, the explain/estimate public surface — and that nothing per
query outlives the request that priced it.
Decisions are asserted, raw cost numbers are not: only the ratios in
:mod:`repro.query.cost` are meaningful.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.query.cost import (
    NODE_SKIP_FACTOR,
    CostEstimate,
    combine_estimates,
    order_mask_nodes,
)
from repro.query.plan import QueryPlan
from repro.serve import open_store, write_sharded_store, write_store


@pytest.fixture(scope="module")
def skewed_index() -> PatternIndex:
    """A corpus with one ubiquitous item and one rare one: ``common``
    posts to 121 patterns, ``rare`` to 2 — past the node ordering's
    skip factor, so a ``common rare`` query should intersect only the
    rare node and map ``common`` from the two candidates."""
    hierarchy = Hierarchy()
    for name in ("common", "rare", "mid"):
        hierarchy.add_item(name)
    patterns = {}
    freq = 400
    for length in (1, 2, 3, 4, 5, 6):
        for combo in product(("common", "mid"), repeat=length):
            if "common" in combo:
                patterns[combo] = freq
                freq -= 2
    patterns[("common", "rare")] = 4
    patterns[("rare",)] = 3
    return PatternIndex(*code_patterns(patterns, hierarchy))


# ----------------------------------------------------------------------
# node ordering + skip rule
# ----------------------------------------------------------------------


class TestOrderMaskNodes:
    SIZED = [(100, (1, 2)), (3, (9,)), (40, (5,))]

    def test_cost_sorts_ascending_and_skips_oversized(self):
        included, skipped = order_mask_nodes(list(self.SIZED))
        # ceiling = NODE_SKIP_FACTOR * 3: both 40 and 100 exceed it
        assert NODE_SKIP_FACTOR * 3 < 40
        assert [entries for entries, _ in included] == [3]
        assert [entries for entries, _ in skipped] == [40, 100]

    def test_cost_keeps_balanced_nodes(self):
        sized = [(10, (1,)), (20, (2,)), (60, (3,))]
        included, skipped = order_mask_nodes(sized)
        assert NODE_SKIP_FACTOR * 10 >= 60
        assert [entries for entries, _ in included] == [10, 20, 60]
        assert skipped == []


# ----------------------------------------------------------------------
# the estimator's decisions
# ----------------------------------------------------------------------


class TestEstimatorDecisions:
    def test_skewed_pair_prunes_and_skips_the_common_node(
        self, skewed_index
    ):
        plan = skewed_index.explain("common rare")
        estimate = plan["estimate"]
        assert plan["strategy"] == "exact"
        by_postings = sorted(
            estimate["nodes"], key=lambda node: node["postings"]
        )
        rare, common = by_postings
        assert rare["skipped"] is False  # rare: the mask
        assert common["skipped"] is True  # common: skipped
        # candidate prediction tracks the rare postings, not the scan
        assert estimate["candidates"] <= rare["postings"]
        # rare maps from its postings, common from the candidates
        assert rare["maps"] == {"postings": 1, "candidates": 0}
        assert common["maps"] == {"postings": 0, "candidates": 1}

    def test_chainless_query_is_a_wildcard_scan(self, skewed_index):
        estimate = skewed_index.estimate_cost("? ?")
        assert estimate.strategy == "wildcard"
        # every 2-item pattern: three over {common, mid}, common rare
        assert estimate.candidates == 4
        assert estimate.nodes == ()

    def test_unsatisfiable_floor_costs_nothing(self, skewed_index):
        estimate = skewed_index.estimate_cost("common@999999")
        assert estimate.strategy == "unsatisfiable"
        assert estimate.candidates == 0

    def test_costs_rank_narrow_below_broad(self, skewed_index):
        narrow = skewed_index.estimate_cost("rare").cost
        broad = skewed_index.estimate_cost("? ?").cost
        assert 0 < narrow < broad


# ----------------------------------------------------------------------
# estimate surface
# ----------------------------------------------------------------------


class TestCostEstimate:
    def test_combine_sums_and_reports_mixed_strategies(self):
        """Costs, counts and postings add; shards that chose different
        map sources for a node are reported as a mix, one count per
        source."""
        def node(postings, source):
            maps = {"postings": 0, "candidates": 0, source: 1}
            return {
                "kind": "in", "ids": 1, "postings": postings,
                "skipped": False, "maps": maps,
            }

        a = CostEstimate(
            cost=10.0, strategy="exact", candidates=2,
            nodes=(node(7, "postings"),),
        )
        b = CostEstimate(
            cost=4.0, strategy="exact", candidates=1,
            nodes=(node(30, "candidates"),),
        )
        combined = combine_estimates([a, b, None])
        assert combined.cost == 14.0
        assert combined.strategy == "exact"
        assert combined.candidates == 3
        assert combined.shards == 2
        (merged,) = combined.nodes
        assert merged["postings"] == 37
        assert merged["maps"] == {"postings": 1, "candidates": 1}

    def test_combine_of_nothing_is_unsatisfiable(self):
        assert combine_estimates([]).strategy == "unsatisfiable"

    def test_explain_reports_node_sources(self, skewed_index):
        plan = skewed_index.explain("common rare")
        assert "forced_strategy" not in plan
        assert "scan_candidates" not in plan["estimate"]
        assert [node["maps"] for node in plan["estimate"]["nodes"]] == [
            {"postings": 0, "candidates": 1},
            {"postings": 1, "candidates": 0},
        ]
        # a node admitting every item maps every slot: no source at all
        estimate = skewed_index.explain("(common|mid|rare) rare")["estimate"]
        whole = estimate["nodes"][0]
        assert whole["maps"] == {"postings": 0, "candidates": 0}


# ----------------------------------------------------------------------
# pricing leaves statistics behind, nothing per query
# ----------------------------------------------------------------------


class TestNothingPerQueryIsRetained:
    def test_distinct_queries_leave_only_statistics_keys(self, skewed_index):
        """The estimate used to be parked per distinct query in the
        never-evicted stat cache; 2 000 distinct queries must leave
        only store statistics there."""
        for gap in range(2000):  # 2 000 distinct window shapes
            query = f"common *{{0,{gap}}} (rare|mid)"
            skewed_index.estimate_cost(query)
            skewed_index.search(query, limit=1)
        kinds = {key[0] for key in skewed_index._cost_stat_cache}
        assert kinds <= {"under", "lengths"}

    @pytest.mark.parametrize("layout", ["index", "store", "sharded"])
    def test_distinct_tokens_grow_nothing_but_statistics(
        self, layout, tmp_path
    ):
        """Tokens are client input: a token is compiled by the request
        that sent it, so 2 000 distinct ``?@N`` floors and 2 000
        distinct disjunctions leave no attribute of a backend (or of a
        shard) larger than the vocabulary bounds it — except the decode
        caches, which carry their own caps."""
        names = [f"i{n}" for n in range(12)]
        hierarchy = Hierarchy()
        for name in names:
            hierarchy.add_item(name)
        patterns = {
            pair: 5 + index
            for index, pair in enumerate(combinations(names, 2))
        }
        coded, vocabulary = code_patterns(patterns, hierarchy)
        if layout == "index":
            backend = PatternIndex(coded, vocabulary)
        elif layout == "store":
            write_store(tmp_path / "p.store", coded, vocabulary)
            backend = open_store(tmp_path / "p.store")
        else:
            write_sharded_store(
                tmp_path / "p.shards", coded, vocabulary, shards=2
            )
            backend = open_store(tmp_path / "p.shards")
        disjunctions = [
            "(" + "|".join(choice) + ")"
            for size in (2, 3, 4, 5, 6)
            for choice in combinations(names, size)
        ][:2000]
        assert len(set(disjunctions)) == 2000

        def sized(holder) -> dict[str, int]:
            return {
                name: len(value)
                for name, value in vars(holder).items()
                if hasattr(value, "__len__")
            }

        def holders() -> list:
            return [backend, *filter(None, getattr(backend, "_stores", ()))]

        allowed = {"_pattern_cache", "_postings_cache"}
        try:
            backend.search("i0 ?")  # fault every shard in
            before = [sized(holder) for holder in holders()]
            for n in range(2000):
                backend.search(f"i0 ?@{n + 1}", limit=1)
                backend.search(f"{disjunctions[n]} ?", limit=1)
            after = [sized(holder) for holder in holders()]
        finally:
            if layout != "index":
                backend.close()
        bound = len(vocabulary)
        grown = {
            name
            for was, now in zip(before, after)
            for name, size in now.items()
            if size > max(was.get(name, 0), bound)
        }
        assert grown <= allowed, grown

    def test_estimate_carries_its_plans_outside_its_value(self, skewed_index):
        first = skewed_index.estimate_cost("common rare")
        second = skewed_index.estimate_cost("common rare")
        plan = first.plans[skewed_index]
        assert isinstance(plan, QueryPlan)
        assert second.plans[skewed_index] is not plan  # built per call
        assert first == second  # the plans are no part of the value
        assert "plans" not in first.to_dict()
        assert "plans" not in repr(first)
        assert combine_estimates([first, None]).plans == first.plans

    @pytest.mark.parametrize("layout", ["index", "store", "sharded"])
    def test_stat_memo_is_bounded_by_the_vocabulary(self, layout, tmp_path):
        """The planner memo holds what the store alone decides — the
        length histogram and one postings sum per subtree root — so
        2 000 distinct disjunctions, 2 000 distinct gap bounds and a
        query under every root leave at most |V| + 1 entries."""
        hierarchy = Hierarchy()
        roots = [f"R{n}" for n in range(4)]
        names = []
        for root in roots:
            hierarchy.add_item(root)
            for child in range(3):
                names.append(f"{root}c{child}")
                hierarchy.add_item(names[-1], root)
        patterns = {
            pair: 5 + index
            for index, pair in enumerate(combinations(names, 2))
        }
        coded, vocabulary = code_patterns(patterns, hierarchy)
        if layout == "index":
            backend = PatternIndex(coded, vocabulary)
        elif layout == "store":
            write_store(tmp_path / "p.store", coded, vocabulary)
            backend = open_store(tmp_path / "p.store")
        else:
            write_sharded_store(
                tmp_path / "p.shards", coded, vocabulary, shards=2
            )
            backend = open_store(tmp_path / "p.shards")
        disjunctions = [
            "(" + "|".join(choice) + ")"
            for size in (2, 3, 4, 5, 6)
            for choice in combinations(names, size)
        ][:2000]
        assert len(set(disjunctions)) == 2000
        try:
            for root in roots:
                backend.search(f"^{root} ?", limit=1)
            for n, disjunction in enumerate(disjunctions):
                backend.estimate_cost(f"{disjunction} ?")
                backend.search(f"{names[0]} *{{{n % 7},{n}}} ^R1", limit=1)
            shards = filter(None, getattr(backend, "_stores", ()))
            memos = [
                holder._cost_stat_cache for holder in [backend, *shards]
            ]
        finally:
            if layout != "index":
                backend.close()
        for memo in memos:
            assert len(memo) <= len(vocabulary) + 1, len(memo)
        assert any(("under", vocabulary.id("R1")) in memo for memo in memos)
