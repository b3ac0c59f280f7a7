"""Unit tests for the cost-based query planner (:mod:`repro.query.cost`).

The differential harness proves every strategy the planner can choose
is answer-invariant; this file pins the *decisions* — node ordering and
the skip rule, the estimator's strategy picks on skewed statistics,
the explain/estimate public surface — and that nothing per-query
outlives the request that priced it.
Decisions are asserted, raw cost numbers are not: only the ratios in
:mod:`repro.query.cost` are meaningful.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from repro.errors import InvalidParameterError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.query.cost import (
    NODE_SKIP_FACTOR,
    PLAN_STRATEGIES,
    CostEstimate,
    combine_estimates,
    order_mask_nodes,
)
from repro.serve import open_store, write_sharded_store, write_store


@pytest.fixture(scope="module")
def skewed_index() -> PatternIndex:
    """A corpus with one ubiquitous item and one rare one: ``common``
    posts to 121 patterns, ``rare`` to 2 — past the node ordering's
    skip factor, so a ``common rare`` query should intersect only the
    rare node and DP-verify."""
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
# the estimator's strategy decisions
# ----------------------------------------------------------------------


class TestEstimatorDecisions:
    def test_skewed_pair_prunes_and_skips_the_common_node(
        self, skewed_index
    ):
        plan = skewed_index.explain("common rare")
        estimate = plan["estimate"]
        assert plan["strategy"] == "pruned"
        by_postings = sorted(
            estimate["nodes"], key=lambda node: node["postings"]
        )
        assert by_postings[0]["skipped"] is False  # rare: the mask
        assert by_postings[-1]["skipped"] is True  # common: skipped
        # candidate prediction tracks the rare postings, not the scan
        assert estimate["candidates"] <= by_postings[0]["postings"]

    def test_chainless_query_is_a_wildcard_scan(self, skewed_index):
        estimate = skewed_index.estimate_cost("? ?")
        assert estimate.strategy == "wildcard"
        assert estimate.scan_candidates == estimate.candidates > 0

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
        a = CostEstimate(
            cost=10.0, strategy="pruned", candidates=2, scan_candidates=5
        )
        b = CostEstimate(
            cost=4.0, strategy="exact", candidates=1, scan_candidates=3
        )
        combined = combine_estimates([a, b, None])
        assert combined.cost == 14.0
        assert combined.strategy == "mixed"
        assert combined.candidates == 3
        assert combined.scan_candidates == 8
        assert combined.shards == 2
        same = combine_estimates([a, a])
        assert same.strategy == "pruned"

    def test_combine_of_nothing_is_unsatisfiable(self):
        assert combine_estimates([]).strategy == "unsatisfiable"

    def test_set_planner_validates_knobs(self, skewed_index):
        with pytest.raises(InvalidParameterError, match="strategy"):
            skewed_index.set_planner("psychic")
        with pytest.raises(TypeError):
            skewed_index.set_planner("cost", "exact")  # the order knob is gone
        for strategy in (None, *PLAN_STRATEGIES):
            skewed_index.set_planner(strategy)
        skewed_index.set_planner()

    def test_explain_reports_forced_strategy(self, skewed_index):
        try:
            skewed_index.set_planner("scan")
            plan = skewed_index.explain("common rare")
            assert plan["forced_strategy"] == "scan"
            assert plan["strategy"] == "scan"
            assert "order" not in plan
        finally:
            skewed_index.set_planner()


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
        assert kinds <= {"node", "lengths", "scan", "space"}

    @pytest.mark.parametrize("layout", ["index", "store", "sharded"])
    def test_distinct_tokens_grow_nothing_but_statistics(
        self, layout, tmp_path
    ):
        """Tokens are client input: a token is compiled by the request
        that sent it, so 2 000 distinct ``?@N`` floors and 2 000
        distinct disjunctions leave no attribute of a backend (or of a
        shard) larger than the vocabulary bounds it — except the decode
        caches, which carry their own caps, and the planner statistics
        (keyed by id set; ROADMAP 7c)."""
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

        allowed = {"_cost_stat_cache", "_pattern_cache", "_postings_cache"}
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
        plan, strategy = first.plans[skewed_index]
        assert strategy == first.strategy
        assert second.plans[skewed_index][0] is not plan  # built per call
        assert first == second  # the plans are no part of the value
        assert "plans" not in first.to_dict()
        assert "plans" not in repr(first)
        assert combine_estimates([first, None]).plans == first.plans


