"""Unit tests for the cost-based query planner (:mod:`repro.query.cost`).

The differential harness proves every strategy the planner can choose
is answer-invariant; this file pins the *decisions* — node ordering and
the skip rule, the estimator's strategy picks on skewed statistics,
shared position-space slicing, the explain/estimate public surface —
and that nothing per-query outlives the request that priced it.
Decisions are asserted, raw cost numbers are not: only the ratios in
:mod:`repro.analysis.costmodel` are meaningful.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.analysis.costmodel import NODE_SKIP_FACTOR
from repro.errors import InvalidParameterError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.query.cost import (
    PLAN_STRATEGIES,
    CostEstimate,
    combine_estimates,
    order_mask_nodes,
)
from repro.query.plan import PositionSpace


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
    def test_wire_projection_is_integer_only(self, skewed_index):
        wire = skewed_index.estimate_cost("common rare").to_wire()
        assert isinstance(wire["cost"], int)
        assert set(wire) == {
            "cost", "strategy", "candidates", "scan_candidates", "shards",
        }

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

    def test_estimate_carries_its_plans_outside_its_value(self, skewed_index):
        first = skewed_index.estimate_cost("common rare")
        second = skewed_index.estimate_cost("common rare")
        plan, strategy = first.plans[skewed_index]
        assert strategy == first.strategy
        assert second.plans[skewed_index][0] is not plan  # built per call
        assert first == second  # the plans are no part of the value
        assert "plans" not in first.to_dict()
        assert "plans" not in first.to_wire()
        assert "plans" not in repr(first)
        assert combine_estimates([first, None]).plans == first.plans


# ----------------------------------------------------------------------
# shared position space slices
# ----------------------------------------------------------------------


class TestPositionSpaceSlices:
    LENGTHS = [2, 3, 1, 4, 2, 2]

    def test_slice_equals_direct_build_with_global_pad(self):
        space = PositionSpace(self.LENGTHS)
        view = space.slice_fields(1, 3)
        direct = PositionSpace(self.LENGTHS[1:4], pad=space.pad)
        assert view.offsets == direct.offsets
        assert view.valid == direct.valid
        assert view.pad == direct.pad
        assert view.total == direct.total

    def test_slices_partition_the_space(self):
        space = PositionSpace(self.LENGTHS)
        first = space.slice_fields(0, 2)
        rest = space.slice_fields(2, 4)
        assert len(first.offsets) + len(rest.offsets) == len(self.LENGTHS)
        # rebased: every slice starts at its own origin
        assert first.offsets[0] == 0
        assert rest.offsets[0] == 0

    def test_empty_slice(self):
        space = PositionSpace(self.LENGTHS)
        view = space.slice_fields(3, 0)
        assert view.offsets == []
        assert view.valid == 0

    def test_pad_below_max_len_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            PositionSpace([3, 1], pad=2)
