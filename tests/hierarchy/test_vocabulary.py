"""Unit tests for the encoded Vocabulary."""

import pytest

from repro.constants import BLANK, NO_PARENT
from repro.errors import HierarchyError, UnknownItemError
from repro.hierarchy import Hierarchy, Vocabulary, build_vocabulary


def simple_vocab() -> Vocabulary:
    # order: B < b1 < b2 < b11 (already hierarchy-compatible)
    h = Hierarchy.from_edges([("b1", "B"), ("b2", "B"), ("b11", "b1")])
    return Vocabulary(["B", "b1", "b2", "b11"], h, [10, 6, 3, 2])


class TestBasics:
    def test_id_roundtrip(self):
        v = simple_vocab()
        for name in ("B", "b1", "b2", "b11"):
            assert v.name(v.id(name)) == name

    def test_len_and_contains(self):
        v = simple_vocab()
        assert len(v) == 4
        assert "b1" in v
        assert "zzz" not in v

    def test_unknown_name(self):
        with pytest.raises(UnknownItemError):
            simple_vocab().id("zzz")

    def test_unknown_id(self):
        with pytest.raises(UnknownItemError):
            simple_vocab().name(99)

    def test_blank_renders_as_underscore(self):
        assert simple_vocab().name(BLANK) == "_"

    def test_frequencies(self):
        v = simple_vocab()
        assert v.frequency(v.id("B")) == 10
        assert v.frequency_of("b11") == 2

    def test_frequent_ids(self):
        v = simple_vocab()
        assert v.frequent_ids(3) == [0, 1, 2]
        assert v.frequent_ids(100) == []

    def test_duplicate_names_rejected(self):
        h = Hierarchy.flat(["x"])
        with pytest.raises(HierarchyError):
            Vocabulary(["x", "x"], h, [1, 1])

    def test_misaligned_frequencies_rejected(self):
        h = Hierarchy.flat(["x"])
        with pytest.raises(HierarchyError):
            Vocabulary(["x"], h, [1, 2])

    def test_order_must_respect_hierarchy(self):
        h = Hierarchy.from_edges([("b1", "B")])
        with pytest.raises(HierarchyError):
            Vocabulary(["b1", "B"], h, [5, 5])  # child before parent


class TestStructure:
    def test_parent_ids(self):
        v = simple_vocab()
        assert v.parent_id(v.id("b11")) == v.id("b1")
        assert v.parent_id(v.id("B")) == NO_PARENT

    def test_ancestors_or_self_ascending(self):
        v = simple_vocab()
        b11 = v.id("b11")
        assert v.ancestors_or_self(b11) == (v.id("B"), v.id("b1"), b11)

    def test_ancestors_of_blank_empty(self):
        assert simple_vocab().ancestors_or_self(BLANK) == ()

    def test_generalizes_to(self):
        v = simple_vocab()
        assert v.generalizes_to(v.id("b11"), v.id("B"))
        assert v.generalizes_to(v.id("b1"), v.id("b1"))
        assert not v.generalizes_to(v.id("B"), v.id("b1"))
        assert not v.generalizes_to(v.id("b2"), v.id("b1"))

    def test_generalizes_to_blank_never_matches(self):
        v = simple_vocab()
        assert not v.generalizes_to(BLANK, v.id("B"))
        assert not v.generalizes_to(v.id("b1"), BLANK)

    def test_depth(self):
        v = simple_vocab()
        assert v.depth(v.id("B")) == 0
        assert v.depth(v.id("b11")) == 2

    def test_item_not_in_hierarchy_is_isolated_root(self):
        h = Hierarchy.flat(["x"])
        v = Vocabulary(["x", "y"], h, [2, 1])
        assert v.ancestors_or_self(v.id("y")) == (v.id("y"),)

    def test_child_ids_invert_parent_ids(self):
        v = simple_vocab()
        B, b1, b2, b11 = (v.id(n) for n in ("B", "b1", "b2", "b11"))
        assert v.child_ids(B) == (b1, b2)
        assert v.child_ids(b1) == (b11,)
        assert v.child_ids(b2) == v.child_ids(b11) == ()

    def test_child_ids_of_a_dag_node_under_each_parent(self):
        h = Hierarchy()
        h.add_edge("x", "p")
        h.add_edge("x", "q")
        h.add_edge("q", "p")
        v = Vocabulary(["p", "q", "x", "y"], h, [5, 4, 3, 2])
        p, q, x, y = (v.id(n) for n in ("p", "q", "x", "y"))
        assert v.child_ids(p) == (q, x)
        assert v.child_ids(q) == (x,)
        assert v.child_ids(y) == ()  # outside the hierarchy


class TestLargestRelevantAncestor:
    def test_relevant_item_returns_self(self):
        v = simple_vocab()
        assert v.largest_relevant_ancestor(v.id("b1"), v.id("b2")) == v.id("b1")

    def test_irrelevant_item_generalizes(self):
        v = simple_vocab()
        # pivot b1: b11 > b1 generalizes to b1 itself
        assert v.largest_relevant_ancestor(v.id("b11"), v.id("b1")) == v.id("b1")

    def test_irrelevant_item_generalizes_to_largest(self):
        v = simple_vocab()
        # pivot b2: b11's qualifying ancestors are B and b1; largest is b1
        assert v.largest_relevant_ancestor(v.id("b11"), v.id("b2")) == v.id("b1")

    def test_no_relevant_ancestor_is_blank(self):
        v = simple_vocab()
        # pivot B (id 0): b2 has only ancestor B; B ≤ B so generalizes to B
        assert v.largest_relevant_ancestor(v.id("b2"), v.id("B")) == v.id("B")
        # an isolated item with no qualifying ancestor
        h = Hierarchy.flat(["x", "y"])
        v2 = Vocabulary(["x", "y"], h, [5, 1])
        assert v2.largest_relevant_ancestor(v2.id("y"), v2.id("x")) == BLANK

    def test_blank_input(self):
        assert simple_vocab().largest_relevant_ancestor(BLANK, 0) == BLANK

    def test_dag_safe_fallback(self):
        # x has two incomparable parents p and q; replacing x by either would
        # lose the other, so the item must be kept.
        h = Hierarchy()
        h.add_edge("x", "p")
        h.add_edge("x", "q")
        h.add_item("w")
        v = Vocabulary(["p", "q", "w", "x"], h, [5, 4, 3, 2])
        x, w = v.id("x"), v.id("w")
        assert v.largest_relevant_ancestor(x, w) == x

    def test_dag_exact_when_chain_within_threshold(self):
        # x -> {p, q}, q -> p: ancestors {p, q} are a chain; pivot ≥ q allows
        # exact replacement by q.
        h = Hierarchy()
        h.add_edge("x", "p")
        h.add_edge("x", "q")
        h.add_edge("q", "p")
        h.add_item("w")
        v = Vocabulary(["p", "q", "w", "x"], h, [5, 4, 3, 2])
        assert v.largest_relevant_ancestor(v.id("x"), v.id("w")) == v.id("q")


class TestSequences:
    def test_encode_decode_roundtrip(self):
        v = simple_vocab()
        seq = ("b1", "B", "b11")
        assert v.decode_sequence(v.encode_sequence(seq)) == seq

    def test_render_with_blank(self):
        v = simple_vocab()
        assert v.render([v.id("b1"), BLANK, v.id("B")]) == "b1 _ B"


class TestPaperOrder:
    def test_fig2_flist_order(self, fig1_database, fig1_hierarchy):
        """Fig. 2: a < B < b1 < c < D with frequencies 5,5,4,3,2."""
        v = build_vocabulary(fig1_database, fig1_hierarchy)
        names = [v.name(i) for i in range(5)]
        assert names == ["a", "B", "b1", "c", "D"]
        assert [v.frequency(i) for i in range(5)] == [5, 5, 4, 3, 2]

    def test_fig2_infrequent_items_are_larger(self, fig1_vocabulary):
        v = fig1_vocabulary
        for rare in ("b2", "b3", "b11", "b12", "b13", "d1", "d2", "e", "f"):
            assert v.id(rare) > v.id("D")
            assert v.frequency_of(rare) == 1

    def test_order_property_parent_smaller(self, fig1_vocabulary):
        """w2 → w1 implies w1 < w2 (paper Sec. 3.4)."""
        v = fig1_vocabulary
        for name in ("b1", "b2", "b3", "b11", "b12", "b13", "d1", "d2"):
            item = v.id(name)
            for anc in v.ancestors(item):
                assert anc < item
