"""Unit tests for partition construction — pinned to Fig. 2."""

import pytest

from repro.constants import BLANK
from repro.core import MiningParams, build_partitions, frequent_pivots
from repro.core.partition import merge_weighted
from repro.core.rewrite import pivot_rewrites
from repro.sequence.encoding import encode_sequence


@pytest.fixture
def V(fig1_vocabulary):
    return fig1_vocabulary


@pytest.fixture
def params():
    return MiningParams(sigma=2, gamma=1, lam=3)


def enc(V, *names):
    return tuple(V.id(n) if n != "_" else BLANK for n in names)


def render_partition(V, partition):
    return {V.render(seq): weight for seq, weight in partition.items()}


class TestFrequentPivots:
    def test_t1_pivots(self, V):
        t1 = enc(V, "a", "b1", "a", "b1")
        got = frequent_pivots(V, t1, sigma=2)
        assert [V.name(i) for i in got] == ["a", "B", "b1"]

    def test_t6_pivots_via_generalization(self, V):
        """T6 = b13 f d2 feeds P_B, P_b1, P_D although none occur directly."""
        t6 = enc(V, "b13", "f", "d2")
        got = frequent_pivots(V, t6, sigma=2)
        assert [V.name(i) for i in got] == ["B", "b1", "D"]

    def test_high_sigma_drops_everything(self, V):
        t1 = enc(V, "a", "b1", "a", "b1")
        assert frequent_pivots(V, t1, sigma=100) == []


class TestEmissions:
    def test_t5_emissions(self, V, params):
        """T5 = a b12 d1 c feeds P_B, P_b1, P_c, P_D; its pivot-a rewrite
        collapses to an isolated pivot and is dropped (cf. Fig. 2: P_a only
        holds rewrites of T1 and T4)."""
        t5 = enc(V, "a", "b12", "d1", "c")
        got = {
            V.name(pivot): V.render(seq)
            for pivot, seq in pivot_rewrites(V, t5, params)
        }
        assert got == {
            "B": "a B",
            "b1": "a b1",
            "c": "a b1 _ c",
            "D": "a b1 D c",
        }


class TestFig2Partitions:
    """The exact partitions of Fig. 2 (σ=2, γ=1, λ=3)."""

    @pytest.fixture
    def partitions(self, V, params, fig1_database):
        encoded = [V.encode_sequence(t) for t in fig1_database]
        return build_partitions(V, encoded, params)

    def test_partition_keys(self, V, partitions):
        assert sorted(V.name(p) for p in partitions) == sorted(
            ["a", "B", "b1", "c", "D"]
        )

    def test_pa(self, V, partitions):
        assert render_partition(V, partitions[V.id("a")]) == {"a _ a": 2}

    def test_pB(self, V, partitions):
        assert render_partition(V, partitions[V.id("B")]) == {
            "a B a B": 1,
            "a B": 2,
            "B a _ a": 1,
        }

    def test_pb1(self, V, partitions):
        assert render_partition(V, partitions[V.id("b1")]) == {
            "a b1 a b1": 1,
            "b1 a _ a": 1,
            "a b1": 1,
        }

    def test_pc(self, V, partitions):
        assert render_partition(V, partitions[V.id("c")]) == {
            "a B c c B": 1,
            "a c": 1,
            "a b1 _ c": 1,
        }

    def test_pD(self, V, partitions):
        assert render_partition(V, partitions[V.id("D")]) == {
            "a b1 D c": 1,
            "b1 _ D": 1,
        }


class TestAggregation:
    def test_merge_weighted(self):
        got = merge_weighted([((1,), 2), ((1,), 3), ((2,), 1)])
        assert got == {(1,): 5, (2,): 1}
        # the mining job merges the encoded bytes, not the tuples
        a, b = encode_sequence((1, BLANK, 2)), encode_sequence((1, 2))
        assert merge_weighted([(a, 2), (b, 1), (a, 3)]) == {a: 5, b: 1}

    def test_empty(self):
        assert merge_weighted([]) == {}
