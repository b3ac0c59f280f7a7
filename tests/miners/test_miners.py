"""Unit tests for the BFS / DFS / brute local miners."""

import pytest

from repro import BfsMiner, BruteForceMiner, DfsMiner, MiningParams
from repro.constants import BLANK


@pytest.fixture
def V(fig1_vocabulary):
    return fig1_vocabulary


def enc(V, *names):
    return tuple(V.id(n) if n != "_" else BLANK for n in names)


def decode(V, mined):
    return {tuple(V.name(i) for i in s): f for s, f in mined.items()}


class TestDfs:
    PARAMS = MiningParams(sigma=2, gamma=1, lam=3)

    def test_only_pivot_sequences_output(self, V):
        partition = {enc(V, "a", "c", "a", "c"): 2}
        got = DfsMiner(V, self.PARAMS).mine_partition(partition, V.id("c"))
        for seq in got:
            assert max(seq) == V.id("c")

    def test_explores_non_pivot_sequences(self, V):
        """The overhead LASH avoids: aa is explored although p(aa) ≠ c."""
        params = MiningParams(sigma=1, gamma=1, lam=3)
        partition = {enc(V, "a", "a", "c"): 1}
        dfs = DfsMiner(V, params)
        psm_equivalent_outputs = dfs.mine_partition(partition, V.id("c"))
        assert ("a", "a") not in decode(V, psm_equivalent_outputs)
        # 2 item candidates (a, c) + right-expansions of a, aa, ac and c
        assert dfs.stats.candidates > len(psm_equivalent_outputs)

    def test_respects_lambda(self, V):
        params = MiningParams(sigma=1, gamma=0, lam=2)
        partition = {enc(V, "a", "a", "c"): 1}
        got = DfsMiner(V, params).mine_partition(partition, V.id("c"))
        assert all(len(s) <= 2 for s in got)

    def test_hierarchy_expansion(self, V):
        params = MiningParams(sigma=1, gamma=0, lam=2)
        partition = {enc(V, "a", "b1"): 1}
        got = decode(V, DfsMiner(V, params).mine_partition(partition, V.id("b1")))
        assert got == {("a", "b1"): 1}  # aB has pivot B, mined elsewhere


class TestBfs:
    PARAMS = MiningParams(sigma=2, gamma=1, lam=3)

    def test_matches_brute_on_paper_partitions(self, V, fig1_database):
        from repro.core import build_partitions

        encoded = [V.encode_sequence(t) for t in fig1_database]
        partitions = build_partitions(V, encoded, self.PARAMS)
        for pivot, partition in partitions.items():
            bfs = BfsMiner(V, self.PARAMS).mine_partition(partition, pivot)
            brute = BruteForceMiner(V, self.PARAMS).mine_partition(
                partition, pivot
            )
            assert bfs == brute, V.name(pivot)

    def test_posting_peak_tracked(self, V):
        partition = {enc(V, "a", "c", "a", "c", "a"): 3}
        miner = BfsMiner(V, MiningParams(2, 1, 4))
        miner.mine_partition(partition, V.id("c"))
        assert miner.peak_postings > 0

    def test_level2_paper_example(self, V):
        """T = c a b1 D joins 8 posting lists (paper Sec. 5.1)."""
        params = MiningParams(sigma=1, gamma=1, lam=2)
        miner = BfsMiner(V, params)
        miner._pivot = V.id("D")
        partition = {enc(V, "c", "a", "b1", "D"): 1}
        postings = miner._build_2seq_postings(
            partition.items(),
            frequent_items=set(range(len(V))),
        )
        rendered = {
            (V.name(x), V.name(y)) for (x, y) in postings
        }
        assert rendered == {
            ("c", "a"), ("c", "b1"), ("c", "B"), ("a", "b1"),
            ("a", "B"), ("a", "D"), ("b1", "D"), ("B", "D"),
        }

    def test_empty_partition(self, V):
        assert BfsMiner(V, self.PARAMS).mine_partition({}, V.id("c")) == {}


class TestBrute:
    def test_weights_and_blanks(self, V):
        # γ=0: the blank blocks a..c in the second sequence, so the weight-5
        # copies contribute nothing and 2 < σ filters the rest.
        params = MiningParams(sigma=3, gamma=0, lam=2)
        partition = {enc(V, "a", "c"): 2, enc(V, "a", "_", "c"): 5}
        got = decode(V, BruteForceMiner(V, params).mine_partition(
            partition, V.id("c")
        ))
        assert got == {}

    def test_respects_sigma(self, V):
        params = MiningParams(sigma=2, gamma=0, lam=2)
        partition = {enc(V, "a", "c"): 2}
        got = decode(V, BruteForceMiner(V, params).mine_partition(
            partition, V.id("c")
        ))
        assert got == {("a", "c"): 2}
