"""Integration tests for the LASH driver — the paper's running example."""

import pytest

from repro.core import Lash, MiningParams
from repro.core.lash import FlistJob, PartitionMineJob, mine, resolve_miner
from repro.core.rewrite import pivot_rewrites
from repro.errors import InvalidParameterError
from repro.hierarchy import Hierarchy
from repro.hierarchy.flist import iter_generalized_items
from repro.mapreduce import C, MapReduceJob
from repro.sequence.encoding import decode_sequence, uvarint_size

#: the paper's complete GSM output for σ=2, γ=1, λ=3 (Sec. 2)
PAPER_OUTPUT = {
    ("a", "a"): 2,
    ("a", "b1"): 2,
    ("b1", "a"): 2,
    ("a", "B"): 3,
    ("B", "a"): 2,
    ("a", "B", "c"): 2,
    ("B", "c"): 2,
    ("a", "c"): 2,
    ("b1", "D"): 2,
    ("B", "D"): 2,
}


class TestPaperExample:
    @pytest.mark.parametrize(
        "miner", ["psm", "psm-level", "psm-noindex", "bfs", "dfs", "brute"]
    )
    def test_exact_output_all_miners(self, fig1_database, fig1_hierarchy, miner):
        result = mine(
            fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3,
            local_miner=miner,
        )
        assert result.decoded() == PAPER_OUTPUT

    def test_output_independent_of_engine_layout(
        self, fig1_database, fig1_hierarchy
    ):
        params = MiningParams(2, 1, 3)
        outputs = [
            Lash(params, num_map_tasks=m, num_reduce_tasks=r)
            .mine(fig1_database, fig1_hierarchy)
            .decoded()
            for m, r in [(1, 1), (3, 2), (16, 16)]
        ]
        assert all(o == PAPER_OUTPUT for o in outputs)

    def test_frequency_accessor(self, fig1_database, fig1_hierarchy):
        result = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
        assert result.frequency("a", "B") == 3
        assert result.frequency("B", "D") == 2
        assert result.frequency("a", "D") == 0  # infrequent

    def test_gap_zero_variant(self, fig1_database, fig1_hierarchy):
        """With γ=0 the aBc pattern keeps support 1 < σ (paper Sec. 2)."""
        result = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=0, lam=3)
        assert result.frequency("a", "B", "c") == 0
        assert result.frequency("a", "B") == 3  # a b3 / a b1 / a b12 adjacency

    def test_sigma_one_superset(self, fig1_database, fig1_hierarchy):
        low = mine(fig1_database, fig1_hierarchy, sigma=1, gamma=1, lam=3)
        high = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
        low_patterns = low.decoded()
        for pattern, freq in high.decoded().items():
            assert low_patterns[pattern] == freq

    def test_flat_mining_without_hierarchy(self, fig1_database):
        """hierarchy=None mines flat sequences (MG-FSM mode, Fig. 4(e))."""
        result = mine(fig1_database, None, sigma=2, gamma=1, lam=3)
        got = result.decoded()
        assert got[("a", "a")] == 2  # T1 and T4
        assert ("a", "B") not in got  # no hierarchy: B never matches b1
        assert ("b1", "D") not in got

    def test_vocabulary_reuse(self, fig1_database, fig1_hierarchy):
        params = MiningParams(2, 1, 3)
        lash = Lash(params)
        vocabulary, _ = lash.preprocess(fig1_database, fig1_hierarchy)
        result = lash.mine(fig1_database, vocabulary=vocabulary)
        assert result.decoded() == PAPER_OUTPUT
        assert result.preprocess_job is None


class TestDriverMechanics:
    def test_counters_populated(self, fig1_database, fig1_hierarchy):
        result = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
        counters = result.counters
        assert counters[C.MAP_INPUT_RECORDS] == 6
        # 14 rewrites survive across the 5 partitions (Fig. 2:
        # P_a:2 + P_B:4 + P_b1:3 + P_c:3 + P_D:2)
        assert counters[C.MAP_OUTPUT_RECORDS] == 14
        assert counters[C.MAP_OUTPUT_BYTES] > 0

    def test_metrics_present(self, fig1_database, fig1_hierarchy):
        result = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
        times = result.phase_times()
        assert times.map_s > 0
        assert times.reduce_s >= 0
        assert result.total_metrics().map_task_s

    def test_local_stats_attached(self, fig1_database, fig1_hierarchy):
        result = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
        assert result.local_stats.outputs == len(PAPER_OUTPUT)

    def test_unknown_miner_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_miner("nope")

    def test_custom_miner_factory(self, fig1_database, fig1_hierarchy):
        from repro.core.psm import PivotSequenceMiner

        factory = lambda v, p: PivotSequenceMiner(v, p, index_mode="level")
        result = mine(
            fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3,
            local_miner=factory,
        )
        assert result.decoded() == PAPER_OUTPUT

    def test_accepts_plain_lists(self, fig1_hierarchy):
        result = mine(
            [["a", "b1"], ["a", "b2"]], fig1_hierarchy, sigma=2, gamma=0, lam=2
        )
        assert result.decoded() == {("a", "B"): 2}


class TestFlistJob:
    def test_metering_is_the_generic_formula(self, fig1_hierarchy):
        """``kv_size`` is the base class's estimate in closed form — not
        ``uvarint_size``, which is a byte shorter wherever the count's bit
        length is a multiple of 7 (64-127, 8192-16383, ...)."""
        job = FlistJob(fig1_hierarchy)
        counts = sorted(
            {1, 2, 1 << 21}
            | {n + d for n in (1 << 6, 1 << 7, 1 << 13, 1 << 14) for d in (-1, 0)}
            | {3**k for k in range(14)}
        )
        assert {63, 64, 127, 128, 8191, 8192, 16383, 16384} <= set(counts)
        for word in ("a", "b11", "naïve", "日本語", "über-größe", ""):
            for count in counts:
                assert job.kv_size(word, count) == MapReduceJob.kv_size(
                    job, word, count
                )
        assert job.kv_size("日本語", 64) == 9 + 2

    def test_hierarchy_is_walked_once_per_distinct_word(
        self, fig1_database, fig1_hierarchy, monkeypatch
    ):
        walked = []
        ancestors = Hierarchy.ancestors
        monkeypatch.setattr(
            Hierarchy,
            "ancestors",
            lambda self, item: walked.append(item) or ancestors(self, item),
        )
        job = FlistJob(fig1_hierarchy)
        emitted = [sorted(job.map(record)) for record in fig1_database]
        words = {word for record in fig1_database for word in record}
        assert sorted(walked) == sorted(words)
        assert emitted == [
            sorted(
                (item, 1)
                for item in iter_generalized_items(fig1_hierarchy, record)
            )
            for record in fig1_database
        ]


class TestPartitionMineJob:
    def test_map_emits_the_wire_bytes_it_meters(
        self, fig1_database, fig1_hierarchy
    ):
        """A rewritten sequence leaves the map side encoded, and its
        metered size is the record's own length."""
        params = MiningParams(2, 1, 3)
        lash = Lash(params)
        vocabulary, _ = lash.preprocess(fig1_database, fig1_hierarchy)
        job = PartitionMineJob(
            vocabulary, params, lash.miner_factory(vocabulary, params)
        )
        for record in map(vocabulary.encode_sequence, fig1_database):
            emitted = list(job.map(record))
            assert [
                (pivot, decode_sequence(data)[0])
                for pivot, (data, _) in emitted
            ] == list(pivot_rewrites(vocabulary, record, params))
            for pivot, (data, weight) in emitted:
                assert type(data) is bytes and weight == 1
                assert job.kv_size(pivot, (data, weight)) == (
                    uvarint_size(pivot) + len(data) + 1
                )
