"""Sharded stores and incremental merges.

The two tentpole invariants:

* a sharded store (any shard count) answers every query rank-identically
  to the single-file store and the in-memory index, and
* ``merge_stores`` over the stores of separate mining runs produces
  byte-for-byte the store a full rebuild over the combined runs would.
"""

import random

import pytest

from repro.core import Lash, MiningParams
from repro.errors import EncodingError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns, merge_pattern_sets
from repro.sequence import SequenceDatabase
from repro.serve import (
    PatternStore,
    ShardedPatternStore,
    merge_stores,
    open_store,
    write_sharded_store,
    write_store,
)
from repro.serve.distributed import partial_search
from repro.serve.format import (
    MANIFEST_NAME,
    read_manifest,
    shard_filename,
    shard_of,
)

from tests.serve.test_store import _random_queries, _random_setup


@pytest.fixture
def fig1_result(fig1_database, fig1_hierarchy):
    return Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        fig1_database, fig1_hierarchy
    )


FIG1_QUERIES = [
    "a ?", "^B ?", "? ? ?", "*", "+", "a * c", "^D", "a", "? a",
    "^B + *", "a + a",
]


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_fig1_queries(self, fig1_result, tmp_path, shards):
        index = PatternIndex.from_result(fig1_result)
        path = tmp_path / "fig1.shards"
        fig1_result.to_store(path, shards=shards)
        with ShardedPatternStore.open(path) as sharded:
            assert len(sharded) == len(index)
            assert list(sharded) == list(index)
            assert sharded.top(5) == index.top(5)
            for query in FIG1_QUERIES:
                assert sharded.search(query) == index.search(query), query
                assert sharded.search(query, limit=2) == index.search(
                    query, limit=2
                ), query
                assert sharded.count(query) == index.count(query)
                assert sharded.total_frequency(
                    query
                ) == index.total_frequency(query)

    def test_exact_and_hierarchy_paths(self, fig1_result, tmp_path):
        index = PatternIndex.from_result(fig1_result)
        path = tmp_path / "fig1.shards"
        fig1_result.to_store(path, shards=3)
        with ShardedPatternStore.open(path) as sharded:
            for names in [("a", "B"), ("a",), ("a", "B", "c"), ("e", "f")]:
                assert sharded.frequency(*names) == index.frequency(*names)
            assert ("a", "B") in sharded
            assert ("zzz",) not in sharded
            assert sharded.generalizations_of(
                ("a", "b1")
            ) == index.generalizations_of(("a", "b1"))
            assert sharded.specializations_of(
                ("a", "B")
            ) == index.specializations_of(("a", "B"))
            assert sharded.slot_fillers("a ?", 1) == index.slot_fillers(
                "a ?", 1
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_three_backends_agree(self, tmp_path, seed):
        """Index, single store and sharded store answer identically on
        randomized pattern sets and queries."""
        rng = random.Random(seed)
        hierarchy, patterns, items = _random_setup(rng)
        coded, vocabulary = code_patterns(patterns, hierarchy)
        index = PatternIndex(coded, vocabulary)
        single_path = tmp_path / "single.store"
        write_store(single_path, coded, vocabulary)
        sharded_path = tmp_path / "sharded.store"
        write_sharded_store(
            sharded_path, coded, vocabulary, shards=rng.randint(1, 5)
        )
        with PatternStore.open(single_path) as single, (
            ShardedPatternStore.open(sharded_path)
        ) as sharded:
            assert list(sharded) == list(index) == list(single)
            for query in _random_queries(rng, items):
                expected = index.search(query)
                assert single.search(query) == expected, query
                assert sharded.search(query) == expected, query
            for pattern in list(patterns)[:10]:
                assert sharded.frequency(*pattern) == index.frequency(
                    *pattern
                )
            for pattern in list(patterns)[:5]:
                assert sharded.generalizations_of(
                    pattern
                ) == index.generalizations_of(pattern)
                assert sharded.specializations_of(
                    pattern
                ) == index.specializations_of(pattern)

    def test_routing_matches_writer(self, fig1_result, tmp_path):
        """Every pattern lives in the shard the hash names — the exact
        lookup's single-shard routing is sound."""
        path = tmp_path / "routed.shards"
        fig1_result.to_store(path, shards=4)
        with ShardedPatternStore.open(path) as sharded:
            vocabulary = sharded.vocabulary
            for i in range(sharded.num_shards):
                with PatternStore.open(
                    path / shard_filename(i, 4)
                ) as shard:
                    for match in shard:
                        assert shard_of(match.pattern[0], 4) == i


class TestShardedLifecycle:
    def test_open_store_dispatches(self, fig1_result, tmp_path):
        single = tmp_path / "s.store"
        sharded = tmp_path / "s.shards"
        fig1_result.to_store(single)
        fig1_result.to_store(sharded, shards=2)
        with open_store(single) as store:
            assert isinstance(store, PatternStore)
        with open_store(sharded) as store:
            assert isinstance(store, ShardedPatternStore)

    def test_open_reads_manifest_only(self, fig1_result, tmp_path):
        """Opening the shard set touches no shard file; the vocabulary
        opens only the shard it is decoded from."""
        path = tmp_path / "lazy.shards"
        fig1_result.to_store(path, shards=3)
        sharded = ShardedPatternStore.open(path)
        try:
            assert sharded._stores == [None, None, None]
            assert len(sharded) == len(fig1_result)  # manifest-only
            assert sharded._stores == [None, None, None]
            sharded.vocabulary  # decoded from the first shard alone
            assert sum(s is not None for s in sharded._stores) == 1
        finally:
            sharded.close()

    def test_describe_aggregates_shards(self, fig1_result, tmp_path):
        path = tmp_path / "desc.shards"
        fig1_result.to_store(path, shards=3)
        with ShardedPatternStore.open(path) as sharded:
            info = sharded.describe()
            assert info["shards"] == 3
            assert info["patterns"] == len(fig1_result)
            assert len(info["shard_stats"]) == 3
            assert sum(s["patterns"] for s in info["shard_stats"]) == len(
                fig1_result
            )

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "not-a-store"
        empty.mkdir()
        with pytest.raises(EncodingError, match="manifest"):
            ShardedPatternStore.open(empty)

    def test_corrupt_manifest_rejected(self, fig1_result, tmp_path):
        path = tmp_path / "broken.shards"
        fig1_result.to_store(path, shards=2)
        (path / MANIFEST_NAME).write_text('{"format": "something-else"}')
        with pytest.raises(EncodingError, match="format"):
            ShardedPatternStore.open(path)

    def test_shards_must_be_positive(self, fig1_result, tmp_path):
        with pytest.raises(EncodingError, match="shard count"):
            fig1_result.to_store(tmp_path / "zero.shards", shards=0)

    def test_rebuild_over_existing_shard_set(self, fig1_result, tmp_path):
        """Rebuilding with a different shard count replaces the set
        wholesale — no stale shard files survive the swap."""
        path = tmp_path / "rebuilt.shards"
        fig1_result.to_store(path, shards=4)
        fig1_result.to_store(path, shards=2)
        manifest = read_manifest(path)
        assert manifest["shards"] == 2
        assert sorted(p.name for p in path.iterdir()) == sorted(
            [MANIFEST_NAME, shard_filename(0, 2), shard_filename(1, 2)]
        )
        with ShardedPatternStore.open(path) as sharded:
            assert len(sharded) == len(fig1_result)

    def test_refuses_to_overwrite_foreign_directory(
        self, fig1_result, tmp_path
    ):
        """A destination directory holding anything that is not a shard
        build is refused, not deleted."""
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "thesis.tex").write_text("years of work")
        with pytest.raises(EncodingError, match="refusing to overwrite"):
            fig1_result.to_store(victim, shards=2)
        assert (victim / "thesis.tex").read_text() == "years of work"
        with pytest.raises(EncodingError, match="refusing to overwrite"):
            single = tmp_path / "src.store"
            fig1_result.to_store(single)
            merge_stores([single], victim, shards=2)
        assert (victim / "thesis.tex").exists()

    def test_merge_into_one_of_its_sources(self, fig1_hierarchy, tmp_path):
        """`merge --out` may name an input shard set: sources are fully
        decoded before the atomic swap."""
        run_a = _mine(CORPUS_A, fig1_hierarchy)
        run_b = _mine(CORPUS_B, fig1_hierarchy)
        a_path = tmp_path / "serving.shards"
        run_a.to_store(a_path, shards=2)
        b_path = tmp_path / "delta.store"
        run_b.to_store(b_path)
        merge_stores([a_path, b_path], a_path, shards=2)
        rebuilt = _mine(CORPUS_A + CORPUS_B, fig1_hierarchy)
        with ShardedPatternStore.open(a_path) as merged:
            assert {
                m.pattern: m.frequency for m in merged
            } == rebuilt.decoded()

    def test_manifest_round_trip(self, fig1_result, tmp_path):
        path = tmp_path / "manifest.shards"
        fig1_result.to_store(path, shards=2)
        manifest = read_manifest(path)
        assert manifest["shards"] == 2
        assert manifest["patterns"] == len(fig1_result)
        assert manifest["shard_files"] == [
            shard_filename(0, 2), shard_filename(1, 2)
        ]


def _mine(sequences, hierarchy):
    """Mine with σ=1 so every pattern of a part stays visible in the
    union — the regime where merging mined results is exact."""
    return Lash(MiningParams(sigma=1, gamma=1, lam=3)).mine(
        SequenceDatabase(sequences), hierarchy
    )


CORPUS_A = [
    ["a", "b1", "a", "b1"],
    ["a", "b3", "c", "c", "b2"],
    ["a", "c"],
]
CORPUS_B = [
    ["b11", "a", "e", "a"],
    ["a", "b12", "d1", "c"],
    ["b13", "f", "d2"],
    ["a", "c"],
]


class TestMerge:
    def test_merge_equals_full_rebuild(self, fig1_hierarchy, tmp_path):
        """The acceptance invariant: merging the stores of two mining
        runs is byte-identical to the store of mining the union."""
        run_a = _mine(CORPUS_A, fig1_hierarchy)
        run_b = _mine(CORPUS_B, fig1_hierarchy)
        rebuilt = _mine(CORPUS_A + CORPUS_B, fig1_hierarchy)

        a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
        run_a.to_store(a_path)
        run_b.to_store(b_path)
        merged_path = tmp_path / "merged.store"
        merge_stores([a_path, b_path], merged_path)
        full_path = tmp_path / "full.store"
        rebuilt.to_store(full_path)
        assert merged_path.read_bytes() == full_path.read_bytes()

    def test_sharded_merge_equals_sharded_rebuild(
        self, fig1_hierarchy, tmp_path
    ):
        """Byte-equivalence holds shard file by shard file."""
        run_a = _mine(CORPUS_A, fig1_hierarchy)
        run_b = _mine(CORPUS_B, fig1_hierarchy)
        rebuilt = _mine(CORPUS_A + CORPUS_B, fig1_hierarchy)

        a_path = tmp_path / "a.shards"
        run_a.to_store(a_path, shards=3)
        b_path = tmp_path / "b.store"
        run_b.to_store(b_path)
        merged_path = tmp_path / "merged.shards"
        merge_stores([a_path, b_path], merged_path, shards=3)
        full_path = tmp_path / "full.shards"
        rebuilt.to_store(full_path, shards=3)
        for i in range(3):
            name = shard_filename(i, 3)
            assert (merged_path / name).read_bytes() == (
                full_path / name
            ).read_bytes(), name

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_merge_matches_rebuild(
        self, fig1_hierarchy, tmp_path, seed
    ):
        """Random corpus splits: merge(part stores) == rebuild(union)."""
        rng = random.Random(seed)
        items = ["a", "b1", "b2", "b3", "c", "e", "f", "d1", "d2"]
        corpus = [
            [rng.choice(items) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(6, 20))
        ]
        cut = rng.randint(1, len(corpus) - 1)
        part_stores = []
        for label, part in (("a", corpus[:cut]), ("b", corpus[cut:])):
            path = tmp_path / f"{label}{seed}.store"
            _mine(part, fig1_hierarchy).to_store(path)
            part_stores.append(path)
        merged = tmp_path / f"merged{seed}.store"
        merge_stores(part_stores, merged)
        full = tmp_path / f"full{seed}.store"
        _mine(corpus, fig1_hierarchy).to_store(full)
        assert merged.read_bytes() == full.read_bytes()

    def test_merge_pattern_sets_sums_overlaps(self):
        h = Hierarchy.from_parent_map({"x1": "X", "X": None, "y": None})
        coded_a, vocab_a = code_patterns({("x1", "y"): 3, ("y",): 1}, h)
        coded_b, vocab_b = code_patterns({("x1", "y"): 2, ("X",): 4}, h)
        decoded_a = {
            vocab_a.decode_sequence(p): f for p, f in coded_a.items()
        }
        decoded_b = {
            vocab_b.decode_sequence(p): f for p, f in coded_b.items()
        }
        coded, vocabulary = merge_pattern_sets(
            [(decoded_a, vocab_a), (decoded_b, vocab_b)]
        )
        merged = {
            vocabulary.decode_sequence(p): f for p, f in coded.items()
        }
        assert merged == {("x1", "y"): 5, ("y",): 1, ("X",): 4}

    def test_merge_needs_sources(self, tmp_path):
        with pytest.raises(EncodingError, match="at least one"):
            merge_stores([], tmp_path / "out.store")

    def test_merged_store_answers_like_union_index(
        self, fig1_hierarchy, tmp_path
    ):
        run_a = _mine(CORPUS_A, fig1_hierarchy)
        run_b = _mine(CORPUS_B, fig1_hierarchy)
        rebuilt = _mine(CORPUS_A + CORPUS_B, fig1_hierarchy)
        a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
        run_a.to_store(a_path)
        run_b.to_store(b_path)
        merged_path = tmp_path / "m.shards"
        merge_stores([a_path, b_path], merged_path, shards=2)
        index = PatternIndex.from_result(rebuilt)
        with open_store(merged_path) as merged:
            for query in FIG1_QUERIES:
                assert merged.search(query) == index.search(query), query


class TestPerShardPositionSpace:
    def test_each_shard_builds_its_own_space_once_lazily(
        self, fig1_result, tmp_path
    ):
        """A shard is a whole store: the first positional query to
        execute on it builds its position space, later ones reuse it,
        and shards no such query touched have built nothing."""
        path = tmp_path / "fig1.shards"
        fig1_result.to_store(path, shards=3)
        index = PatternIndex.from_result(fig1_result)
        with ShardedPatternStore.open(path) as sharded:
            sharded.search("? ? ?")  # no chain: a length scan, no space
            assert sharded.plan_stats()["space_builds"] == 0
            partial_search(sharded, "a ?", shard_ids=[1])
            assert sharded.plan_stats()["space_builds"] == 1
            assert sharded._shard(0)._pos_space is None
            for query in FIG1_QUERIES:
                assert sharded.search(query) == index.search(query), query
            stats = sharded.plan_stats()
            assert stats["space_builds"] == 3
            assert stats["paths"]["exact"] > 0
            for query in FIG1_QUERIES:
                assert sharded.search(query) == index.search(query), query
            assert sharded.plan_stats()["space_builds"] == 3

    def test_spaces_cover_their_own_shard(self, fig1_result, tmp_path):
        path = tmp_path / "fig1.shards"
        fig1_result.to_store(path, shards=3)
        with ShardedPatternStore.open(path) as sharded:
            sharded.search("a ?")
            shards = sharded._shards()
            for shard in shards:
                assert len(shard._pos_space.offsets) == len(shard)
            assert sum(len(shard) for shard in shards) == len(sharded)
