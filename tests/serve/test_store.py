"""PatternStore: binary round-trip and equivalence with PatternIndex."""

import random
import struct

import pytest

from repro.core import Lash, MiningParams
from repro.errors import EncodingError, StoreCorruptError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.serve import PatternStore, open_store, write_store
from repro.serve.format import (
    CHECKSUMS_STRUCT,
    HEADER_SIZE,
    MAGIC,
    SECTION_NAMES,
    VERSION,
)


@pytest.fixture
def fig1_result(fig1_database, fig1_hierarchy):
    return Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        fig1_database, fig1_hierarchy
    )


@pytest.fixture
def fig1_store(fig1_result, tmp_path):
    path = tmp_path / "fig1.store"
    with PatternStore.build(
        path, fig1_result.patterns, fig1_result.vocabulary
    ) as store:
        yield store


FIG1_QUERIES = [
    "a ?", "^B ?", "? ? ?", "*", "+", "a * c", "^D", "a", "? a",
    "^B + *", "a + a",
]


class TestRoundTrip:
    def test_header_metadata(self, fig1_result, fig1_store):
        info = fig1_store.describe()
        assert info["patterns"] == len(fig1_result)
        assert info["items"] == len(fig1_result.vocabulary)
        assert info["total_frequency"] == sum(
            fig1_result.patterns.values()
        )
        assert info["max_length"] == max(
            len(p) for p in fig1_result.patterns
        )
        assert info["file_bytes"] > HEADER_SIZE

    def test_sections_account_for_every_byte(self, fig1_result, fig1_store):
        """`describe()["sections"]` sizes each section from the header;
        with the head and the checksum block they make up the file."""
        info = fig1_store.describe()
        sections = info["sections"]
        assert tuple(sections) == SECTION_NAMES
        assert all(size > 0 for size in sections.values())
        assert sum(sections.values()) == (
            info["file_bytes"] - HEADER_SIZE - CHECKSUMS_STRUCT.size
        )
        assert fig1_store._vocab is None  # nothing was decoded

    def test_sharded_sections_are_summed(self, fig1_result, tmp_path):
        path = tmp_path / "fig1.shards"
        fig1_result.to_store(path, shards=2)
        with open_store(path) as store:
            info = store.describe()
        per_shard = [shard["sections"] for shard in info["shard_stats"]]
        assert info["sections"] == {
            name: sum(sections[name] for sections in per_shard)
            for name in SECTION_NAMES
        }

    def test_directory_lists_only_indexed_items(self, fig1_result, tmp_path):
        """A shard's posting directory holds exactly the items with
        postings in that file; every other item estimates to 0."""
        path = tmp_path / "fig1.shards"
        fig1_result.to_store(path, shards=2)
        with open_store(path) as store:
            for shard in store._shards():
                indexed = [
                    item
                    for item in range(shard._n_items)
                    if shard._positional_postings_for(item)[0]
                ]
                assert list(shard._posting_items) == indexed
                assert len(indexed) < shard._n_items
                for item in range(shard._n_items):
                    estimate = shard._postings_size_estimate(item)
                    assert (estimate > 0) == (item in indexed)

    @pytest.mark.parametrize("query", FIG1_QUERIES)
    def test_search_identical_to_index(self, fig1_result, fig1_store, query):
        index = PatternIndex.from_result(fig1_result)
        assert fig1_store.search(query) == index.search(query)
        assert fig1_store.count(query) == index.count(query)
        assert fig1_store.total_frequency(query) == index.total_frequency(
            query
        )

    def test_iteration_and_top(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        assert list(fig1_store) == list(index)
        assert fig1_store.top(5) == index.top(5)
        assert len(fig1_store) == len(index)

    def test_exact_frequency(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        for names in [("a", "B"), ("a",), ("a", "B", "c"), ("e", "f")]:
            assert fig1_store.frequency(*names) == index.frequency(*names)
        assert ("a", "B") in fig1_store
        assert ("zzz",) not in fig1_store

    def test_hierarchy_navigation(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        assert fig1_store.generalizations_of(
            ("a", "b1")
        ) == index.generalizations_of(("a", "b1"))
        assert fig1_store.specializations_of(
            ("a", "B")
        ) == index.specializations_of(("a", "B"))

    def test_slot_fillers(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        assert fig1_store.slot_fillers("a ?", 1) == index.slot_fillers(
            "a ?", 1
        )

    def test_vocabulary_roundtrip(self, fig1_result, fig1_store):
        original = fig1_result.vocabulary
        loaded = fig1_store.vocabulary
        assert len(loaded) == len(original)
        for item_id in range(len(original)):
            assert loaded.name(item_id) == original.name(item_id)
            assert loaded.frequency(item_id) == original.frequency(item_id)
            assert loaded.parent_ids(item_id) == original.parent_ids(item_id)
            assert loaded.ancestors_or_self(
                item_id
            ) == original.ancestors_or_self(item_id)

    def test_to_store_hook(self, fig1_result, tmp_path):
        path = tmp_path / "hook.store"
        fig1_result.to_store(path)
        with PatternStore.open(path) as store:
            assert len(store) == len(fig1_result)
            assert store.frequency("a", "B") == fig1_result.frequency(
                "a", "B"
            )


def test_empty_pattern_rejected(fig1_result, tmp_path):
    with pytest.raises(EncodingError, match="empty pattern"):
        write_store(
            tmp_path / "bad.store", {(): 5}, fig1_result.vocabulary
        )


@pytest.mark.parametrize("section", ["pattern", "postings"])
def test_writer_refuses_to_pass_the_u32_range(
    fig1_result, tmp_path, monkeypatch, section
):
    """Offsets are u32: the writer raises before a table entry would
    overflow, and leaves no file behind.  (The limit is lowered so the
    test need not write 4 GiB.)"""
    from repro.serve import writer

    path = tmp_path / "big.store"
    write_store(path, fig1_result.patterns, fig1_result.vocabulary)
    with PatternStore.open(path) as store:
        sections = store.describe()["sections"]
    path.unlink()
    records, postings = sections["patterns"], sections["postings"]
    assert records < postings
    # one byte short of the section the case is about
    limit = records - 1 if section == "pattern" else postings - 1
    monkeypatch.setattr(writer, "U32_MAX", limit)
    with pytest.raises(EncodingError, match=f"{section} section passes"):
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
    assert not path.exists()


def test_rebuild_does_not_disturb_open_store(fig1_result, tmp_path):
    """Rebuilding in place must not truncate a live reader's mmap."""
    path = tmp_path / "live.store"
    write_store(path, fig1_result.patterns, fig1_result.vocabulary)
    with PatternStore.open(path) as live:
        before = live.search("a ?")
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        assert live.search("^B ?")  # old mapping still fully readable
        assert live.search("a ?") == before
    with PatternStore.open(path) as rebuilt:
        assert rebuilt.search("a ?") == before
    assert not path.with_name(path.name + ".tmp").exists()


def test_decode_caches_are_bounded(fig1_result, tmp_path):
    path = tmp_path / "capped.store"
    write_store(path, fig1_result.patterns, fig1_result.vocabulary)
    index = PatternIndex.from_result(fig1_result)
    with PatternStore(
        path, pattern_cache_size=3, postings_cache_size=2
    ) as store:
        # broad scans stay correct while the caches respect their caps
        assert store.search("*") == index.search("*")
        assert store.search("^B ?") == index.search("^B ?")
        assert len(store._pattern_cache) <= 3
        assert len(store._postings_cache) <= 2


def test_frequency_zero_pattern_is_still_a_member(tmp_path):
    """Membership means 'stored', not 'frequency > 0' — on both backends."""
    coded, vocabulary = code_patterns({("a",): 0, ("a", "b"): 2})
    index = PatternIndex(coded, vocabulary)
    path = tmp_path / "zero.store"
    with PatternStore.build(path, coded, vocabulary) as store:
        for backend in (index, store):
            assert ("a",) in backend
            assert backend.frequency("a") == 0
            assert ("b",) not in backend


class TestLaziness:
    def test_open_reads_header_only(self, fig1_store):
        assert fig1_store._vocab is None
        assert fig1_store._by_length is None
        assert fig1_store._pattern_cache == {}
        fig1_store.describe()  # header-only metadata stays lazy
        assert fig1_store._vocab is None

    def test_sections_load_on_demand(self, fig1_store):
        fig1_store.search("a ?")
        assert fig1_store._vocab is not None
        assert fig1_store._pattern_cache  # decoded only touched records


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"NOTASTORExxxxxxxxxxxxxxxxxxxx" * 10)
        with pytest.raises(EncodingError, match="bad magic"):
            PatternStore.open(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.store"
        path.write_bytes(b"RPROPST1")
        with pytest.raises(EncodingError, match="bad magic|truncated"):
            PatternStore.open(path)

    def test_truncated_body(self, fig1_result, tmp_path):
        path = tmp_path / "trunc.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(StoreCorruptError, match="truncated"):
            PatternStore.open(path)


def patch_store_version(path, version: int) -> None:
    """Overwrite the header's u16 version field (it follows the magic)."""
    data = bytearray(path.read_bytes())
    assert struct.unpack_from("<H", data, len(MAGIC))[0] == VERSION
    struct.pack_into("<H", data, len(MAGIC), version)
    path.write_bytes(bytes(data))


class TestSingleVersion:
    """A store directory is single-version: any other header version
    is refused on open, naming the version found and the way out."""

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_single_file(self, fig1_result, tmp_path, version):
        path = tmp_path / "other.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        patch_store_version(path, version)
        with pytest.raises(EncodingError) as err:
            open_store(path)
        message = str(err.value)
        assert f"unsupported store version {version}" in message
        assert "lash index build" in message and "re-mine" in message

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_sharded(self, fig1_result, tmp_path, version):
        path = tmp_path / "other.shards"
        fig1_result.to_store(path, shards=2)
        patch_store_version(sorted(path.glob("shard-*.store"))[1], version)
        with pytest.raises(EncodingError) as err:
            with open_store(path) as store:
                store.search("? ?")
        message = str(err.value)
        assert f"unsupported store version {version}" in message
        assert "lash index build" in message


class TestChecksums:
    def _flip_byte(self, path, offset_from_header: int) -> None:
        data = bytearray(path.read_bytes())
        index = HEADER_SIZE + offset_from_header
        data[index] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_bit_rot_detected_on_open(self, fig1_result, tmp_path):
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        self._flip_byte(path, 3)  # somewhere in the vocabulary section
        with pytest.raises(StoreCorruptError, match="checksum mismatch"):
            PatternStore.open(path)

    def test_mismatch_names_the_section(self, fig1_result, tmp_path):
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        self._flip_byte(path, 0)
        with pytest.raises(StoreCorruptError, match="vocabulary section"):
            PatternStore.open(path)

    def test_verification_skippable(self, fig1_result, tmp_path):
        """`verify_checksums=False` restores O(header) open even on a
        damaged file; decode errors then surface lazily (or not at all
        for untouched sections)."""
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        self._flip_byte(path, 0)
        store = PatternStore.open(path, verify_checksums=False)
        store.close()


def _random_setup(rng: random.Random):
    """A random DAG hierarchy plus random decoded patterns over it."""
    hierarchy = Hierarchy()
    roots = [f"R{i}" for i in range(rng.randint(2, 4))]
    for root in roots:
        hierarchy.add_item(root)
    mids = [f"m{i}" for i in range(rng.randint(3, 6))]
    for mid in mids:
        hierarchy.add_edge(mid, rng.choice(roots))
        if rng.random() < 0.3:  # occasional DAG node
            other = rng.choice(roots)
            if other not in hierarchy.parents(mid):
                hierarchy.add_edge(mid, other)
    leaves = [f"l{i}" for i in range(rng.randint(4, 10))]
    for leaf in leaves:
        hierarchy.add_edge(leaf, rng.choice(mids))
    items = roots + mids + leaves + ["loner"]  # item outside the forest
    patterns = {}
    for _ in range(rng.randint(10, 60)):
        length = rng.randint(1, 4)
        pattern = tuple(rng.choice(items) for _ in range(length))
        patterns[pattern] = rng.randint(1, 100)
    return hierarchy, patterns, items


def _random_queries(rng: random.Random, items, n=25):
    queries = []
    for _ in range(n):
        length = rng.randint(1, 4)
        tokens = []
        for _ in range(length):
            kind = rng.random()
            if kind < 0.4:
                tokens.append(rng.choice(items))
            elif kind < 0.6:
                tokens.append("^" + rng.choice(items))
            else:
                tokens.append(rng.choice(["?", "+", "*"]))
        queries.append(" ".join(tokens))
    return queries


@pytest.mark.parametrize("seed", range(8))
def test_randomized_store_matches_index(tmp_path, seed):
    """The store answers every query exactly like the in-memory index."""
    rng = random.Random(seed)
    hierarchy, patterns, items = _random_setup(rng)
    coded, vocabulary = code_patterns(patterns, hierarchy)
    index = PatternIndex(coded, vocabulary)
    path = tmp_path / f"rand{seed}.store"
    with PatternStore.build(path, coded, vocabulary) as store:
        assert len(store) == len(index)
        assert list(store) == list(index)
        for query in _random_queries(rng, items):
            assert store.search(query) == index.search(query), query
            assert store.search(query, limit=3) == index.search(
                query, limit=3
            ), query
        for pattern in list(patterns)[:10]:
            assert store.frequency(*pattern) == index.frequency(*pattern)
        for pattern in list(patterns)[:5]:
            assert store.generalizations_of(
                pattern
            ) == index.generalizations_of(pattern)
            assert store.specializations_of(
                pattern
            ) == index.specializations_of(pattern)
