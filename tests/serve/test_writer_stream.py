"""Streaming PatternWriter: byte-identity, spilling, and lifecycle."""

import os
import random

import pytest

from repro.errors import EncodingError
from repro.hierarchy import Hierarchy
from repro.query import code_patterns
from repro.query.base import rank_patterns
from repro.serve import (
    PatternStore,
    PatternWriter,
    ShardedPatternWriter,
    open_store,
    write_sharded_store,
    write_store,
)
from repro.io.runs import ExternalSort
from repro.serve.format import shard_filename
from repro.serve.writer import (
    read_pattern_record,
    sum_equal_patterns,
    write_pattern_record,
)


def _random_patterns(seed, n_patterns, n_items=30):
    rng = random.Random(seed)
    items = [f"i{k:02d}" for k in range(n_items)]
    patterns = {}
    while len(patterns) < n_patterns:
        length = rng.randint(1, 4)
        pattern = tuple(rng.choice(items) for _ in range(length))
        patterns[pattern] = rng.randint(1, 60)
    return code_patterns(patterns, Hierarchy.flat(items))


class TestStreamedBytesIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_streamed_equals_mapping_write(self, tmp_path, seed):
        coded, vocabulary = _random_patterns(seed, 400)
        reference = tmp_path / "reference.store"
        write_store(reference, coded, vocabulary)
        streamed = tmp_path / "streamed.store"
        with PatternWriter(streamed, vocabulary) as writer:
            for pattern, frequency in rank_patterns(coded):
                writer.write(pattern, frequency)
        assert streamed.read_bytes() == reference.read_bytes()

    def test_tiny_buffers_force_spills_same_bytes(self, tmp_path):
        """Spill-to-temp sections and postings runs must not change a
        single output byte relative to the all-in-memory path."""
        coded, vocabulary = _random_patterns(11, 600)
        reference = tmp_path / "reference.store"
        write_store(reference, coded, vocabulary)
        for sort_buffer in (1, 7):
            spilled = tmp_path / f"spilled-{sort_buffer}.store"
            with PatternWriter(
                spilled, vocabulary, buffer_bytes=32, sort_buffer=sort_buffer
            ) as writer:
                for pattern, frequency in rank_patterns(coded):
                    writer.write(pattern, frequency)
            assert spilled.read_bytes() == reference.read_bytes()

    def test_sharded_router_equals_mapping_write(self, tmp_path):
        coded, vocabulary = _random_patterns(5, 300)
        reference = tmp_path / "reference.shards"
        write_sharded_store(reference, coded, vocabulary, shards=4)
        streamed = tmp_path / "streamed.shards"
        with ShardedPatternWriter(streamed, vocabulary, shards=4) as writer:
            for pattern, frequency in rank_patterns(coded):
                writer.write(pattern, frequency)
        for i in range(4):
            name = shard_filename(i, 4)
            assert (streamed / name).read_bytes() == (
                reference / name
            ).read_bytes(), name

    def test_empty_store_round_trips(self, tmp_path):
        _, vocabulary = _random_patterns(1, 5)
        path = tmp_path / "empty.store"
        with PatternWriter(path, vocabulary) as writer:
            assert writer.count == 0
        with PatternStore.open(path) as store:
            assert len(store) == 0
            assert store.search("*") == []


class TestStreamValidation:
    def test_out_of_rank_order_rejected(self, tmp_path):
        coded, vocabulary = _random_patterns(2, 10)
        ordered = rank_patterns(coded)
        writer = PatternWriter(tmp_path / "bad.store", vocabulary)
        writer.write(*ordered[1])
        with pytest.raises(EncodingError, match="rank order"):
            writer.write(*ordered[0])
        writer.abort()
        assert not (tmp_path / "bad.store").exists()

    def test_duplicate_record_rejected(self, tmp_path):
        coded, vocabulary = _random_patterns(3, 10)
        record = rank_patterns(coded)[0]
        writer = PatternWriter(tmp_path / "dup.store", vocabulary)
        writer.write(*record)
        with pytest.raises(EncodingError, match="rank order"):
            writer.write(*record)
        writer.abort()

    def test_empty_pattern_rejected(self, tmp_path):
        _, vocabulary = _random_patterns(4, 5)
        writer = PatternWriter(tmp_path / "empty.store", vocabulary)
        with pytest.raises(EncodingError, match="empty pattern"):
            writer.write((), 3)
        writer.abort()

    def test_out_of_vocabulary_item_rejected(self, tmp_path):
        _, vocabulary = _random_patterns(6, 5)
        writer = PatternWriter(tmp_path / "oov.store", vocabulary)
        with pytest.raises(EncodingError, match="outside the vocabulary"):
            writer.write((len(vocabulary),), 1)
        writer.abort()

    def test_write_after_close_rejected(self, tmp_path):
        coded, vocabulary = _random_patterns(7, 10)
        writer = PatternWriter(tmp_path / "closed.store", vocabulary)
        writer.close()
        with pytest.raises(EncodingError, match="closed"):
            writer.write(*rank_patterns(coded)[0])


class TestLifecycle:
    def test_abort_leaves_no_files(self, tmp_path):
        coded, vocabulary = _random_patterns(8, 200)
        writer = PatternWriter(
            tmp_path / "aborted.store", vocabulary, buffer_bytes=16,
            sort_buffer=4,
        )
        for pattern, frequency in rank_patterns(coded):
            writer.write(pattern, frequency)
        writer.abort()
        assert os.listdir(tmp_path) == []

    def test_context_manager_aborts_on_exception(self, tmp_path):
        coded, vocabulary = _random_patterns(9, 50)
        with pytest.raises(RuntimeError):
            with PatternWriter(tmp_path / "cm.store", vocabulary) as writer:
                writer.write(*rank_patterns(coded)[0])
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == []

    def test_sharded_abort_removes_build_tmp(self, tmp_path):
        coded, vocabulary = _random_patterns(10, 50)
        writer = ShardedPatternWriter(
            tmp_path / "set.shards", vocabulary, shards=3
        )
        for pattern, frequency in rank_patterns(coded):
            writer.write(pattern, frequency)
        writer.abort()
        assert os.listdir(tmp_path) == []

    def test_writer_counters(self, tmp_path):
        coded, vocabulary = _random_patterns(12, 40)
        with PatternWriter(tmp_path / "c.store", vocabulary) as writer:
            for pattern, frequency in rank_patterns(coded):
                writer.write(pattern, frequency)
        assert writer.count == len(coded)
        assert writer.total_frequency == sum(coded.values())


class TestExternalSort:
    @pytest.mark.parametrize("buffer_records", [1, 3, 7, 10_000])
    def test_sorted_records_any_buffer(self, tmp_path, buffer_records):
        rng = random.Random(13)
        records = [
            (tuple(rng.randrange(20) for _ in range(rng.randint(1, 4))),
             rng.randint(1, 9))
            for _ in range(200)
        ]
        expected = sorted(records, key=lambda r: r[0])
        sort = ExternalSort(
            write_pattern_record, read_pattern_record, key=lambda r: r[0],
            sort_buffer=buffer_records, spill_dir=tmp_path,
        )
        for record in records:
            sort.add(record)
        assert list(sort) == expected
        # all spill runs deleted once the stream is exhausted
        assert os.listdir(tmp_path) == []

    def test_sum_equal_patterns(self):
        stream = [((1,), 2), ((1,), 3), ((2, 1), 4), ((3,), 1), ((3,), 1)]
        assert list(sum_equal_patterns(stream)) == [
            ((1,), 5), ((2, 1), 4), ((3,), 2)
        ]
        assert list(sum_equal_patterns([])) == []


class TestMergeStreaming:
    def test_merge_small_buffer_equals_default(self, tmp_path):
        from repro.serve import merge_stores

        coded_a, vocab_a = _random_patterns(20, 250)
        coded_b, vocab_b = _random_patterns(21, 250)
        a, b = tmp_path / "a.store", tmp_path / "b.store"
        write_store(a, coded_a, vocab_a)
        write_store(b, coded_b, vocab_b)
        small = tmp_path / "small.store"
        merge_stores([a, b], small, sort_buffer=17)
        default = tmp_path / "default.store"
        merge_stores([a, b], default)
        assert small.read_bytes() == default.read_bytes()
        with open_store(small) as store:
            assert len(store) > 0
