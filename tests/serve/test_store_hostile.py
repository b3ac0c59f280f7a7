"""Hostile store bytes: the v3 decoders fail typed and bounded.

Each case rewrites one section of a valid store (fixing up the section
table so the file still opens) and opens it with ``verify_checksums=
False``, so the bytes reach the decoders instead of the CRC sweep.  A
damaged vocabulary, posting directory, postings record, lengths section
or pattern-offset table must raise :class:`StoreCorruptError` — never
``IndexError``, ``zlib.error`` or ``struct.error`` — and must not
allocate past what the file's own size justifies.

With the CRC sweep on, a store checks itself: every torn or flipped
spool delta is refused on open, which is all the compaction daemon
relies on to keep a damaged delta out of the live store.
"""

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Lash, MiningParams
from repro.core.lash import micro_mine
from repro.errors import ReproError, StoreCorruptError
from repro.io.codec import read_uvarint, write_uvarint
from repro.query.build import negate_vocabulary
from repro.serve import PatternStore, open_store, write_store
from repro.serve.format import (
    CHECKSUMS_STRUCT,
    FLAG_CHECKSUMS,
    HEADER_SIZE,
    MAGIC,
    MAX_DEFLATE_RATIO,
    SECTIONS_STRUCT,
    U32,
)
from tests.conftest import paper_database, paper_hierarchy

VOCABULARY, LENGTHS, PATTERN_OFFSETS, PATTERNS, DIRECTORY, POSTINGS = range(6)
TABLE_AT = HEADER_SIZE - SECTIONS_STRUCT.size


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> bytes:
    result = Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        paper_database(), paper_hierarchy()
    )
    path = tmp_path_factory.mktemp("hostile") / "pristine.store"
    write_store(path, result.patterns, result.vocabulary)
    return path.read_bytes()


def bounds_of(data: bytes) -> list[int]:
    return list(SECTIONS_STRUCT.unpack_from(data, TABLE_AT))


def section(data: bytes, index: int) -> bytes:
    bounds = bounds_of(data)
    return data[bounds[index]:bounds[index + 1]]


def with_section(data: bytes, index: int, payload: bytes) -> bytes:
    """``data`` with one section replaced and the later offsets moved."""
    bounds = bounds_of(data)
    out = bytearray(
        data[:bounds[index]] + payload + data[bounds[index + 1]:]
    )
    shift = len(payload) - (bounds[index + 1] - bounds[index])
    for later in range(index + 1, len(bounds)):
        bounds[later] += shift
    SECTIONS_STRUCT.pack_into(out, TABLE_AT, *bounds)
    return bytes(out)


def u32s(data: bytes) -> list[int]:
    return list(struct.unpack(f"<{len(data) // 4}I", data))


def pack_u32s(values) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def split_directory(data: bytes) -> tuple[list[int], list[int]]:
    entries = u32s(section(data, DIRECTORY))
    listed = len(entries) // 2
    return entries[:listed], entries[listed:]


def exercise(store: PatternStore) -> tuple:
    """What a reader does first: the vocabulary, a wildcard scan, the
    top patterns, and a lookup through every listed item's postings."""
    answers = (
        [(m.pattern, m.frequency) for m in store.search("? ?")],
        [(m.pattern, m.frequency) for m in store.top(5)],
    )
    vocabulary = store.vocabulary
    positional = tuple(
        store.count(f"{vocabulary.name(item)} *")
        for item in range(len(vocabulary))
    )
    return answers + (positional,)


def assert_corrupt(tmp_path, data: bytes, match: str) -> None:
    path = tmp_path / "hostile.store"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(StoreCorruptError, match=match):
            with PatternStore.open(path, verify_checksums=False) as store:
                exercise(store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pristine_store_passes(pristine, tmp_path):
    path = tmp_path / "ok.store"
    path.write_bytes(pristine)
    with PatternStore.open(path, verify_checksums=False) as store:
        answers = exercise(store)
    assert answers[0] and answers[1]


class TestHeader:
    FLAGS_AT = len(MAGIC) + 2  # after the u16 version

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("trailer", [True, False])
    def test_flags_without_checksums_fail_open(
        self, pristine, tmp_path, verify, trailer
    ):
        """Every writer sets the checksum flag, so a header without it
        is damage — with the checksum block still in place, or cut off
        as a file without checksums would be — and fails open typed."""
        data = bytearray(pristine)
        flags = struct.unpack_from("<H", data, self.FLAGS_AT)[0]
        assert flags & FLAG_CHECKSUMS
        struct.pack_into(
            "<H", data, self.FLAGS_AT, flags & ~FLAG_CHECKSUMS
        )
        if not trailer:
            del data[-CHECKSUMS_STRUCT.size:]
        path = tmp_path / "unflagged.store"
        path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptError, match="checksum flag"):
            PatternStore.open(path, verify_checksums=verify)


class TestVocabulary:
    def stream(self, pristine) -> tuple[int, bytes]:
        vocab = section(pristine, VOCABULARY)
        size, offset = read_uvarint(vocab, 0)
        return size, vocab[offset:]

    def vocab(self, size: int, stream: bytes) -> bytes:
        head = bytearray()
        write_uvarint(head, size)
        return bytes(head) + stream

    def test_declared_length_past_deflate_ratio(self, pristine, tmp_path):
        _, stream = self.stream(pristine)
        huge = MAX_DEFLATE_RATIO * len(stream) + 1
        assert_corrupt(
            tmp_path,
            with_section(pristine, VOCABULARY, self.vocab(huge, stream)),
            "declares",
        )

    @pytest.mark.parametrize("skew", [-1, 1, 1000])
    def test_declared_length_does_not_match(self, pristine, tmp_path, skew):
        size, stream = self.stream(pristine)
        assert_corrupt(
            tmp_path,
            with_section(
                pristine, VOCABULARY, self.vocab(size + skew, stream)
            ),
            "does not inflate",
        )

    def test_truncated_stream(self, pristine, tmp_path):
        size, stream = self.stream(pristine)
        assert_corrupt(
            tmp_path,
            with_section(pristine, VOCABULARY, self.vocab(size, stream[:-6])),
            "does not inflate",
        )

    def test_garbage_stream(self, pristine, tmp_path):
        size, stream = self.stream(pristine)
        garbage = bytes(b ^ 0x5A for b in stream)
        assert_corrupt(
            tmp_path,
            with_section(pristine, VOCABULARY, self.vocab(size, garbage)),
            "vocabulary stream",
        )

    def test_trailing_bytes_after_the_stream(self, pristine, tmp_path):
        size, stream = self.stream(pristine)
        assert_corrupt(
            tmp_path,
            with_section(
                pristine, VOCABULARY, self.vocab(size, stream + b"\0")
            ),
            "does not inflate",
        )

    def test_stream_of_the_wrong_items(self, pristine, tmp_path):
        """A sound zlib stream whose entries do not decode to the
        header's item count."""
        size, stream = self.stream(pristine)
        raw = zlib.decompress(stream)[:-1]
        assert_corrupt(
            tmp_path,
            with_section(
                pristine,
                VOCABULARY,
                self.vocab(len(raw), zlib.compress(raw)),
            ),
            "does not decode",
        )

    def test_empty_section(self, pristine, tmp_path):
        assert_corrupt(
            tmp_path, with_section(pristine, VOCABULARY, b""), "vocabulary"
        )


class TestPostingDirectory:
    def directory(self, items, offsets) -> bytes:
        return pack_u32s(items) + pack_u32s(offsets)

    def test_ids_not_ascending(self, pristine, tmp_path):
        items, offsets = split_directory(pristine)
        items[0], items[1] = items[1], items[0]
        assert_corrupt(
            tmp_path,
            with_section(pristine, DIRECTORY, self.directory(items, offsets)),
            "not ascending",
        )

    def test_repeated_id(self, pristine, tmp_path):
        items, offsets = split_directory(pristine)
        items[1] = items[0]
        assert_corrupt(
            tmp_path,
            with_section(pristine, DIRECTORY, self.directory(items, offsets)),
            "not ascending",
        )

    def test_id_past_the_vocabulary(self, pristine, tmp_path):
        items, offsets = split_directory(pristine)
        n_items = struct.unpack_from("<I", pristine, 12)[0]
        items[-1] = n_items
        assert_corrupt(
            tmp_path,
            with_section(pristine, DIRECTORY, self.directory(items, offsets)),
            "unknown item",
        )

    def test_offsets_decrease(self, pristine, tmp_path):
        items, offsets = split_directory(pristine)
        offsets[1], offsets[2] = offsets[2], offsets[1]
        assert_corrupt(
            tmp_path,
            with_section(pristine, DIRECTORY, self.directory(items, offsets)),
            "not ascending",
        )

    @pytest.mark.parametrize("where", [1, -1])
    def test_offset_past_the_postings(self, pristine, tmp_path, where):
        items, offsets = split_directory(pristine)
        offsets[where] = len(section(pristine, POSTINGS)) + 1
        assert_corrupt(
            tmp_path,
            with_section(pristine, DIRECTORY, self.directory(items, offsets)),
            "posting directory",
        )

    def test_misaligned_section(self, pristine, tmp_path):
        assert_corrupt(
            tmp_path,
            with_section(
                pristine, DIRECTORY, section(pristine, DIRECTORY) + b"\0"
            ),
            "misaligned",
        )


class TestPatternOffsets:
    def test_offsets_decrease(self, pristine, tmp_path):
        offsets = u32s(section(pristine, PATTERN_OFFSETS))
        offsets[1], offsets[2] = offsets[2], offsets[1]
        assert_corrupt(
            tmp_path,
            with_section(pristine, PATTERN_OFFSETS, pack_u32s(offsets)),
            "pattern offsets out of order|pattern record 0 overruns",
        )

    @pytest.mark.parametrize("where", [1, -1])
    def test_offset_past_the_records(self, pristine, tmp_path, where):
        offsets = u32s(section(pristine, PATTERN_OFFSETS))
        offsets[where] = len(section(pristine, PATTERNS)) + 1
        assert_corrupt(
            tmp_path,
            with_section(pristine, PATTERN_OFFSETS, pack_u32s(offsets)),
            "pattern offsets",
        )

    def test_offset_inside_a_record(self, pristine, tmp_path):
        offsets = u32s(section(pristine, PATTERN_OFFSETS))
        offsets[1] += 1
        assert_corrupt(
            tmp_path,
            with_section(pristine, PATTERN_OFFSETS, pack_u32s(offsets)),
            "overruns its offsets",
        )

    def test_table_of_the_wrong_count(self, pristine, tmp_path):
        table = section(pristine, PATTERN_OFFSETS)
        assert_corrupt(
            tmp_path,
            with_section(pristine, PATTERN_OFFSETS, table + U32.pack(0)),
            "does not match the pattern count",
        )


class TestPostings:
    def test_index_past_the_pattern_count(self, pristine, tmp_path):
        postings = bytearray(section(pristine, POSTINGS))
        assert postings[0] < 0x80  # a one-byte first index
        postings[0] = 15  # the example store holds 10 patterns
        assert_corrupt(
            tmp_path,
            with_section(pristine, POSTINGS, bytes(postings)),
            "name a pattern past 10",
        )


class TestLengths:
    def test_last_varint_runs_off_the_section(self, pristine, tmp_path):
        lengths = bytearray(section(pristine, LENGTHS))
        lengths[-1] = 0x80
        assert_corrupt(
            tmp_path,
            with_section(pristine, LENGTHS, bytes(lengths)),
            "pattern lengths",
        )

    def test_section_longer_than_the_pattern_count(self, pristine, tmp_path):
        lengths = section(pristine, LENGTHS)
        assert_corrupt(
            tmp_path,
            with_section(pristine, LENGTHS, lengths + b"\x02"),
            "pattern lengths",
        )


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_byte_flip_answers_pristine_or_fails_typed(pristine, tmp_path, data):
    """Flip any one byte of a checksummed store (header included): a
    verifying open plus a first search and top-k either answer exactly
    as the pristine store does or raise a library error."""
    position = data.draw(st.integers(0, len(pristine) - 1), label="position")
    mask = data.draw(st.integers(1, 255), label="mask")
    flipped = bytearray(pristine)
    flipped[position] ^= mask
    path = tmp_path / "flipped.store"

    def answers(blob: bytes):
        path.write_bytes(blob)
        with PatternStore.open(path) as store:
            return (
                [(m.pattern, m.frequency) for m in store.search("? ?")],
                [(m.pattern, m.frequency) for m in store.top(5)],
            )

    expected = answers(pristine)
    try:
        got = answers(bytes(flipped))
    except ReproError:
        return
    assert got == expected


@pytest.fixture(scope="module")
def signed_twins(tmp_path_factory) -> dict[str, bytes]:
    """A small add delta — a micro-mine of two Fig. 1 sequences — and
    its negated retire twin, as the ingester writes them."""
    mined = micro_mine(
        list(paper_database())[:2],
        paper_hierarchy(),
        MiningParams(sigma=1, gamma=0, lam=2),
    )
    negated = {pattern: -f for pattern, f in mined.patterns.items()}
    directory = tmp_path_factory.mktemp("twins")
    twins = {}
    for kind, patterns, vocabulary in (
        ("add", mined.patterns, mined.vocabulary),
        ("retire", negated, negate_vocabulary(mined.vocabulary)),
    ):
        path = directory / f"{kind}.store"
        write_store(path, patterns, vocabulary, delta=True)
        twins[kind] = path.read_bytes()
    return twins


def test_every_torn_or_flipped_delta_is_refused(signed_twins, tmp_path):
    """Each truncation ``data[:k]`` and each one-byte ``0xFF`` flip of a
    signed delta makes a verifying ``open_store`` raise a library error:
    no damaged delta opens, and none fails with another exception."""
    path = tmp_path / "delta-00000000-00000002.store"
    for kind, data in signed_twins.items():
        path.write_bytes(data)
        with open_store(path) as store:
            assert store.describe()["delta"] is True
        damaged = [(f"data[:{k}]", data[:k]) for k in range(len(data))] + [
            (
                f"0xFF flip at {i}",
                data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:],
            )
            for i in range(len(data))
        ]
        for what, blob in damaged:
            path.write_bytes(blob)
            try:
                open_store(path).close()
            except ReproError:
                continue
            pytest.fail(f"the {kind} delta opened after {what}")
