"""The pattern store reader: a memory-mapped binary index of mined patterns.

``lash mine`` is the expensive, run-once half of the paper's exploration
story; this module is the cheap, run-many half.  A store file is built
once (:mod:`repro.serve.writer`) from a mining result or a patterns TSV
and then serves wildcard queries directly from disk: opening it reads
only a fixed-size header, the file is memory-mapped, and every section —
vocabulary, pattern records, postings — is decoded lazily on first use.
A server process is answering its first query microseconds after
``open()`` instead of re-deriving a vocabulary and inverted index from
text.

The byte layout lives in :mod:`repro.serve.format`; patterns are stored
most-frequent-first (ties by coded pattern), the exact order
:class:`~repro.query.index.PatternIndex` uses, so the two backends
return identical ranked results.  The ``u32`` pattern-offset table gives
O(1) random access into the pattern records, and the posting directory —
the ascending ids of the items with postings in the file, next to their
``u32`` offsets — finds an item's postings by binary search, so the
store never has to decode records it does not touch.  The vocabulary is
deflated on disk and inflated once per mount.  Every store carries
per-section checksums (a header without
:data:`~repro.serve.format.FLAG_CHECKSUMS` is refused as corrupt), and
``open()`` verifies every section's CRC-32 and raises
:class:`~repro.errors.StoreCorruptError` on a mismatch (skippable with
``verify_checksums=False`` when O(header) startup matters more than
bit-rot detection); without the sweep, damaged tables, postings, pattern
lengths and a damaged vocabulary still raise it when first read.
"""

from __future__ import annotations

import mmap
import os
import threading
import zlib
from bisect import bisect_left
from operator import le, lt
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import EncodingError, HierarchyError, StoreCorruptError
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import Pattern, PatternSearchBase
from repro.io.codec import (
    read_positional_postings,
    read_sequence,
    read_uvarint,
    section_checksum,
    zigzag_decode,
)
from repro.serve.format import (
    CHECKSUMS_STRUCT,
    FLAG_CHECKSUMS,
    FLAG_DELTA,
    HEADER_SIZE,
    HEADER_STRUCT,
    MAGIC,
    MAX_DEFLATE_RATIO,
    SECTION_NAMES,
    SECTIONS_STRUCT,
    U32,
    VERSION,
    u32_table,
)


class PatternStore(PatternSearchBase):
    """Lazily loaded, memory-mapped pattern store.

    Opening is O(header) plus one CRC-32 sweep (disable with
    ``verify_checksums=False``): the constructor validates
    the magic, reads the section table and maps the file.  The
    vocabulary, pattern records, postings lists and length groups are
    each decoded on first access and cached, so a process that only ever
    runs selective queries never pays for the sections those queries
    skip.

    Thread-safe for concurrent reads (the HTTP server runs one thread
    per request): one-time section builds (vocabulary, length groups)
    are lock-guarded; per-record decodes are lock-free pure reads of
    the immutable map with locked cache inserts, so cold-cache misses
    proceed in parallel.

    Decoded records are memoized up to ``pattern_cache_size`` patterns
    and ``postings_cache_size`` postings lists; past the caps, decodes
    still answer but are not retained, so a single broad scan cannot
    pin the whole decoded store in memory.

    Use as a context manager or call :meth:`close` to release the map.
    """

    def __init__(
        self,
        path: str | Path,
        pattern_cache_size: int = 1 << 16,
        postings_cache_size: int = 1 << 12,
        verify_checksums: bool = True,
        vocabulary: Vocabulary | None = None,
        fileobj=None,
    ) -> None:
        """``vocabulary`` pre-supplies the decoded vocabulary, skipping
        the vocab-section decode entirely.  The caller asserts it equals
        the file's own section — the sharded store passes the one copy
        all its shards share instead of letting each shard re-decode the
        identical bytes.

        ``fileobj`` supplies an already-open binary handle for ``path``
        (ownership transfers; it is closed with the store).  The sharded
        store opens one per shard at mount time, so a shard file
        unlinked later — e.g. a generation retired by online compaction
        — can still be lazily mapped through the pinned inode."""
        super().__init__()
        self._pattern_cache_size = pattern_cache_size
        self._postings_cache_size = postings_cache_size
        self._path = Path(path)
        self._file = open(self._path, "rb") if fileobj is None else fileobj
        try:
            head = self._file.read(HEADER_SIZE)
            if len(head) < HEADER_SIZE or not head.startswith(MAGIC):
                raise EncodingError(
                    f"{self._path}: not a pattern store (bad magic)"
                )
            (
                self._version,
                self._flags,
                self._n_items,
                self._n_patterns,
                self._total_frequency,
                self._max_length,
            ) = HEADER_STRUCT.unpack_from(head, len(MAGIC))
            if self._version != VERSION:
                raise EncodingError(
                    f"{self._path}: unsupported store version "
                    f"{self._version} (this build reads version {VERSION} "
                    "only; rebuild the store with `lash index build` or "
                    "re-mine it)"
                )
            self._bounds = SECTIONS_STRUCT.unpack_from(
                head, len(MAGIC) + HEADER_STRUCT.size
            )
            (
                self._off_vocab,
                self._off_lengths,
                self._off_pat_offsets,
                self._off_patterns,
                self._off_post_dir,
                self._off_postings,
                self._off_end,
            ) = self._bounds
            if not self._flags & FLAG_CHECKSUMS:
                # every writer sets it; a header without it is damaged
                raise StoreCorruptError(
                    f"{self._path}: header lacks the checksum flag"
                )
            # a signed delta store (spool-only): every frequency is
            # zigzag-coded and decrements come out negative
            self._delta = bool(self._flags & FLAG_DELTA)
            if self._delta:
                self._total_frequency = zigzag_decode(self._total_frequency)
            expected_size = self._off_end + CHECKSUMS_STRUCT.size
            if expected_size != os.fstat(self._file.fileno()).st_size:
                raise StoreCorruptError(
                    f"{self._path}: truncated pattern store"
                )
            self._check_table_sizes()
            self._data = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            if verify_checksums:
                self._verify_checksums()
            self._map_tables()
        except Exception:
            self._file.close()
            raise
        self._lock = threading.RLock()
        self._vocab: Vocabulary | None = vocabulary
        self._pattern_cache: dict[int, tuple[Pattern, int]] = {}
        #: item id -> (pattern indexes, per entry the positions the
        #: item occupies inside that pattern), decoded together
        self._postings_cache: dict[
            int, tuple[list[int], list[tuple[int, ...]]]
        ] = {}
        self._by_length: dict[int, list[int]] | None = None

    def _corrupt(self, what: str) -> StoreCorruptError:
        return StoreCorruptError(f"{self._path}: {what}")

    def _check_table_sizes(self) -> None:
        """O(header) shape checks: sections in file order, and the
        fixed-width tables sized for the counts the header declares."""
        if self._off_vocab != HEADER_SIZE or any(
            map(lt, self._bounds[1:], self._bounds[:-1])
        ):
            raise self._corrupt("section table out of order")
        if self._off_patterns - self._off_pat_offsets != U32.size * (
            self._n_patterns + 1
        ):
            raise self._corrupt(
                "pattern offsets section does not match the pattern count"
            )
        entries, odd = divmod(self._off_postings - self._off_post_dir, U32.size)
        if odd or entries % 2 == 0:
            raise self._corrupt("posting directory section is misaligned")

    def _map_tables(self) -> None:
        """View the ``u32`` tables in place and check their end entries;
        the directory's order is checked on first use
        (:meth:`_check_directory`)."""
        data = self._data
        self._pattern_offsets = u32_table(
            data, self._off_pat_offsets, self._off_patterns
        )
        listed = (self._off_postings - self._off_post_dir) // (2 * U32.size)
        split = self._off_post_dir + U32.size * listed
        self._posting_items = u32_table(data, self._off_post_dir, split)
        self._posting_offsets = u32_table(data, split, self._off_postings)
        self._directory_checked = False
        if self._pattern_offsets[0] != 0 or self._pattern_offsets[-1] != (
            self._off_post_dir - self._off_patterns
        ):
            raise self._corrupt("pattern offsets do not span their section")
        if self._posting_offsets[0] != 0 or self._posting_offsets[-1] != (
            self._off_end - self._off_postings
        ):
            raise self._corrupt("posting directory does not span the postings")

    def _verify_checksums(self) -> None:
        """CRC-check every section against the trailing checksum block
        (the first CRC also covers the magic, header and section table)."""
        stored = CHECKSUMS_STRUCT.unpack_from(self._data, self._off_end)
        bounds = (0,) + self._bounds[1:]
        for i, name in enumerate(SECTION_NAMES):
            actual = section_checksum(self._data, bounds[i], bounds[i + 1])
            if actual != stored[i]:
                if not i:
                    name = "header or " + name
                raise StoreCorruptError(
                    f"{self._path}: checksum mismatch in {name} section "
                    f"(stored {stored[i]:#010x}, computed {actual:#010x})"
                )

    @classmethod
    def open(
        cls, path: str | Path, verify_checksums: bool = True
    ) -> "PatternStore":
        return cls(path, verify_checksums=verify_checksums)

    @classmethod
    def build(
        cls,
        path: str | Path,
        patterns: Mapping[Pattern, int],
        vocabulary: Vocabulary,
    ) -> "PatternStore":
        """Write a store file and open it."""
        # the one writer edge of this module, taken when a store is
        # built: a process that only reads stores never loads the writer
        from repro.serve.writer import write_store

        write_store(path, patterns, vocabulary)
        return cls(path)

    def close(self) -> None:
        for table in (
            self._pattern_offsets, self._posting_items, self._posting_offsets
        ):
            if isinstance(table, memoryview):
                table.release()  # views of the map pin it open
        self._data.close()
        self._file.close()

    def __enter__(self) -> "PatternStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # header-only metadata
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    def describe(self) -> dict:
        """Store metadata; available without decoding any section."""
        return {
            "path": str(self._path),
            "version": self._version,
            "items": self._n_items,
            "patterns": self._n_patterns,
            "total_frequency": self._total_frequency,
            "max_length": self._max_length,
            "file_bytes": self._off_end + CHECKSUMS_STRUCT.size,
            "delta": self._delta,
            "sections": {
                name: self._bounds[i + 1] - self._bounds[i]
                for i, name in enumerate(SECTION_NAMES)
            },
        }

    def record_bytes(self, idx: int) -> tuple[int, int]:
        """Bytes pattern record ``idx`` costs this file: its span in the
        pattern section and its entry in the pattern-offset table."""
        offsets = self._pattern_offsets
        return offsets[idx + 1] - offsets[idx], U32.size

    # ------------------------------------------------------------------
    # storage primitives (see PatternSearchBase)
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        if self._vocab is None:
            with self._lock:
                if self._vocab is None:
                    self._vocab = self._decode_vocabulary()
        return self._vocab

    def _inflate_vocabulary(self) -> bytes:
        """The vocabulary section's zlib stream, inflated.  Memory is
        bounded by the declared length, which in turn is bounded by what
        deflate can expand the section's bytes to."""
        data = self._data
        try:
            size, offset = read_uvarint(data, self._off_vocab)
        except EncodingError:
            offset = self._off_end  # the varint ran off the file
        if offset > self._off_lengths:
            raise self._corrupt("vocabulary section has no length")
        stream = data[offset:self._off_lengths]
        if size > MAX_DEFLATE_RATIO * len(stream):
            raise self._corrupt(
                f"vocabulary declares {size} inflated bytes from "
                f"{len(stream)} deflated"
            )
        inflater = zlib.decompressobj()
        try:
            # one byte past the declared size shows a longer stream
            raw = inflater.decompress(stream, size + 1)
        except zlib.error as exc:
            raise self._corrupt(f"vocabulary stream is damaged: {exc}") from None
        if len(raw) != size or not inflater.eof or inflater.unused_data:
            raise self._corrupt(
                f"vocabulary stream does not inflate to its declared "
                f"{size} bytes"
            )
        return raw

    def _decode_vocabulary(self) -> Vocabulary:
        raw = self._inflate_vocabulary()
        offset = 0
        names: list[str] = []
        frequencies: list[int] = []
        parent_lists: list[tuple[int, ...]] = []
        try:
            for _ in range(self._n_items):
                n, offset = read_uvarint(raw, offset)
                if offset + n > len(raw):
                    raise IndexError(offset + n)
                names.append(raw[offset:offset + n].decode("utf-8"))
                offset += n
                freq, offset = read_uvarint(raw, offset)
                frequencies.append(zigzag_decode(freq) if self._delta else freq)
                n_parents, offset = read_uvarint(raw, offset)
                parents = []
                for _ in range(n_parents):
                    parent, offset = read_uvarint(raw, offset)
                    parents.append(parent)
                parent_lists.append(tuple(parents))
            if offset != len(raw):
                raise IndexError(offset)
            hierarchy = Hierarchy()
            for name in names:
                hierarchy.add_item(name)
            for name, parents in zip(names, parent_lists):
                for parent in parents:
                    hierarchy.add_edge(name, names[parent])
            return Vocabulary(names, hierarchy, frequencies)
        except (
            IndexError, UnicodeDecodeError, EncodingError, HierarchyError
        ) as exc:
            raise self._corrupt(
                f"vocabulary does not decode to {self._n_items} items "
                f"({type(exc).__name__}: {exc})"
            ) from None

    def _num_patterns(self) -> int:
        return self._n_patterns

    def _pattern_at(self, idx: int) -> tuple[Pattern, int]:
        # per-record decodes are pure reads of the immutable mmap, so
        # concurrent cold misses decode in parallel (worst case: two
        # threads build the same record); only the insert takes the lock
        cached = self._pattern_cache.get(idx)
        if cached is not None:
            return cached
        if not 0 <= idx < self._n_patterns:
            raise IndexError(f"pattern index {idx} out of range")
        offsets = self._pattern_offsets
        start = offsets[idx]
        end = offsets[idx + 1]
        if not start < end <= offsets[-1]:
            raise self._corrupt(f"pattern offsets out of order at record {idx}")
        base = self._off_patterns
        data = self._data
        try:
            freq, offset = read_uvarint(data, base + start)
            pattern, offset = read_sequence(data, offset)
        except EncodingError:
            offset = -1  # a varint ran off the file
        if offset != base + end:
            raise self._corrupt(f"pattern record {idx} overruns its offsets")
        if self._delta:
            freq = zigzag_decode(freq)
        record = (pattern, freq)
        with self._lock:
            if len(self._pattern_cache) < self._pattern_cache_size:
                self._pattern_cache[idx] = record
        return record

    def _check_directory(self) -> None:
        """Check the posting directory's order once (O(listed items))
        before the first lookup trusts a binary search over it."""
        with self._lock:
            if self._directory_checked:
                return
            items = self._posting_items.tolist()
            offsets = self._posting_offsets.tolist()
            if items and items[-1] >= self._n_items:
                raise self._corrupt("posting directory lists an unknown item")
            # strictly: an id is listed once, and only with postings
            if any(map(le, items[1:], items)) or any(
                map(le, offsets[1:], offsets)
            ):
                raise self._corrupt("posting directory is not ascending")
            self._directory_checked = True

    def _posting_span(self, item_id: int) -> tuple[int, int]:
        """``(start, end)`` of an item's postings relative to the
        postings section; ``(0, 0)`` for an item the file does not list."""
        if not self._directory_checked:
            self._check_directory()
        items = self._posting_items
        slot = bisect_left(items, item_id)
        if slot < len(items) and items[slot] == item_id:
            offsets = self._posting_offsets
            return offsets[slot], offsets[slot + 1]
        return 0, 0

    def _decode_postings(
        self, item_id: int
    ) -> tuple[list[int], list[tuple[int, ...]]]:
        start, end = self._posting_span(item_id)
        base = self._off_postings
        try:
            indexes, positions = read_positional_postings(
                self._data, base + start, base + end
            )
        except EncodingError:
            raise self._corrupt(f"postings of item {item_id} overrun") from None
        # indexes ascend, so the last one bounds them all
        if indexes and indexes[-1] >= self._n_patterns:
            raise self._corrupt(
                f"postings of item {item_id} name a pattern past "
                f"{self._n_patterns}"
            )
        return indexes, positions

    def _postings_for(self, item_id: int) -> Sequence[int]:
        return self._positional_postings_for(item_id)[0]

    def _postings_size_estimate(self, item_id: int) -> int:
        """O(log listed items) postings-size estimate for the query
        planner: the postings byte range out of the directory, divided
        by a rough bytes-per-entry (an entry is an index delta varint
        plus a position count plus gap-coded positions, ≥3 bytes).
        Never decodes — ordering and skip decisions only need relative
        magnitudes.  A function of the store bytes alone, never of
        which postings earlier queries happened to decode: every
        process mounting this file prices a query the same."""
        if not 0 <= item_id < self._n_items:
            return 0
        start, end = self._posting_span(item_id)
        span = end - start
        if not span:
            return 0
        return max(1, span // 3)

    def _positional_postings_for(self, item_id: int):
        if not 0 <= item_id < self._n_items:
            return [], []
        cached = self._postings_cache.get(item_id)
        if cached is None:
            cached = self._decode_postings(item_id)
            with self._lock:
                if len(self._postings_cache) < self._postings_cache_size:
                    self._postings_cache[item_id] = cached
        return cached

    def _length_groups(self) -> dict[int, Sequence[int]]:
        if self._by_length is None:
            with self._lock:
                if self._by_length is None:
                    groups: dict[int, list[int]] = {}
                    offset = self._off_lengths
                    try:
                        for idx in range(self._n_patterns):
                            length, offset = read_uvarint(self._data, offset)
                            groups.setdefault(length, []).append(idx)
                    except EncodingError:
                        offset = -1  # a varint ran off the file
                    # exactly one varint per pattern, ending at the boundary
                    if offset != self._off_pat_offsets:
                        raise self._corrupt(
                            "pattern lengths do not fill their section"
                        )
                    self._by_length = groups
        return self._by_length


__all__ = ["PatternStore"]
