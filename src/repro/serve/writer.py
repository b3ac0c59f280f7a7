"""Building pattern stores: streaming writers, shard routers, and merges.

The write side of the store format (layout in :mod:`repro.serve.format`),
refactored around **rank-ordered record streams**: every writer consumes
``(coded_pattern, frequency)`` records one at a time, so the peak memory
of a build is bounded by its spill buffers, never by the pattern count.

* :class:`PatternWriter` — streams one store file.  Variable-length
  sections (lengths, offsets, records) spill to anonymous temp files as
  they grow; postings are accumulated as ``(item, index, positions)``
  triples in an :class:`~repro.io.runs.ExternalSort` and come out sorted
  on close; the final file is assembled section by section and swapped
  in atomically.
* :class:`ShardedPatternWriter` — routes one rank-ordered stream across
  shard files by stable hash of the first item, then drops a manifest
  and swaps the whole directory in.
* :func:`merge_stores` — the incremental-build path, and through
  :func:`fold_stores` also the compactor's: vocabularies are unioned
  into a merged vocabulary, per-source streams are id-remapped and
  externally re-sorted (duplicate patterns summing their frequencies),
  and the resulting rank-ordered stream feeds the same writers.  Output
  is byte-identical to a full in-memory rebuild.

Every sort here is the package's one external sort
(:mod:`repro.io.runs`), and ``sort_buffer`` — records per in-memory run,
default :data:`~repro.io.runs.DEFAULT_SORT_BUFFER` — is the one knob that
bounds the memory of a build, a merge or a fold.

All writers are atomic (write-then-rename): rebuilding a store a live
server has mmapped never truncates the mapped inode or exposes a half
file.
"""

from __future__ import annotations

import os
import re
import shutil
import struct
import tempfile
import zlib
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import EncodingError
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import Pattern, rank_key, rank_patterns
from repro.query.build import merge_vocabularies
from repro.io.codec import (
    read_positions,
    read_sequence,
    read_uvarint,
    write_positions,
    write_sequence,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.io.runs import DEFAULT_SORT_BUFFER, ExternalSort
from repro.serve.format import (
    CHECKSUMS_STRUCT,
    FLAG_CHECKSUMS,
    FLAG_DELTA,
    HEADER_SIZE,
    HEADER_STRUCT,
    MAGIC,
    MANIFEST_NAME,
    SECTIONS_STRUCT,
    SHARD_FILE_RE,
    U32,
    U32_MAX,
    VERSION,
    shard_filename,
    shard_of,
    write_manifest,
)
from repro.serve.sharded import open_store

#: names a shard build may leave behind (shard files of any generation,
#: manifest, the compaction lock, their tmps)
_SHARD_ENTRY_RE = re.compile(
    "(" + SHARD_FILE_RE.pattern + "|"
    + re.escape(MANIFEST_NAME)
    + r"|\.compact\.lock)(\.tmp)?"
)

#: in-memory bytes per streamed section before it spills to a temp file
DEFAULT_SECTION_BUFFER = 1 << 16

Record = tuple[Pattern, int]
#: ``(item, pattern index, positions of the item in the pattern)``
Posting = tuple[int, int, tuple[int, ...]]


# ----------------------------------------------------------------------
# run codecs of the two sorts (records back to back, see repro.io.runs)
# ----------------------------------------------------------------------

def write_pattern_record(buf: bytearray, record: Record) -> None:
    """A ``(pattern, frequency)`` record: the coded sequence, then the
    zigzag-coded frequency (signed: delta merges carry decrements)."""
    write_sequence(buf, record[0])
    write_uvarint(buf, zigzag_encode(record[1]))


def read_pattern_record(data, offset: int) -> tuple[Record, int]:
    pattern, offset = read_sequence(data, offset)
    frequency, offset = read_uvarint(data, offset)
    return (pattern, zigzag_decode(frequency)), offset


def write_posting(buf: bytearray, posting: Posting) -> None:
    write_uvarint(buf, posting[0])
    write_uvarint(buf, posting[1])
    write_positions(buf, posting[2])


def read_posting(data, offset: int) -> tuple[Posting, int]:
    item, offset = read_uvarint(data, offset)
    index, offset = read_uvarint(data, offset)
    positions, offset = read_positions(data, offset)
    return (item, index, positions), offset


def sum_equal_patterns(records: Iterable[Record]) -> Iterator[Record]:
    """Collapse a pattern-ordered stream: adjacent records with the same
    pattern become one record with their frequencies summed — document
    support adds over a disjoint union of corpora, so this is exactly
    the merge semantics of :func:`merge_stores`."""
    iterator = iter(records)
    try:
        pattern, frequency = next(iterator)
    except StopIteration:
        return
    for next_pattern, next_frequency in iterator:
        if next_pattern == pattern:
            frequency += next_frequency
        else:
            yield pattern, frequency
            pattern, frequency = next_pattern, next_frequency
    yield pattern, frequency


class _Atomic:
    """``with`` closes (publishes) on success and aborts on an exception."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _remove_shard_dir(directory: Path) -> None:
    """Delete a directory holding (only) a shard build.

    Every entry must look like a shard file or manifest; anything else
    aborts before a single unlink, so a mistyped ``--out`` pointing at a
    real data directory can never be destroyed by a rebuild."""
    for entry in directory.iterdir():
        if not _SHARD_ENTRY_RE.fullmatch(entry.name):
            raise EncodingError(
                f"{directory}: refusing to overwrite — contains "
                f"{entry.name!r}, which is not part of a sharded store"
            )
    shutil.rmtree(directory)


def _encode_vocabulary(vocabulary: Vocabulary, delta: bool = False) -> bytes:
    """The vocabulary section: the inflated length, then the deflated
    per-item name, frequency and parent ids.

    Under ``delta`` the frequencies are zigzag-coded: a retire delta
    carries *negative* item frequencies so merging vocabularies of base
    + deltas reproduces the retained corpus's f-list exactly."""
    vocab = bytearray()
    for item_id in range(len(vocabulary)):
        name = vocabulary.name(item_id).encode("utf-8")
        write_uvarint(vocab, len(name))
        vocab.extend(name)
        frequency = vocabulary.frequency(item_id)
        write_uvarint(vocab, zigzag_encode(frequency) if delta else frequency)
        parents = vocabulary.parent_ids(item_id)
        write_uvarint(vocab, len(parents))
        for parent in parents:
            write_uvarint(vocab, parent)
    section = bytearray()
    write_uvarint(section, len(vocab))
    section.extend(zlib.compress(vocab, 9))
    return bytes(section)


class _SectionSpill:
    """One store section accumulated in bounded memory.

    Bytes append to an in-memory buffer; past ``buffer_bytes`` the
    buffer flushes to an anonymous temp file.  Size and CRC-32 are
    tracked incrementally, so finalizing never re-reads the spill."""

    def __init__(self, spill_dir: Path, buffer_bytes: int) -> None:
        self._dir = spill_dir
        self._limit = max(1, buffer_bytes)
        self._buf = bytearray()
        self._file: IO[bytes] | None = None
        self._flushed = 0
        self._crc = 0

    def append(self, data) -> None:
        self._buf.extend(data)
        if len(self._buf) >= self._limit:
            if self._file is None:
                self._file = tempfile.TemporaryFile(
                    prefix="repro-section-", dir=str(self._dir)
                )
            self._crc = zlib.crc32(self._buf, self._crc)
            self._flushed += len(self._buf)
            self._file.write(self._buf)
            self._buf = bytearray()

    @property
    def size(self) -> int:
        return self._flushed + len(self._buf)

    def checksum(self) -> int:
        return zlib.crc32(self._buf, self._crc) & 0xFFFFFFFF

    def copy_into(self, out: IO[bytes]) -> None:
        if self._file is not None:
            self._file.seek(0)
            shutil.copyfileobj(self._file, out)
        out.write(self._buf)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class PatternWriter(_Atomic):
    """Stream a rank-ordered pattern record sequence into one store file.

    The streaming counterpart of the old materialize-then-serialize
    writer, producing byte-identical files: call :meth:`write` with
    ``(coded_pattern, frequency)`` records in the canonical rank order
    (:func:`~repro.query.base.rank_key` strictly ascending — exactly
    what :func:`~repro.query.base.rank_patterns` or a store's ranked
    iterator emits), then :meth:`close`.  Out-of-order or duplicate
    records are rejected, because a store written out of rank order
    would silently break the answer-equivalence invariant.

    Memory stays bounded regardless of how many records pass through:
    growing sections spill to anonymous temp files next to the target
    (``spill_dir`` overrides), postings go through an external sort of
    ``sort_buffer`` records that is merged during :meth:`close`, and
    only O(vocabulary) state is ever resident.  ``close`` assembles the
    final file and swaps it in with ``os.replace``; :meth:`abort` (or an
    exception inside the ``with`` block) discards everything.
    """

    def __init__(
        self,
        path: str | Path,
        vocabulary: Vocabulary,
        spill_dir: str | Path | None = None,
        buffer_bytes: int = DEFAULT_SECTION_BUFFER,
        sort_buffer: int = DEFAULT_SORT_BUFFER,
        delta: bool = False,
    ) -> None:
        """``delta=True`` writes a signed delta store (header
        :data:`~repro.serve.format.FLAG_DELTA`): every frequency is
        zigzag-coded and records may carry negative frequencies
        (decrements); zero-frequency records are rejected so a delta
        has exactly one canonical byte form."""
        self._path = Path(path)
        self._vocabulary = vocabulary
        self._delta = delta
        spill = Path(spill_dir) if spill_dir is not None else self._path.parent
        self._spill_dir = spill
        self._buffer_bytes = buffer_bytes
        self._n_items = len(vocabulary)
        self._vocab_bytes = _encode_vocabulary(vocabulary, delta=delta)
        self._lengths = _SectionSpill(spill, buffer_bytes)
        self._offsets = _SectionSpill(spill, buffer_bytes)
        self._offsets.append(U32.pack(0))
        self._records = _SectionSpill(spill, buffer_bytes)
        self._cursor = 0
        # triples are unique per (item, pattern) — one carries every
        # position of the item inside the pattern — so their natural
        # order gives each item strictly ascending pattern indexes, as
        # the gap coding demands
        self._postings = ExternalSort(
            write_posting, read_posting, sort_buffer=sort_buffer,
            spill_dir=spill,
        )
        self._count = 0
        self._total_frequency = 0
        self._max_length = 0
        self._last_key: tuple[int, Pattern] | None = None
        self._done = False

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def count(self) -> int:
        """Records written so far."""
        return self._count

    @property
    def total_frequency(self) -> int:
        return self._total_frequency

    def write(self, pattern: Pattern, frequency: int) -> None:
        if self._done:
            raise EncodingError(f"{self._path}: writer already closed")
        pattern = tuple(pattern)
        if not pattern:
            raise EncodingError("empty pattern cannot be stored")
        if min(pattern) < 0 or max(pattern) >= self._n_items:
            raise EncodingError(
                f"pattern {pattern!r} has items outside the vocabulary "
                f"(size {self._n_items})"
            )
        if self._delta:
            if frequency == 0:
                raise EncodingError(
                    f"{self._path}: zero-frequency record {pattern!r} has "
                    "no effect; delta stores must be in canonical form"
                )
        elif frequency < 0:
            # frequency 0 is a legal plain record (membership means
            # "stored", not "frequency > 0"); decrements are delta-only
            raise EncodingError(
                f"{self._path}: frequency {frequency} for {pattern!r}; "
                "only delta stores may carry negative frequencies"
            )
        key = rank_key((pattern, frequency))
        if self._last_key is not None and key <= self._last_key:
            raise EncodingError(
                f"{self._path}: pattern stream is not in rank order "
                f"(most frequent first, ties by coded pattern) at "
                f"record {self._count}"
            )
        self._last_key = key

        length = bytearray()
        write_uvarint(length, len(pattern))
        self._lengths.append(length)

        record = bytearray()
        write_uvarint(
            record, zigzag_encode(frequency) if self._delta else frequency
        )
        write_sequence(record, pattern)
        if self._cursor + len(record) > U32_MAX:
            raise EncodingError(
                f"{self._path}: pattern section passes the u32 offset "
                f"range at record {self._count}; shard the store"
            )
        self._records.append(record)
        self._cursor += len(record)
        self._offsets.append(U32.pack(self._cursor))

        positions_by_item: dict[int, tuple[int, ...]] = {}
        for position, item in enumerate(pattern):
            positions_by_item[item] = positions_by_item.get(item, ()) + (position,)
        for item, positions in positions_by_item.items():
            self._postings.add((item, self._count, positions))

        self._count += 1
        self._total_frequency += frequency
        self._max_length = max(self._max_length, len(pattern))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Assemble the sections and atomically publish the store file."""
        if self._done:
            return
        self._done = True
        tmp = self._path.with_name(self._path.name + ".tmp")
        postings = _SectionSpill(self._spill_dir, self._buffer_bytes)
        try:
            # the directory lists only the items with postings: O(items
            # this file indexes) ids and offsets, held until written
            item_ids: list[int] = []
            item_offsets = [0]
            cursor = 0
            for item_id, entries in groupby(self._postings, key=itemgetter(0)):
                # flush into the spill in bounded chunks: a single
                # stopword-grade item may own postings for most of the
                # store, and one bytearray per item would grow with it
                buf = bytearray()
                previous = 0  # the first index is coded absolute
                for _, idx, positions in entries:
                    write_uvarint(buf, idx - previous)
                    previous = idx
                    write_positions(buf, positions)
                    if len(buf) >= self._buffer_bytes:
                        postings.append(buf)
                        cursor += len(buf)
                        buf = bytearray()
                postings.append(buf)
                cursor += len(buf)
                if cursor > U32_MAX:
                    raise EncodingError(
                        f"{self._path}: postings section passes the u32 "
                        "offset range; shard the store"
                    )
                item_ids.append(item_id)
                item_offsets.append(cursor)
            directory = struct.pack(
                f"<{2 * len(item_ids) + 1}I", *item_ids, *item_offsets
            )

            spills = (self._lengths, self._offsets, self._records)
            sizes = (
                len(self._vocab_bytes),
                *(s.size for s in spills),
                len(directory),
                postings.size,
            )
            sections: list[int] = []
            offset = HEADER_SIZE
            for size in sizes:
                sections.append(offset)
                offset += size
            sections.append(offset)  # end of the data sections

            flags = FLAG_CHECKSUMS
            if self._delta:
                flags |= FLAG_DELTA
            header = HEADER_STRUCT.pack(
                VERSION,
                flags,
                self._n_items,
                self._count,
                zigzag_encode(self._total_frequency)
                if self._delta
                else self._total_frequency,
                self._max_length,
            )
            head = MAGIC + header + SECTIONS_STRUCT.pack(*sections)
            try:
                with open(tmp, "wb") as f:
                    f.write(head)
                    f.write(self._vocab_bytes)
                    for spill in spills:
                        spill.copy_into(f)
                    f.write(directory)
                    postings.copy_into(f)
                    # the first CRC covers the head too: a flipped
                    # header flag or count cannot pass as intact
                    f.write(
                        CHECKSUMS_STRUCT.pack(
                            zlib.crc32(
                                self._vocab_bytes, zlib.crc32(head)
                            ) & 0xFFFFFFFF,
                            *(spill.checksum() for spill in spills),
                            zlib.crc32(directory) & 0xFFFFFFFF,
                            postings.checksum(),
                        )
                    )
                os.replace(tmp, self._path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
        finally:
            postings.close()
            self._release()

    def abort(self) -> None:
        """Discard all buffered/spilled state without touching ``path``."""
        if self._done:
            return
        self._done = True
        self._release()

    def _release(self) -> None:
        for spill in (self._lengths, self._offsets, self._records):
            spill.close()
        self._postings.close()


class _ShardStreamWriter(_Atomic):
    """Route one rank-ordered stream into shard files of a directory.

    The core router shared by :class:`ShardedPatternWriter` (fresh
    builds, which add a build-tmp directory swap around it) and the
    compactor (which writes generation-tagged files straight into a
    live store directory).  Each shard file is written by its own
    :class:`PatternWriter`; a globally rank-ordered input stream yields
    rank-ordered per-shard subsequences, so every shard stays a valid
    standalone store.
    """

    def __init__(
        self,
        directory: Path,
        files: Sequence[str],
        vocabulary: Vocabulary,
        sort_buffer: int = DEFAULT_SORT_BUFFER,
        delta: bool = False,
    ) -> None:
        self._vocabulary = vocabulary
        self._num = len(files)
        self.count = 0
        self.total_frequency = 0
        self._writers: list[PatternWriter] = []
        try:
            for name in files:
                self._writers.append(
                    PatternWriter(
                        directory / name,
                        vocabulary,
                        spill_dir=directory,
                        sort_buffer=sort_buffer,
                        delta=delta,
                    )
                )
        except BaseException:
            self.abort()
            raise

    def write(self, pattern: Pattern, frequency: int) -> None:
        if not pattern:
            raise EncodingError("empty pattern cannot be stored")
        index = shard_of(self._vocabulary.name(pattern[0]), self._num)
        self._writers[index].write(pattern, frequency)
        self.count += 1
        self.total_frequency += frequency

    def close(self) -> None:
        try:
            for writer in self._writers:
                writer.close()
        except BaseException:
            self.abort()  # the shards not yet closed
            raise

    def abort(self) -> None:
        for writer in self._writers:
            writer.abort()


class ShardedPatternWriter(_Atomic):
    """Stream a rank-ordered record sequence into a fresh shard set.

    Shard files and manifest are built in a sibling ``.build-tmp``
    directory and swapped in whole on :meth:`close`, so rebuilding over
    an existing shard set (even with a different shard count) can never
    expose a manifest describing a mix of old and new shard files: a
    crash leaves either the previous set or no readable set, never a
    hybrid.  A destination containing anything that is not a sharded
    store is refused, not deleted.
    """

    def __init__(
        self,
        path: str | Path,
        vocabulary: Vocabulary,
        shards: int,
        sort_buffer: int = DEFAULT_SORT_BUFFER,
        delta: bool = False,
    ) -> None:
        if shards < 1:
            raise EncodingError(f"shard count must be >= 1, got {shards}")
        directory = Path(path)
        if directory.exists() and not directory.is_dir():
            raise EncodingError(
                f"{directory}: exists and is not a directory; omit shards "
                "to overwrite a single-file store"
            )
        self._directory = directory
        self._vocabulary = vocabulary
        tmp = directory.with_name(directory.name + ".build-tmp")
        if tmp.exists():
            _remove_shard_dir(tmp)  # leftover of a crashed build
        tmp.mkdir(parents=True)
        self._tmp = tmp
        self._files = [shard_filename(i, shards) for i in range(shards)]
        self._done = False
        self._delta = delta
        try:
            self._router = _ShardStreamWriter(
                tmp,
                self._files,
                vocabulary,
                sort_buffer=sort_buffer,
                delta=delta,
            )
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    @property
    def path(self) -> Path:
        return self._directory

    @property
    def count(self) -> int:
        return self._router.count

    @property
    def total_frequency(self) -> int:
        return self._router.total_frequency

    def write(self, pattern: Pattern, frequency: int) -> None:
        if self._done:
            raise EncodingError(f"{self._directory}: writer already closed")
        self._router.write(pattern, frequency)

    def close(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            self._router.close()
            meta = {
                "items": len(self._vocabulary),
                "patterns": self._router.count,
                "total_frequency": self._router.total_frequency,
                "generation": 0,
            }
            if self._delta:
                meta["delta"] = True
            write_manifest(self._tmp, self._files, meta)
            if self._directory.exists():
                _remove_shard_dir(self._directory)  # validates contents first
            os.replace(self._tmp, self._directory)
        except BaseException:
            shutil.rmtree(self._tmp, ignore_errors=True)
            raise

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        self._router.abort()
        shutil.rmtree(self._tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# mapping front-ends (the pre-streaming API, now thin wrappers)
# ----------------------------------------------------------------------

def write_store(
    path: str | Path,
    patterns: Mapping[Pattern, int],
    vocabulary: Vocabulary,
    delta: bool = False,
) -> None:
    """Serialize coded patterns + vocabulary into a store file.

    Every file carries a CRC-32 per section and sets
    :data:`~repro.serve.format.FLAG_CHECKSUMS`, letting readers detect
    bit-rot on open.  Empty patterns are rejected: no miner
    produces them, and the postings-based exact lookup could not find
    them, so storing one would break the store/index answer-equivalence
    invariant.
    """
    with PatternWriter(path, vocabulary, delta=delta) as writer:
        for pattern, frequency in rank_patterns(patterns):
            writer.write(pattern, frequency)


def write_sharded_store(
    path: str | Path,
    patterns: Mapping[Pattern, int],
    vocabulary: Vocabulary,
    shards: int,
) -> Path:
    """Write a sharded store: a directory of shard files plus a manifest.

    Patterns are routed by :func:`~repro.serve.format.shard_of` over the
    *name* of their first item; each shard file carries the full shared
    vocabulary, so any shard also opens as a standalone
    :class:`~repro.serve.store.PatternStore`.
    """
    with ShardedPatternWriter(path, vocabulary, shards) as writer:
        for pattern, frequency in rank_patterns(patterns):
            writer.write(pattern, frequency)
    return writer.path


# ----------------------------------------------------------------------
# streaming merge
# ----------------------------------------------------------------------

def fold_stores(
    sources: Sequence[str | Path],
    open_writer: Callable[[Vocabulary], _Atomic],
    sort_buffer: int = DEFAULT_SORT_BUFFER,
    spill_dir: str | Path | None = None,
    signed: bool = False,
) -> tuple[Vocabulary, _Atomic]:
    """The one fold loop, behind :func:`merge_stores` and the compactor.

    Sources open with their decode caches off (a linear scan gains
    nothing from them); their vocabularies are unioned (``signed``: the
    frequency-free depth order of a delta output), their ranked streams
    remapped onto the union, externally sorted by pattern so duplicates
    sum, re-sorted into rank order and written to
    ``open_writer(vocabulary)``, dropping records whose summed support
    is below 1 (under ``signed``, only exact zeros).  Peak memory is
    ``sort_buffer`` records per sort plus O(vocabulary), however many
    patterns flow through.  Returns the vocabulary and the closed writer.
    """
    by_pattern, by_rank = (
        ExternalSort(
            write_pattern_record, read_pattern_record, key=key,
            sort_buffer=sort_buffer, spill_dir=spill_dir,
        )
        for key in (itemgetter(0), rank_key)
    )
    opened = []
    try:
        for source in sources:
            opened.append(
                open_store(
                    source, pattern_cache_size=0, postings_cache_size=0
                )
            )
        vocabulary = merge_vocabularies(
            [store.vocabulary for store in opened], signed=signed
        )
        for store in opened:
            remap = [
                vocabulary.id(store.vocabulary.name(item_id))
                for item_id in range(len(store.vocabulary))
            ]
            for pattern, frequency in store._iter_ranked():
                by_pattern.add(
                    (tuple([remap[item] for item in pattern]), frequency)
                )
        for record in sum_equal_patterns(by_pattern):
            by_rank.add(record)
        with open_writer(vocabulary) as writer:
            for pattern, frequency in by_rank:
                if frequency == 0 or (frequency < 0 and not signed):
                    continue
                writer.write(pattern, frequency)
        return vocabulary, writer
    finally:
        by_pattern.close()
        by_rank.close()
        for store in opened:
            store.close()


def merge_stores(
    sources: Sequence[str | Path],
    out: str | Path,
    shards: int | None = None,
    sort_buffer: int = DEFAULT_SORT_BUFFER,
    as_delta: bool = False,
) -> None:
    """Merge existing stores (files or shard directories) into one store.

    The incremental-build path: vocabularies are unioned (item
    frequencies summed, the total order recomputed, pattern ids
    remapped), postings are rebuilt over the union, and frequencies of
    patterns present in several sources are summed.  Over mining runs of
    disjoint corpora this reproduces, byte for byte, the store a full
    rebuild over the combined runs would produce — except patterns whose
    support crosses the σ threshold only on the combined corpus, which
    no merge of already-thresholded results can recover.

    Sources may include signed *delta* stores (ingest increments and
    retire decrements): frequencies sum algebraically, and the merged
    record stream keeps support ≥ 1 — a pattern whose summed support
    falls below it (e.g. fully retired, net 0) vanishes from the output
    exactly as it would from a re-mine of the retained corpus.

    ``as_delta=True`` writes the *output* as a signed delta store
    instead: no thresholding except dropping exact-zero records (the
    canonical form), so folding deltas into one delta is associative —
    any grouping or arrival order of the same deltas produces the same
    bytes.

    Nothing is materialized (:func:`fold_stores`): ``sort_buffer``, the
    records per in-memory run of every sort, bounds peak memory.

    ``shards=None`` writes a single file; ``shards=N`` a shard set —
    including re-routing an existing shard set to a new shard count
    (``lash index merge old.shards --out new.shards --shards M``).
    """
    if not sources:
        raise EncodingError("merge needs at least one source store")
    out = Path(out)
    if shards is None and out.is_dir():
        # a directory here is almost certainly a previous sharded
        # build; replacing it with a file silently would orphan it
        raise EncodingError(
            f"{out}: is a directory; pass shards=N to overwrite a "
            "sharded store"
        )

    # the sources stream lazily, so `out` may be one of them: the
    # writers build in tmp files/directories and swap in atomically,
    # and an already-mmapped source inode survives the replace
    def open_writer(vocabulary: Vocabulary) -> _Atomic:
        if shards is None:
            return PatternWriter(
                out, vocabulary, sort_buffer=sort_buffer, delta=as_delta
            )
        return ShardedPatternWriter(
            out, vocabulary, shards, sort_buffer=sort_buffer, delta=as_delta
        )

    fold_stores(
        sources, open_writer, sort_buffer=sort_buffer, spill_dir=out.parent,
        signed=as_delta,
    )


__all__ = [
    "PatternWriter",
    "ShardedPatternWriter",
    "write_store",
    "write_sharded_store",
    "fold_stores",
    "merge_stores",
]
