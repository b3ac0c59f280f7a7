"""On-disk format of the pattern store: layout constants and helpers.

One store *file* (written by :mod:`repro.serve.writer`, read by
:mod:`repro.serve.store`) is laid out as::

    magic "RPROPST1"                                          8 bytes
    header: version, flags, n_items, n_patterns,
            total_frequency, max_length                       28 bytes
    section table: 7 × u64 absolute offsets                   56 bytes
    [vocab]     uvarint inflated length, then a zlib stream
                of: per item name, frequency, parent ids      deflated
    [lengths]   per pattern: its length                       varint
    [pat_offs]  (n_patterns+1) × u32, relative to [patterns]  fixed
    [patterns]  per pattern: frequency + zigzag-delta items   varint
    [post_dir]  k × u32 ascending item ids (the items with
                postings in this file), then (k+1) × u32
                offsets relative to [postings]                fixed
    [postings]  per listed item: ascending pattern indexes,
                gap-coded, each interleaved with the gap-coded
                positions of the item in that pattern
    [checksums] 6 × u32 CRC-32, one per section               24 bytes

Every fixed-width entry is little-endian; the writer refuses a store
whose pattern or postings section would pass the ``u32`` range.  An
item missing from ``[post_dir]`` has no postings in this file, so the
directory costs one id and one offset per item the file actually
indexes, not per vocabulary entry.

Every file ends in the checksum section and sets :data:`FLAG_CHECKSUMS`
in its header flags; a reader refuses a header without the flag as
corrupt.  The section table's final offset marks the end of the
postings, so readers locate the checksums (and validate the file size)
from it.  The first checksum also covers the magic, header and section
table, so every byte but the checksums themselves is under a CRC.

A *sharded* store is a directory of store files plus a JSON manifest
(:data:`MANIFEST_NAME`).  Patterns are routed to shards by
:func:`shard_of` — a stable FNV-1a hash of the pattern's **first item
name** (names, not ids, so the routing survives vocabulary remaps when
stores are merged).  Every shard file carries the full shared
vocabulary, making each one a valid standalone store.
"""

from __future__ import annotations

import json
import re
import struct
import sys
from array import array
from pathlib import Path
from typing import Sequence

from repro.errors import EncodingError, StoreCorruptError
from repro.io.codec import stable_hash

MAGIC = b"RPROPST1"
#: the store version — the only one written or read.  Postings are
#: positional: each ``(item, pattern index)`` entry carries the
#: gap-coded positions the item occupies inside the pattern, feeding the
#: query plans' positional propagation.
VERSION = 3

#: header flag: a 6 × u32 CRC-32 section trails the postings (set in
#: every file)
FLAG_CHECKSUMS = 0x1
#: header flag: the store is a *signed delta*.  Every frequency — the
#: header's total, each vocabulary entry's, each pattern record's — is
#: zigzag-encoded and may be negative; a negative record is a
#: *decrement* emitted by ``lash ingest`` when sequences are retired.
#: Delta stores exist only in the compaction spool: ``merge_stores``
#: consumes them and the fold drops any pattern whose summed frequency
#: falls below the minimum, so a served store never carries the flag.
FLAG_DELTA = 0x2

HEADER_STRUCT = struct.Struct("<HHIQQI")
SECTIONS_STRUCT = struct.Struct("<7Q")
U32 = struct.Struct("<I")
#: the largest offset a ``u32`` table entry can hold
U32_MAX = 0xFFFFFFFF
#: deflate's largest expansion: no valid stream inflates to more than
#: this many times its own size, so a vocabulary declaring more is
#: refused before a byte is inflated
MAX_DEFLATE_RATIO = 1032
CHECKSUMS_STRUCT = struct.Struct("<6I")
#: bytes read by :meth:`PatternStore.open` before any query arrives
HEADER_SIZE = len(MAGIC) + HEADER_STRUCT.size + SECTIONS_STRUCT.size

#: data sections, in file order, as named by error messages
SECTION_NAMES = (
    "vocabulary",
    "lengths",
    "pattern offsets",
    "patterns",
    "posting directory",
    "postings",
)


def u32_table(buffer, start: int, end: int) -> Sequence[int]:
    """The little-endian ``u32`` run ``buffer[start:end]`` as a sequence
    of ints: a zero-copy ``memoryview`` cast on little-endian hosts (the
    holder must ``release()`` it before closing a mapped ``buffer``), a
    byte-swapped copy elsewhere."""
    view = memoryview(buffer)[start:end]
    if sys.byteorder == "little":
        return view.cast("I")
    table = array("I")
    table.frombytes(view)
    table.byteswap()
    return table

# ----------------------------------------------------------------------
# sharded-store manifest
# ----------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-sharded-pattern-store"
MANIFEST_VERSION = 1
#: routing function recorded in the manifest so a future format change
#: cannot silently misroute lookups against old shard sets
PARTITIONER = "fnv64(first-item-name)"


def shard_of(first_item: str, num_shards: int) -> int:
    """Shard index owning every pattern whose first item is ``first_item``.

    Keyed on the item *name* through the shuffle's
    :func:`~repro.io.codec.stable_hash` so the assignment is
    reproducible across processes, Python versions, and — critically —
    across merges that renumber item ids.
    """
    return stable_hash(first_item) % num_shards


#: any generation's shard file name (used to validate directory
#: contents before deletion and to sweep retired generations)
SHARD_FILE_RE = re.compile(r"shard-\d{5}-of-\d{5}(-g\d{6})?\.store")


def shard_filename(index: int, num_shards: int, generation: int = 0) -> str:
    """Name of one shard file.

    Generation 0 (a fresh build) keeps the historical name; online
    compaction writes generation ``g+1`` files next to the live
    generation ``g`` set, so the tag keeps the two sets from colliding
    until the manifest swap retires the old one.
    """
    base = f"shard-{index:05d}-of-{num_shards:05d}"
    if generation:
        base += f"-g{generation:06d}"
    return base + ".store"


def write_manifest(directory: Path, shard_files: Sequence[str], meta: dict) -> None:
    """Atomically write the shard-set manifest (its presence marks the
    directory as a complete sharded store)."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "partitioner": PARTITIONER,
        "shards": len(shard_files),
        "shard_files": list(shard_files),
        **meta,
    }
    path = directory / MANIFEST_NAME
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_manifest(directory: Path) -> dict:
    """Load and validate a shard-set manifest."""
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise EncodingError(
            f"{directory}: not a sharded pattern store (no {MANIFEST_NAME})"
        ) from None
    except json.JSONDecodeError as exc:
        raise StoreCorruptError(f"{path}: invalid manifest: {exc}") from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise EncodingError(
            f"{path}: not a sharded pattern store manifest "
            f"(format {manifest.get('format')!r})"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise EncodingError(
            f"{path}: unsupported manifest version "
            f"{manifest.get('version')!r} (expected {MANIFEST_VERSION})"
        )
    if manifest.get("partitioner") != PARTITIONER:
        raise EncodingError(
            f"{path}: unknown shard partitioner "
            f"{manifest.get('partitioner')!r} (expected {PARTITIONER!r})"
        )
    files = manifest.get("shard_files")
    if not isinstance(files, list) or not files or not all(
        isinstance(f, str) for f in files
    ):
        raise StoreCorruptError(f"{path}: manifest lists no shard files")
    generation = manifest.setdefault("generation", 0)
    if not isinstance(generation, int) or isinstance(generation, bool):
        raise StoreCorruptError(
            f"{path}: manifest generation {generation!r} is not an integer"
        )
    return manifest


def is_sharded_store(path: str | Path) -> bool:
    """True when ``path`` is a sharded-store directory (has a manifest)."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


# ----------------------------------------------------------------------
# ingest delta names
# ----------------------------------------------------------------------

#: a spool delta's name is the sequence range it covers:
#: ``delta-F-T.store`` adds sequences ``F`` to ``T - 1``,
#: ``retire-F-T.store`` retires them.  The range is the delta's identity
#: (a crashed publish is recognized by rescanning the spool, never
#: replayed) and its watermark (:func:`delta_watermark`)
DELTA_NAME_RE = re.compile(
    r"(?P<kind>delta|retire)-(?P<from>\d{8})-(?P<through>\d{8})\.store"
    r"(\.\d+)?"  # the daemon suffixes archived duplicates
)


def delta_name(kind: str, from_seq: int, through_seq: int) -> str:
    """Spool name of the ``kind`` delta covering ``from_seq`` up to
    ``through_seq`` (exclusive)."""
    return f"{kind}-{from_seq:08d}-{through_seq:08d}.store"


def delta_watermark(name: str) -> dict:
    """The freshness watermark that folding the delta ``name`` moves:
    ``{"ingested_through": T}`` for an add, ``{"retained_from": T}`` for
    a retire, nothing for a store not named by :func:`delta_name`."""
    match = DELTA_NAME_RE.fullmatch(name)
    if match is None:
        return {}
    field = "ingested_through" if match["kind"] == "delta" else "retained_from"
    return {field: int(match["through"])}


__all__ = [
    "MAGIC",
    "VERSION",
    "FLAG_CHECKSUMS",
    "FLAG_DELTA",
    "HEADER_STRUCT",
    "SECTIONS_STRUCT",
    "U32",
    "U32_MAX",
    "MAX_DEFLATE_RATIO",
    "CHECKSUMS_STRUCT",
    "HEADER_SIZE",
    "SECTION_NAMES",
    "u32_table",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "PARTITIONER",
    "SHARD_FILE_RE",
    "shard_of",
    "shard_filename",
    "write_manifest",
    "read_manifest",
    "is_sharded_store",
    "DELTA_NAME_RE",
    "delta_name",
    "delta_watermark",
]
