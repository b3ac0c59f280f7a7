"""The package's one external sort: spill runs and their k-way merge.

The store merge's pattern-record sorts and the store writer's postings
(:mod:`repro.serve.writer`) both sort through this module.

A *run* is sorted records written back to back by a caller-supplied
``encode(buf, record)`` into an anonymous temp file — no length prefix,
no framing.  A reader decodes with ``decode(data, offset) -> (record,
end)`` through a :data:`CHUNK`-byte window that it refills when a record
straddles its end, so a run costs one window to read.  ``decode`` must
raise :class:`~repro.errors.EncodingError` when ``data`` ends inside the
record (the :mod:`repro.io.codec` readers do); a record still incomplete
at the end of its run is an ``EncodingError`` too, raised having read no
more than the run holds.  A :class:`RunFile` holds runs as segments
``[start, end)``, each readable on its own.
"""

from __future__ import annotations

import heapq
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import EncodingError

#: records one sort holds in memory before it spills a sorted run; the
#: write path's one memory knob
DEFAULT_SORT_BUFFER = 1 << 15
#: bytes a run reader holds and reads per refill (and the io buffer of a
#: run file)
CHUNK = 1 << 12
#: encoded bytes batched in memory before a write
_WRITE_BATCH = 1 << 16

Encode = Callable[[bytearray, Any], None]
Decode = Callable[[Any, int], tuple[Any, int]]


class RunFile:
    """An anonymous temp file of runs, each a segment ``[start, end)``."""

    def __init__(
        self, encode: Encode, decode: Decode, spill_dir: str | Path | None = None
    ) -> None:
        self._encode = encode
        self._decode = decode
        self._file = tempfile.TemporaryFile(
            prefix="repro-run-",
            dir=None if spill_dir is None else str(spill_dir),
            buffering=CHUNK,
        )
        #: bytes written so far: where the next run starts
        self.size = 0

    def append(self, records: Iterable) -> tuple[int, int]:
        """Write ``records`` as one run after the last; its segment."""
        start = self.size
        f, encode = self._file, self._encode
        f.seek(start)  # a reader may have moved the position
        buf = bytearray()
        for record in records:
            encode(buf, record)
            if len(buf) >= _WRITE_BATCH:
                f.write(buf)
                self.size += len(buf)
                buf = bytearray()
        f.write(buf)
        self.size += len(buf)
        return start, self.size

    def read(self, start: int, end: int) -> Iterator:
        """Decode the run in segment ``[start, end)``.  Each refill seeks
        first, so readers of different segments may interleave."""
        f, decode = self._file, self._decode
        data, pos, offset = b"", 0, start  # offset: file position after data
        while True:
            try:
                while True:
                    record, pos = decode(data, pos)
                    yield record
            except EncodingError:
                pass  # the window ends inside a record, or the run ended
            if offset >= end:
                if pos < len(data):
                    raise EncodingError(
                        f"spill run ends inside a record "
                        f"({len(data) - pos} bytes left over)"
                    )
                return
            rest = data[pos:]
            f.seek(offset)
            # a record longer than the window doubles it, so a long
            # record is read in O(its length), never past the run's end
            more = f.read(min(end - offset, max(CHUNK, len(rest))))
            if not more:
                raise EncodingError("spill run file shorter than its segment")
            offset += len(more)
            data, pos = rest + more, 0

    def close(self) -> None:
        self._file.close()


class ExternalSort:
    """Sort any number of records in memory bounded by ``sort_buffer``.

    :meth:`add` the records, then iterate once: they come out as a
    stable ``sorted(records, key=key)`` would return them.  Each full
    buffer is sorted and appended as a run to one :class:`RunFile`
    (none while everything fits one buffer); iterating merges the runs
    with the rest of the buffer.  The file is closed, so deleted, when
    the iteration ends or is dropped, or on :meth:`close`.
    """

    def __init__(
        self,
        encode: Encode,
        decode: Decode,
        key: Callable[[Any], Any] | None = None,
        sort_buffer: int = DEFAULT_SORT_BUFFER,
        spill_dir: str | Path | None = None,
    ) -> None:
        if sort_buffer < 1:
            raise EncodingError(
                f"sort buffer must be >= 1 record, got {sort_buffer}"
            )
        self._encode = encode
        self._decode = decode
        self._key = key
        self._sort_buffer = sort_buffer
        self._spill_dir = spill_dir
        self._buffer: list = []
        self._file: RunFile | None = None
        self._runs: list[tuple[int, int]] = []

    def add(self, record) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= self._sort_buffer:
            self._buffer.sort(key=self._key)
            if self._file is None:
                self._file = RunFile(self._encode, self._decode, self._spill_dir)
            self._runs.append(self._file.append(self._buffer))
            self._buffer = []

    def __iter__(self) -> Iterator:
        buffer, self._buffer = self._buffer, []
        buffer.sort(key=self._key)
        try:
            if self._file is None:
                yield from buffer
                return
            streams = [self._file.read(start, end) for start, end in self._runs]
            streams.append(iter(buffer))
            yield from heapq.merge(*streams, key=self._key)
        finally:
            self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._runs = []
        self._buffer = []


__all__ = ["DEFAULT_SORT_BUFFER", "CHUNK", "RunFile", "ExternalSort"]
