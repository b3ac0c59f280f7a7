"""Disk-backed shuffle: sort, spill, and merge (Hadoop's external shuffle).

The in-memory shuffle of :class:`~repro.mapreduce.engine.MapReduceEngine`
assumes every map output fits in RAM at once.  Real MapReduce does not:
each map task sorts its output by (partition, key) and *spills* it to
local disk as one file with one sorted segment per partition; every
reduce task then streams a merge of the segments that belong to its
partition.  This module reproduces that pipeline so the engine can
shuffle datasets larger than memory and so spill/merge costs become
measurable:

* :func:`spill_map_output` — partition one map task's pairs, sort each
  partition by key, and append one run per non-empty partition to the
  task's run file.
* :class:`MergedPartition` — a lazy reduce-side view over all runs of
  one partition: keys are merged in sorted order and each key's values
  are read from disk only when the reducer asks for them.

Run files are those of the package's one external sort
(:mod:`repro.io.runs`): anonymous temp files, so one map task holds one
open file and nothing is left on disk.  A ``(key, values)`` group is a
length-prefixed pickle — keys and values of a job are arbitrary Python
objects.  Byte counters continue to use the jobs' own wire-format
metering, so spilling never changes ``MAP_OUTPUT_BYTES``/``SHUFFLE_BYTES``.

Keys within one job must be mutually comparable (ints, strings, or tuples
thereof — true for every job in this library); the merge relies on the
same Python ordering the in-memory engine uses, so both shuffles hand
reducers identical group sequences.
"""

from __future__ import annotations

import heapq
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import EncodingError
from repro.io.codec import read_uvarint, write_uvarint
from repro.io.runs import RunFile

#: counter names (extends repro.mapreduce.counters.C)
SPILLED_RECORDS = "SPILLED_RECORDS"
SPILL_BYTES = "SPILL_BYTES"
MERGED_RUNS = "MERGED_RUNS"


def write_group(buf: bytearray, group: tuple[Any, list[Any]]) -> None:
    data = pickle.dumps(group, pickle.HIGHEST_PROTOCOL)
    write_uvarint(buf, len(data))
    buf += data


def read_group(data, offset: int) -> tuple[tuple[Any, list[Any]], int]:
    size, offset = read_uvarint(data, offset)
    end = offset + size
    if end > len(data):
        raise EncodingError("spilled group runs past the data")
    return pickle.loads(data[offset:end]), end


def spill_file(spill_dir: str | Path | None = None) -> RunFile:
    """A run file for one map task's spilled groups."""
    return RunFile(write_group, read_group, spill_dir)


@dataclass
class SpillRun:
    """One map task's sorted segment of one partition."""

    file: RunFile
    partition: int
    start: int
    end: int
    records: int

    @property
    def bytes(self) -> int:
        return self.end - self.start

    def read_groups(self) -> Iterator[tuple[Any, list[Any]]]:
        """Stream the ``(key, values)`` groups back in key order."""
        return self.file.read(self.start, self.end)


def spill_map_output(
    pairs: list[tuple[Any, Any]], partitioner, file: RunFile
) -> list[SpillRun]:
    """Sort one map task's output into ``file``, one run per partition.

    ``partitioner`` maps a key to its reduce partition (the engine passes
    its stable hash).  Values of equal keys are grouped inside the run, so
    the merge only compares keys.
    """
    buckets: dict[int, dict[Any, list[Any]]] = {}
    for key, value in pairs:
        bucket = buckets.setdefault(partitioner(key), {})
        bucket.setdefault(key, []).append(value)
    runs: list[SpillRun] = []
    for partition, groups in sorted(buckets.items()):
        start, end = file.append(
            (key, groups[key]) for key in sorted(groups)
        )
        records = sum(len(values) for values in groups.values())
        runs.append(SpillRun(file, partition, start, end, records))
    return runs


@dataclass
class MergedPartition:
    """Reduce-side view of one partition: a streaming merge of sorted runs.

    Mimics the mapping interface the engine's reduce loop uses —
    ``sorted(partition)`` for the key order and ``partition[key]`` for the
    values — while reading values from disk on demand.  Out-of-order
    access falls back to a buffer, so correctness never depends on the
    caller's discipline.
    """

    runs: list[SpillRun]
    _keys: list[Any] | None = None
    _stream: Iterator[tuple[Any, list[Any]]] | None = None
    _buffer: dict[Any, list[Any]] = field(default_factory=dict)

    def _merged_groups(self) -> Iterator[tuple[Any, list[Any]]]:
        """Merge the runs by key, concatenating values of equal keys."""
        streams = [run.read_groups() for run in self.runs]
        merged = heapq.merge(*streams, key=lambda group: group[0])
        current_key: Any = None
        current_values: list[Any] = []
        have_current = False
        for key, values in merged:
            if have_current and key == current_key:
                current_values.extend(values)
            else:
                if have_current:
                    yield current_key, current_values
                current_key, current_values = key, list(values)
                have_current = True
        if have_current:
            yield current_key, current_values

    def keys(self) -> list[Any]:
        """All keys of the partition, sorted (cheap: keys only)."""
        if self._keys is None:
            merged: set[Any] = set()
            for run in self.runs:
                for key, _ in run.read_groups():
                    merged.add(key)
            self._keys = sorted(merged)
        return self._keys

    def __iter__(self) -> Iterator[Any]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    def __getitem__(self, key: Any) -> list[Any]:
        if key in self._buffer:
            return self._buffer.pop(key)
        if self._stream is None:
            self._stream = self._merged_groups()
        for current_key, values in self._stream:
            if current_key == key:
                return values
            self._buffer[current_key] = values
        # Stream exhausted without finding the key: the caller went back to
        # an earlier key (e.g. a failed task attempt being retried).
        # Re-merge from disk once — exactly what a re-launched Hadoop
        # reducer does when it re-fetches its inputs.
        self._stream = self._merged_groups()
        for current_key, values in self._stream:
            if current_key == key:
                return values
            self._buffer[current_key] = values
        raise KeyError(key)


__all__ = [
    "SPILLED_RECORDS",
    "SPILL_BYTES",
    "MERGED_RUNS",
    "SpillRun",
    "spill_file",
    "spill_map_output",
    "MergedPartition",
]
