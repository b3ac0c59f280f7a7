"""The one external sort (repro.io.runs) under its two codecs.

Every bounded-memory sort of the package — the store merge's pattern
records and the store writer's postings — is an :class:`ExternalSort`
over :class:`RunFile` runs.
For any buffer size it must equal Python's stable ``sorted``, close its
run file however the iteration ends, and fail a corrupt run with
``EncodingError`` before allocating what the run claims.
"""

import os
import tracemalloc
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.io.codec import write_uvarint
from repro.io.runs import CHUNK, ExternalSort, RunFile
from repro.serve.writer import (
    read_pattern_record,
    read_posting,
    write_pattern_record,
    write_posting,
)

ids = st.integers(0, 3000)
patterns = st.lists(ids, min_size=1, max_size=6).map(tuple)
#: name -> (encode, decode, key, record strategy)
CODECS = {
    "pattern record": (
        write_pattern_record,
        read_pattern_record,
        lambda record: record[0],
        st.tuples(patterns, st.integers(-50, 10**12)),
    ),
    "postings triple": (
        write_posting,
        read_posting,
        None,
        st.tuples(
            ids, ids, st.sets(st.integers(0, 40), min_size=1).map(
                lambda positions: tuple(sorted(positions))
            ),
        ),
    ),
}


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@st.composite
def sort_cases(draw):
    codec = draw(st.sampled_from(sorted(CODECS)))
    records = draw(st.lists(CODECS[codec][3], max_size=60))
    sort_buffer = draw(st.integers(1, len(records) + 1))
    return codec, records, sort_buffer


@settings(max_examples=150, deadline=None)
@given(sort_cases(), st.booleans())
def test_external_sort_is_a_stable_sorted(tmp_path_factory, case, drop_early):
    codec, records, sort_buffer = case
    encode, decode, key, _ = CODECS[codec]
    spill_dir = tmp_path_factory.mktemp("runs")
    before = _open_fds()
    sort = ExternalSort(
        encode, decode, key=key, sort_buffer=sort_buffer, spill_dir=spill_dir
    )
    for record in records:
        sort.add(record)
    # one run file, opened by the first full buffer
    assert _open_fds() == before + (len(records) >= sort_buffer)
    expected = sorted(records, key=key)
    if drop_early and records:
        stream = iter(sort)
        assert next(stream) == expected[0]
        del stream
    else:
        assert list(sort) == expected
    assert _open_fds() == before
    assert os.listdir(spill_dir) == []


def test_records_longer_than_the_window(tmp_path):
    """A record straddling several windows is read in one piece, and
    runs stay segments of one file, readable in any order."""
    records = [((i,) * (3 * CHUNK + i), i) for i in range(5)]
    with closing(
        RunFile(write_pattern_record, read_pattern_record, tmp_path)
    ) as file:
        first = file.append(records[:3])
        second = file.append(records[3:])
        assert list(file.read(*second)) == records[3:]
        assert list(file.read(*first)) == records[:3]
        assert list(file.read(0, file.size)) == records


# ----------------------------------------------------------------------
# a corrupt run is an EncodingError, bounded before it is spent
# ----------------------------------------------------------------------


def _huge_varint(value: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, value)
    return bytes(buf)


def _raw(buf: bytearray, chunk: bytes) -> None:
    buf.extend(chunk)


#: codec -> one valid record of it
VALID = {
    "pattern record": ((3, 1, 4), 7),
    "postings triple": (5, 9, (0, 2)),
}


def _encoded(codec: str) -> bytes:
    buf = bytearray()
    CODECS[codec][0](buf, VALID[codec])
    return bytes(buf)


#: codec -> the bytes of a record before its first length: a sequence
#: length, a position count after item and index
CLAIM_AT = {
    "pattern record": b"",
    "postings triple": b"\0\0",
}


def _claim(codec: str, size: int) -> bytes:
    return CLAIM_AT[codec] + _huge_varint(size) + b"\x01" * 40


#: corruption -> bytes of a run of ``codec`` carrying it
CORRUPTIONS = {
    # a length claiming 2^28 and 2^45: the first would allocate 256 MB
    # up front, the second cannot be allocated at all
    "huge varint 2^28": lambda codec: _claim(codec, 1 << 28),
    "huge varint 2^45": lambda codec: _claim(codec, 1 << 45),
    # a record cut short at the end of its run
    "truncated record": lambda codec: _encoded(codec)[:-1],
    # whole records followed by the first bytes of another
    "trailing partial record": lambda codec: (
        _encoded(codec) * 3 + _encoded(codec)[:2]
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("codec", sorted(CODECS))
def test_corrupt_run_fails_cleanly_in_bounded_memory(
    tmp_path, codec, corruption
):
    decode = CODECS[codec][1]
    with closing(RunFile(_raw, decode, tmp_path)) as file:
        file.append([CORRUPTIONS[corruption](codec)])
        tracemalloc.start()
        try:
            decoded = []
            with pytest.raises(EncodingError):
                for record in file.read(0, file.size):
                    decoded.append(record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes traced"
    if corruption == "trailing partial record":
        assert decoded == [VALID[codec]] * 3


def test_sort_buffer_must_hold_a_record():
    with pytest.raises(EncodingError, match="sort buffer"):
        ExternalSort(write_posting, read_posting, sort_buffer=0)
