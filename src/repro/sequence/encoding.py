"""Wire encoding of item sequences (paper Sec. 4.2 / 6.1).

The paper represents items as integers ordered by the f-list ("highly
frequent items are assigned smaller ids"), compresses map output with
variable-length integer encoding, and notes that blanks can be run-length
encoded.  This module implements exactly that:

* unsigned LEB128 varints (small ids → few bytes; the store's codec,
  :mod:`repro.io.codec`),
* token stream per sequence: item id ``x`` → varint ``x + 1``; a run of
  ``r`` blanks → escape varint ``0`` followed by varint ``r``,
* a leading varint with the token count.

The encodings feed the engine's ``MAP_OUTPUT_BYTES`` counter so that
communication measurements (Fig. 4(b)) reflect real serialized sizes.
"""

from __future__ import annotations

from typing import Sequence

from repro.constants import BLANK
from repro.errors import EncodingError
from repro.io.codec import read_uvarint, write_uvarint

Seq = Sequence[int]


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128."""
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 varint; returns ``(value, next_offset)``."""
    return read_uvarint(data, offset)


def encode_sequence(sequence: Seq) -> bytes:
    """Serialize a sequence of item ids (blanks allowed, run-length coded)."""
    tokens = bytearray()
    num_tokens = 0
    i = 0
    n = len(sequence)
    while i < n:
        item = sequence[i]
        if item == BLANK:
            run = 1
            while i + run < n and sequence[i + run] == BLANK:
                run += 1
            write_uvarint(tokens, 0)
            write_uvarint(tokens, run)
            num_tokens += 2
            i += run
        else:
            if item < 0:
                raise EncodingError(f"invalid item id {item}")
            write_uvarint(tokens, item + 1)
            num_tokens += 1
            i += 1
    return encode_uvarint(num_tokens) + bytes(tokens)


def decode_sequence(data: bytes, offset: int = 0) -> tuple[tuple[int, ...], int]:
    """Inverse of :func:`encode_sequence`; returns ``(sequence, next_offset)``."""
    num_tokens, pos = read_uvarint(data, offset)
    items: list[int] = []
    consumed = 0
    while consumed < num_tokens:
        token, pos = read_uvarint(data, pos)
        consumed += 1
        if token == 0:
            run, pos = read_uvarint(data, pos)
            consumed += 1
            if consumed > num_tokens:
                raise EncodingError("blank run without length token")
            items.extend([BLANK] * run)
        else:
            items.append(token - 1)
    return tuple(items), pos


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`encode_uvarint` produces for ``value``."""
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    return (value.bit_length() + 6) // 7 or 1


def encoded_size(sequence: Seq) -> int:
    """Number of bytes :func:`encode_sequence` produces, by arithmetic
    alone: one varint per item, two per blank run, one for the token
    count — nothing is allocated."""
    size = tokens = run = 0
    for item in sequence:
        if item == BLANK:
            run += 1
            continue
        if item < 0:
            raise EncodingError(f"invalid item id {item}")
        if run:
            size += 1 + uvarint_size(run)
            tokens += 2
            run = 0
        # uvarint_size(item + 1) spelled out: the job meters every shuffled
        # item through this line
        size += ((item + 1).bit_length() + 6) // 7
        tokens += 1
    if run:
        size += 1 + uvarint_size(run)
        tokens += 2
    return size + uvarint_size(tokens)
