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

:func:`encode_sequence` is the one writer of this format.  LASH's map side
emits its output in it (:class:`repro.core.lash.PartitionMineJob`), so the
engine's ``MAP_OUTPUT_BYTES`` and ``SHUFFLE_BYTES`` counters (Fig. 4(b))
are ``len()`` of the bytes that travel; the jobs that keep tuple keys
(the baselines' counting jobs, closed LASH's reconciliation) meter
``len(encode_sequence(key))``.
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
    # byte 0 is reserved for a one-byte token count; a run of r blanks is
    # two tokens where the sequence has r entries
    out = bytearray(1)
    append = out.append
    num_tokens = len(sequence)
    run = 0
    for item in sequence:
        if 0 <= item < 0x7F and not run:
            # write_uvarint(out, item + 1) spelled out: the map side
            # encodes every emitted item through this line
            append(item + 1)
            continue
        if item == BLANK:
            run += 1
            continue
        if run:
            append(0)
            write_uvarint(out, run)
            num_tokens += 2 - run
            run = 0
        if item < 0:
            raise EncodingError(f"invalid item id {item}")
        write_uvarint(out, item + 1)
    if run:
        append(0)
        write_uvarint(out, run)
        num_tokens += 2 - run
    if num_tokens < 0x80:
        out[0] = num_tokens
        return bytes(out)
    return encode_uvarint(num_tokens) + out[1:]


#: byte ``b`` → ``b - 1``: a one-byte item token back to its item id
_ITEM_OF_TOKEN = bytes((b - 1) & 0xFF for b in range(256))


def decode_sequence(data: bytes, offset: int = 0) -> tuple[tuple[int, ...], int]:
    """Inverse of :func:`encode_sequence`; returns ``(sequence, next_offset)``."""
    num_tokens, pos = read_uvarint(data, offset)
    end = pos + num_tokens
    body = data[pos:end]
    if len(body) == num_tokens and body.isascii() and 0 not in body:
        # every token is one byte and none is the blank escape: the reduce
        # side decodes most shuffled sequences here
        return tuple(body.translate(_ITEM_OF_TOKEN)), end
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
