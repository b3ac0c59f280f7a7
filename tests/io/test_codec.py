"""Round-trip tests for the store's varint/zigzag/delta primitives."""

import pytest

from repro.errors import EncodingError
from repro.io.codec import (
    read_sequence,
    read_uvarint,
    section_checksum,
    write_sequence,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)


class TestUvarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 300, 16383, 16384, 2**32, 2**60]
    )
    def test_roundtrip(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        decoded, end = read_uvarint(bytes(buf), 0)
        assert decoded == value
        assert end == len(buf)

    def test_single_byte_below_128(self):
        buf = bytearray()
        write_uvarint(buf, 127)
        assert len(buf) == 1

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            write_uvarint(bytearray(), -1)

    def test_truncated_rejected(self):
        buf = bytearray()
        write_uvarint(buf, 300)
        with pytest.raises(EncodingError):
            read_uvarint(bytes(buf[:-1]), 0)

    def test_many_concatenated(self):
        values = list(range(0, 1000, 7))
        buf = bytearray()
        for value in values:
            write_uvarint(buf, value)
        out, offset = [], 0
        while offset < len(buf):
            value, offset = read_uvarint(bytes(buf), offset)
            out.append(value)
        assert out == values


class TestZigzag:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2, -2, 63, -64, 10**9, -(10**9), 2**63, -(2**63)],
    )
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_small_magnitudes_stay_small(self):
        assert zigzag_encode(0) == 0
        assert zigzag_encode(-1) == 1
        assert zigzag_encode(1) == 2
        assert zigzag_encode(-2) == 3


class TestSequence:
    @pytest.mark.parametrize(
        "items",
        [(), (0,), (5, 5, 5), (9, 0, 9, 0), (3, 1, 4, 1, 5, 9, 2, 6)],
    )
    def test_roundtrip(self, items):
        buf = bytearray()
        write_sequence(buf, items)
        decoded, end = read_sequence(bytes(buf), 0)
        assert decoded == tuple(items)
        assert end == len(buf)

    def test_close_ids_pack_smaller_than_raw(self):
        # 5 ids near 1000: raw varints need 2 bytes each, deltas 1 byte
        items = (1000, 1001, 999, 1002, 1000)
        buf = bytearray()
        write_sequence(buf, items)
        raw = bytearray()
        write_uvarint(raw, len(items))
        for item in items:
            write_uvarint(raw, item)
        assert len(buf) < len(raw)


class TestSectionChecksum:
    def test_slice_bounds(self):
        data = b"abcdefgh"
        assert section_checksum(data, 2, 5) == section_checksum(b"cde")
        assert section_checksum(data) == section_checksum(data, 0, len(data))

    def test_detects_any_byte_flip(self):
        data = bytearray(b"pattern store section bytes")
        reference = section_checksum(bytes(data))
        for i in range(len(data)):
            mutated = bytearray(data)
            mutated[i] ^= 0x01
            assert section_checksum(bytes(mutated)) != reference

    def test_accepts_bytearray_and_memoryview_sources(self):
        data = b"xyz" * 100
        assert (
            section_checksum(bytearray(data))
            == section_checksum(memoryview(data))
            == section_checksum(data)
        )
