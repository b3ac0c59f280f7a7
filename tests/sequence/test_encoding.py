"""Unit tests for varint / run-length sequence encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import BLANK
from repro.errors import EncodingError
from repro.sequence.encoding import (
    decode_sequence,
    decode_uvarint,
    encode_sequence,
    encode_uvarint,
    uvarint_size,
)


def arithmetic_size(seq) -> int:
    """The format's length by arithmetic alone: one varint per item, two
    per blank run, one for the token count."""
    size = tokens = run = 0
    for item in seq + (None,):
        if item == BLANK:
            run += 1
            continue
        if run:
            size += 1 + uvarint_size(run)
            tokens += 2
            run = 0
        if item is not None:
            size += uvarint_size(item + 1)
            tokens += 1
    return size + uvarint_size(tokens)


class TestUvarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21, 2**40])
    def test_roundtrip(self, value):
        data = encode_uvarint(value)
        got, offset = decode_uvarint(data)
        assert got == value
        assert offset == len(data)

    def test_small_values_single_byte(self):
        assert len(encode_uvarint(0)) == 1
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            encode_uvarint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"\x80")

    def test_offset_decoding(self):
        data = encode_uvarint(5) + encode_uvarint(300)
        v1, off = decode_uvarint(data, 0)
        v2, off = decode_uvarint(data, off)
        assert (v1, v2) == (5, 300)


class TestSequenceCodec:
    @pytest.mark.parametrize(
        "seq",
        [
            (),
            (0,),
            (0, 1, 2),
            (BLANK,),
            (BLANK, BLANK, BLANK),
            (5, BLANK, 7),
            (BLANK, 3, BLANK, BLANK, 4, BLANK),
            tuple(range(200)),
        ],
    )
    def test_roundtrip(self, seq):
        data = encode_sequence(seq)
        got, offset = decode_sequence(data)
        assert got == seq
        assert offset == len(data)

    def test_blank_runs_compress(self):
        long_run = (1,) + (BLANK,) * 50 + (2,)
        no_run = tuple(range(1, 53))
        assert len(encode_sequence(long_run)) < len(encode_sequence(no_run))

    def test_frequent_items_cost_fewer_bytes(self):
        # ids are f-list ranks: frequent=small=cheap (paper Sec. 6.1)
        cheap, dear = (1, 2, 3), (1000, 2000, 3000)
        assert len(encode_sequence(cheap)) < len(encode_sequence(dear))

    def test_invalid_item_rejected(self):
        with pytest.raises(EncodingError):
            encode_sequence((-5,))

    @pytest.mark.parametrize("seq", [(1, 2, 3), (1, BLANK, 2), (300, 4)])
    def test_truncated_sequence_rejected(self, seq):
        with pytest.raises(EncodingError):
            decode_sequence(encode_sequence(seq)[:-1])

    def test_concatenated_sequences(self):
        a, b = (1, BLANK, 2), (3, 4)
        data = encode_sequence(a) + encode_sequence(b)
        got_a, off = decode_sequence(data)
        got_b, off = decode_sequence(data, off)
        assert (got_a, got_b) == (a, b)
        assert off == len(data)

    def test_encoded_size_matches(self):
        # 4 tokens: item 1, the blank escape and its run of 2, item 9
        seq = (1, BLANK, BLANK, 9)
        assert encode_sequence(seq) == bytes([4, 2, 0, 2, 10])
        assert arithmetic_size(seq) == 5


# ids on both sides of the 2**7 and 2**14 varint boundaries (an item is
# coded as id + 1), and blank runs short and ≥ 128 (a two-byte run length)
_boundary_items = st.sampled_from(
    [0, 1, 126, 127, 128, 129, 16382, 16383, 16384, 2**21 - 2, 2**21 - 1]
)
_segments = st.one_of(
    st.lists(
        st.one_of(_boundary_items, st.integers(0, 2**22)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([1, 2, 127, 128, 129, 300]).map(lambda r: [BLANK] * r),
)
_sequences = st.lists(_segments, max_size=6).map(
    lambda parts: tuple(item for part in parts for item in part)
)


class TestEncodedSizeIsArithmetic:
    """The mining jobs meter ``len()`` of the encoded bytes; that length is
    the format's arithmetic on every varint boundary, one-byte items
    written inline included."""

    @given(_sequences)
    def test_size_equals_encoded_length_and_roundtrips(self, seq):
        data = encode_sequence(seq)
        assert arithmetic_size(seq) == len(data)
        assert decode_sequence(data) == (seq, len(data))

    @given(st.integers(0, 2**70))
    def test_uvarint_size(self, value):
        assert uvarint_size(value) == len(encode_uvarint(value))

    def test_negative_ids_still_rejected(self):
        with pytest.raises(EncodingError):
            encode_sequence((3, -5, 4))
        with pytest.raises(EncodingError):
            encode_sequence((3, BLANK, -5))
        with pytest.raises(EncodingError):
            uvarint_size(-5)
