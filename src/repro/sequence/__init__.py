"""Sequence databases, gap/hierarchy-aware matching, and wire encodings."""

from repro.sequence.database import SequenceDatabase, EncodedDatabase
from repro.sequence.subsequence import (
    is_generalized_subsequence,
    is_subsequence,
    occurrence_pairs,
    end_positions,
    start_positions,
    support,
)
from repro.sequence.generate import (
    generalized_items,
    generalized_subsequences,
    pivot_subsequences,
    pivot_of,
)
from repro.sequence.encoding import (
    encode_uvarint,
    decode_uvarint,
    encode_sequence,
    decode_sequence,
)

__all__ = [
    "SequenceDatabase",
    "EncodedDatabase",
    "is_generalized_subsequence",
    "is_subsequence",
    "occurrence_pairs",
    "end_positions",
    "start_positions",
    "support",
    "generalized_items",
    "generalized_subsequences",
    "pivot_subsequences",
    "pivot_of",
    "encode_uvarint",
    "decode_uvarint",
    "encode_sequence",
    "decode_sequence",
]
