"""Pattern exploration: indexing and querying mined generalized sequences.

The paper motivates GSM with exploration applications — the Google n-gram
viewer and Netspeak for generalized n-grams, typed relational patterns for
information extraction (Sec. 1).  This package is that downstream consumer:
it indexes a mining result and answers Netspeak-style wildcard queries that
are aware of the item hierarchy.

>>> from repro.query import PatternIndex
>>> index = PatternIndex.from_result(result)
>>> index.search("the ? NOUN")        # ? = exactly one item
>>> index.search("^NOUN lives in *")  # ^x = x or any specialization
"""

from repro.query.tokens import (
    AnyToken,
    FloorToken,
    GapToken,
    ItemToken,
    NotToken,
    OneOfToken,
    PlusToken,
    Q,
    QueryToken,
    SpanToken,
    UnderToken,
    is_negation_only,
    normalize_query,
    parse_query,
)
from repro.query.base import Answer, PatternSearchBase
from repro.query.build import (
    code_patterns,
    merge_pattern_sets,
    merge_vocabularies,
)
from repro.query.index import PatternIndex, QueryMatch

__all__ = [
    "Answer",
    "PatternSearchBase",
    "code_patterns",
    "merge_pattern_sets",
    "merge_vocabularies",
    "AnyToken",
    "FloorToken",
    "GapToken",
    "ItemToken",
    "NotToken",
    "OneOfToken",
    "PlusToken",
    "Q",
    "QueryToken",
    "SpanToken",
    "UnderToken",
    "is_negation_only",
    "normalize_query",
    "parse_query",
    "PatternIndex",
    "QueryMatch",
]
