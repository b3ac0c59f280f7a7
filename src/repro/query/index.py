"""The pattern index: hierarchy-aware wildcard search over mined patterns.

Built once from a :class:`~repro.core.result.MiningResult` (or a raw
pattern→frequency mapping plus its vocabulary), the index answers
Netspeak-style queries (see :mod:`repro.query.tokens`), ranked by
frequency.

The index keeps, per item, the ascending indexes of the patterns
containing it and, in parallel, the item's positions inside each — the
positional postings a :class:`~repro.query.plan.QueryPlan` builds its
candidate mask and slot maps from — plus the patterns grouped by
length, which a query with no item test scans.

The matching machinery itself lives in
:class:`~repro.query.base.PatternSearchBase` and is shared with the
on-disk :class:`~repro.serve.store.PatternStore`; this class is the
all-in-memory backend.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import (
    Pattern,
    PatternSearchBase,
    QueryMatch,
    rank_patterns,
)


class PatternIndex(PatternSearchBase):
    """Immutable in-memory index over a set of mined generalized sequences.

    Parameters
    ----------
    patterns:
        Integer-coded pattern → frequency, as produced by any miner in
        this library.
    vocabulary:
        The vocabulary the patterns are coded against.

    Example
    -------
    Every read is a query — ``top`` is ``+`` cut at ``n``, an exact
    lookup is the pattern's items as exact tokens:

    >>> index = PatternIndex.from_result(result)
    >>> index.search("the ^ADJ ?", limit=5)
    >>> index.top(3) == index.search("+", limit=3)
    True
    >>> index.frequency("a", "B")  # the query ``a B``, exactly
    3
    """

    def __init__(
        self, patterns: Mapping[Pattern, int], vocabulary: Vocabulary
    ) -> None:
        super().__init__()
        self._vocabulary = vocabulary
        self._patterns: list[tuple[Pattern, int]] = rank_patterns(patterns)
        self._postings: dict[int, list[int]] = {}
        self._positions: dict[int, list[tuple[int, ...]]] = {}
        self._by_length: dict[int, list[int]] = {}
        for idx, (pattern, _) in enumerate(self._patterns):
            self._by_length.setdefault(len(pattern), []).append(idx)
            positions_by_item: dict[int, list[int]] = {}
            for position, item in enumerate(pattern):
                positions_by_item.setdefault(item, []).append(position)
            for item, positions in positions_by_item.items():
                self._postings.setdefault(item, []).append(idx)
                self._positions.setdefault(item, []).append(tuple(positions))

    @classmethod
    def from_result(cls, result) -> "PatternIndex":
        """Index a :class:`~repro.core.result.MiningResult`."""
        return cls(result.patterns, result.vocabulary)

    # ------------------------------------------------------------------
    # storage primitives (see PatternSearchBase)
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        return self._vocabulary

    def _num_patterns(self) -> int:
        return len(self._patterns)

    def _pattern_at(self, idx: int) -> tuple[Pattern, int]:
        return self._patterns[idx]

    def _postings_for(self, item_id: int) -> Sequence[int]:
        return self._postings.get(item_id, ())

    def _positional_postings_for(self, item_id: int):
        return (
            self._postings.get(item_id, ()),
            self._positions.get(item_id, ()),
        )

    def _length_groups(self) -> dict[int, Sequence[int]]:
        return self._by_length


__all__ = ["PatternIndex", "QueryMatch"]
