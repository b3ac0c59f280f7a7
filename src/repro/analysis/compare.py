"""Comparing mining results across algorithms and vocabularies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.core.result import MiningResult
    from repro.hierarchy.vocabulary import Vocabulary

Pattern = tuple[int, ...]


@dataclass
class ResultDiff:
    """Differences between two pattern sets (name-coded)."""

    missing: dict[tuple[str, ...], int] = field(default_factory=dict)
    extra: dict[tuple[str, ...], int] = field(default_factory=dict)
    frequency_mismatches: dict[tuple[str, ...], tuple[int, int]] = field(
        default_factory=dict
    )

    @property
    def agree(self) -> bool:
        return not (self.missing or self.extra or self.frequency_mismatches)

    def summary(self) -> str:
        if self.agree:
            return "results agree"
        return (
            f"missing={len(self.missing)} extra={len(self.extra)} "
            f"frequency mismatches={len(self.frequency_mismatches)}"
        )

    @classmethod
    def between(
        cls,
        expected: Mapping[tuple[str, ...], int],
        actual: Mapping[tuple[str, ...], int],
    ) -> ResultDiff:
        """Diff two name-coded pattern sets."""
        diff = cls()
        for pattern, freq in expected.items():
            if pattern not in actual:
                diff.missing[pattern] = freq
            elif actual[pattern] != freq:
                diff.frequency_mismatches[pattern] = (freq, actual[pattern])
        for pattern, freq in actual.items():
            if pattern not in expected:
                diff.extra[pattern] = freq
        return diff


def compare_results(expected: MiningResult, actual: MiningResult) -> ResultDiff:
    """Diff two results; robust to differing vocabularies (compares names)."""
    return ResultDiff.between(expected.decoded(), actual.decoded())


def recode_patterns(
    patterns: Mapping[Pattern, int],
    source: Vocabulary,
    target: Vocabulary,
) -> dict[Pattern, int]:
    """Translate integer-coded patterns between vocabularies via item names.

    Needed e.g. to compare a flat miner's output (flat vocabulary) with a
    hierarchical run (f-list vocabulary) in the Table 3 analysis.
    """
    out: dict[Pattern, int] = {}
    for pattern, freq in patterns.items():
        out[tuple(target.id(source.name(i)) for i in pattern)] = freq
    return out
