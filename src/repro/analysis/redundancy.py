"""Output-set statistics: non-trivial, closed and maximal patterns (Sec. 6.7),
and the closed/maximal filter of a mining result.

* A mined sequence is **trivial** when it can be generated from the output
  of a *flat* sequence miner (no hierarchies) by generalizing items — i.e.
  some equally long flat-frequent sequence specializes it item-wise.  The
  non-trivial percentage measures how much GSM adds over flat mining.
* A frequent sequence ``S`` is **maximal** when every supersequence
  ``S' ⊒0 S`` is infrequent, and **closed** when every supersequence has a
  strictly different (lower) frequency.  Following the paper we evaluate
  these within the mined output set (supersequences beyond λ are outside the
  problem's universe).

``S ⊑0 S'`` here is the generalized subsequence relation with gap 0, so a
"supersequence" may be longer *or* more specific (e.g. ``ab1`` is a
supersequence of ``aB``), capturing both redundancy dimensions.

:func:`filter_result` and :func:`output_statistics` find the closed and
maximal patterns with the neighbor lemma
(:func:`repro.core.closedlash.prune_locally`), linear in the output size;
the pairwise :func:`closed_patterns` / :func:`maximal_patterns` are the
literal definition, quadratic, kept as the independent testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.closedlash import prune_locally
from repro.core.result import MiningResult
from repro.hierarchy.vocabulary import Vocabulary
from repro.sequence.subsequence import is_generalized_subsequence

Pattern = tuple[int, ...]


@dataclass(frozen=True)
class OutputStats:
    """Table 3 row."""

    total: int
    non_trivial: int
    closed: int
    maximal: int

    @property
    def non_trivial_pct(self) -> float:
        return 100.0 * self.non_trivial / self.total if self.total else 0.0

    @property
    def closed_pct(self) -> float:
        return 100.0 * self.closed / self.total if self.total else 0.0

    @property
    def maximal_pct(self) -> float:
        return 100.0 * self.maximal / self.total if self.total else 0.0

    def row(self) -> dict[str, float]:
        return {
            "Non-trivial (%)": round(self.non_trivial_pct, 2),
            "Closed (%)": round(self.closed_pct, 2),
            "Maximal (%)": round(self.maximal_pct, 2),
        }


def _most_general_form(vocabulary: Vocabulary, pattern: Pattern) -> Pattern:
    """Each item replaced by its root ancestor (forest: unique)."""
    return tuple(vocabulary.ancestors_or_self(item)[0] for item in pattern)


def trivial_patterns(
    vocabulary: Vocabulary,
    gsm_patterns: Mapping[Pattern, int],
    flat_patterns: Mapping[Pattern, int],
) -> set[Pattern]:
    """GSM patterns that are itemwise generalizations of flat-mined patterns.

    Both pattern sets must be coded over the same vocabulary.  Candidate
    pairs are bucketed by (length, most-general form): in a forest, a
    specialization shares its root chain with the generalization, making the
    bucket lookup exact.
    """
    buckets: dict[tuple[int, Pattern], list[Pattern]] = {}
    for flat in flat_patterns:
        key = (len(flat), _most_general_form(vocabulary, flat))
        buckets.setdefault(key, []).append(flat)
    trivial: set[Pattern] = set()
    for pattern in gsm_patterns:
        key = (len(pattern), _most_general_form(vocabulary, pattern))
        for flat in buckets.get(key, ()):
            if all(
                vocabulary.generalizes_to(f, g)
                for f, g in zip(flat, pattern)
            ):
                trivial.add(pattern)
                break
    return trivial


def _has_proper_supersequence(
    vocabulary: Vocabulary,
    pattern: Pattern,
    frequency: int,
    patterns: Mapping[Pattern, int],
    by_length: dict[int, list[Pattern]],
    require_equal_frequency: bool,
) -> bool:
    for length in by_length:
        if length < len(pattern):
            continue
        for other in by_length[length]:
            if other == pattern:
                continue
            if require_equal_frequency and patterns[other] != frequency:
                continue
            if is_generalized_subsequence(vocabulary, pattern, other, 0):
                return True
    return False


def maximal_patterns(
    vocabulary: Vocabulary, patterns: Mapping[Pattern, int]
) -> set[Pattern]:
    """Patterns with no frequent proper supersequence in the output set."""
    by_length = _group_by_length(patterns)
    return {
        p
        for p, f in patterns.items()
        if not _has_proper_supersequence(
            vocabulary, p, f, patterns, by_length, require_equal_frequency=False
        )
    }


def closed_patterns(
    vocabulary: Vocabulary, patterns: Mapping[Pattern, int]
) -> set[Pattern]:
    """Patterns every proper supersequence of which has lower frequency."""
    by_length = _group_by_length(patterns)
    return {
        p
        for p, f in patterns.items()
        if not _has_proper_supersequence(
            vocabulary, p, f, patterns, by_length, require_equal_frequency=True
        )
    }


def _group_by_length(patterns: Mapping[Pattern, int]) -> dict[int, list[Pattern]]:
    by_length: dict[int, list[Pattern]] = {}
    for p in patterns:
        by_length.setdefault(len(p), []).append(p)
    return by_length


def filter_result(result: MiningResult, mode: str) -> MiningResult:
    """A copy of ``result`` restricted to its ``"closed"`` or ``"maximal"``
    patterns."""
    return MiningResult(
        patterns=prune_locally(result.patterns, result.vocabulary, mode),
        vocabulary=result.vocabulary,
        params=result.params,
        algorithm=f"{result.algorithm}+{mode}",
        preprocess_job=result.preprocess_job,
        mining_job=result.mining_job,
    )


def output_statistics(
    vocabulary: Vocabulary,
    gsm_patterns: Mapping[Pattern, int],
    flat_patterns: Mapping[Pattern, int] | None = None,
) -> OutputStats:
    """Compute the Table 3 statistics for one mined output set.

    ``flat_patterns`` — a flat miner's output on the same data and
    parameters, coded over the *same* vocabulary (see
    :func:`repro.analysis.compare.recode_patterns`) — is required for a
    meaningful non-trivial percentage; when omitted, no pattern is
    considered trivial.
    """
    total = len(gsm_patterns)
    if flat_patterns is None:
        trivial: set[Pattern] = set()
    else:
        trivial = trivial_patterns(vocabulary, gsm_patterns, flat_patterns)
    return OutputStats(
        total=total,
        non_trivial=total - len(trivial),
        closed=len(prune_locally(gsm_patterns, vocabulary, "closed")),
        maximal=len(prune_locally(gsm_patterns, vocabulary, "maximal")),
    )
