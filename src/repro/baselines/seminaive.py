"""The semi-naïve GSM baseline (paper Sec. 3.3).

Two jobs: the generalized f-list job, then the naïve enumeration applied to
sequences whose items were first replaced by their *closest frequent
ancestor* (or a blank when none exists).  Because item ids are f-list ranks,
"closest frequent ancestor" is exactly ``w``-generalization with the largest
frequent item as the threshold — the paper notes the correspondence in
Sec. 4.2.

Emitted patterns never contain blanks (the enumerator skips them) and hence
never contain infrequent items, which is what shrinks the output relative to
the naïve algorithm (``G3(b11aea)``: 19 naïve emissions vs 5 semi-naïve).
"""

from __future__ import annotations

from repro.baselines.naive import NaiveAlgorithm, SupportCountJob
from repro.core.params import MiningParams
from repro.core.rewrite import w_generalize
from repro.hierarchy.vocabulary import Vocabulary
from repro.sequence.generate import generalized_subsequences


def frequency_threshold_item(vocabulary: Vocabulary, sigma: int) -> int:
    """The largest (last) frequent item id; -1 when nothing is frequent."""
    frequent = vocabulary.frequent_ids(sigma)
    return frequent[-1] if frequent else -1


def generalize_to_frequent(
    vocabulary: Vocabulary, sequence: tuple[int, ...], sigma: int
) -> list[int]:
    """Replace every item by its closest frequent ancestor (or blank)."""
    threshold = frequency_threshold_item(vocabulary, sigma)
    return w_generalize(vocabulary, sequence, threshold)


class SemiNaiveGsmJob(SupportCountJob):
    """Naïve enumeration over frequency-generalized sequences."""

    name = "semi-naive"

    def __init__(self, vocabulary: Vocabulary, params: MiningParams) -> None:
        super().__init__(vocabulary, params)
        self._threshold = frequency_threshold_item(vocabulary, params.sigma)

    def map(self, record: tuple[int, ...]):
        generalized = w_generalize(self.vocabulary, record, self._threshold)
        patterns = generalized_subsequences(
            self.vocabulary, generalized, self.params.gamma, self.params.lam
        )
        for pattern in patterns:
            yield pattern, 1


class SemiNaiveAlgorithm(NaiveAlgorithm):
    """Driver: f-list job + enumeration job."""

    job_class = SemiNaiveGsmJob
