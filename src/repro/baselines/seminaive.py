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

from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.core.rewrite import w_generalize
from repro.hierarchy.flist import build_total_order
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary
from repro.core.lash import FlistJob
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.sequence.database import SequenceDatabase
from repro.sequence.encoding import encoded_size, uvarint_size
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


class SemiNaiveGsmJob(MapReduceJob):
    """Naïve enumeration over frequency-generalized sequences."""

    name = "semi-naive"
    has_combiner = True

    def __init__(self, vocabulary: Vocabulary, params: MiningParams) -> None:
        self.vocabulary = vocabulary
        self.params = params
        self._threshold = frequency_threshold_item(vocabulary, params.sigma)

    def map(self, record: tuple[int, ...]):
        generalized = w_generalize(self.vocabulary, record, self._threshold)
        patterns = generalized_subsequences(
            self.vocabulary, generalized, self.params.gamma, self.params.lam
        )
        for pattern in patterns:
            yield pattern, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        frequency = sum(values)
        if frequency >= self.params.sigma:
            yield key, frequency

    def kv_size(self, key, value) -> int:
        return encoded_size(key) + uvarint_size(value)


class SemiNaiveAlgorithm:
    """Driver: f-list job + enumeration job."""

    algorithm_name = "semi-naive"

    def __init__(
        self,
        params: MiningParams,
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
    ) -> None:
        self.params = params
        self.engine = MapReduceEngine(
            num_map_tasks=num_map_tasks, num_reduce_tasks=num_reduce_tasks
        )

    def mine(
        self,
        database: SequenceDatabase,
        hierarchy: Hierarchy | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> MiningResult:
        preprocess_job = None
        if vocabulary is None:
            if hierarchy is None:
                hierarchy = Hierarchy.flat(
                    {item for seq in database for item in seq}
                )
            flist = FlistJob(hierarchy)
            preprocess_job = self.engine.run(flist, list(database))
            frequencies = dict(preprocess_job.output)
            for item in hierarchy:
                frequencies.setdefault(item, 0)
            order = build_total_order(frequencies, hierarchy)
            vocabulary = Vocabulary(
                order, hierarchy, [frequencies[i] for i in order]
            )
        job = SemiNaiveGsmJob(vocabulary, self.params)
        encoded = [vocabulary.encode_sequence(seq) for seq in database]
        mining_job = self.engine.run(job, encoded)
        return MiningResult(
            patterns=dict(mining_job.output),
            vocabulary=vocabulary,
            params=self.params,
            algorithm=self.algorithm_name,
            preprocess_job=preprocess_job,
            mining_job=mining_job,
        )
