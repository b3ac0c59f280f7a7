"""The naïve GSM baseline (paper Sec. 3.2).

"Word counting" over generalized subsequences: the map phase emits **every**
``S ∈ Gλ(T)`` of every input sequence; the reduce phase counts and filters
by σ.  Simple, correct — and exponential: ``O(l^δλ)`` emissions per sequence
for γ=0 and ``O((δ+1)^l)`` in the unconstrained case, which Fig. 4(a,b)
demonstrates.
"""

from __future__ import annotations

from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.hierarchy.flist import build_vocabulary
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.sequence.database import SequenceDatabase
from repro.sequence.encoding import encoded_size, uvarint_size
from repro.sequence.generate import generalized_subsequences


class NaiveGsmJob(MapReduceJob):
    """Emit every generalized subsequence; count in the reducer."""

    name = "naive"
    has_combiner = True

    def __init__(self, vocabulary: Vocabulary, params: MiningParams) -> None:
        self.vocabulary = vocabulary
        self.params = params

    def map(self, record: tuple[int, ...]):
        patterns = generalized_subsequences(
            self.vocabulary, record, self.params.gamma, self.params.lam
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


class NaiveAlgorithm:
    """Driver: one MapReduce job over the encoded database.

    Item ids still come from the generalized f-list (the paper assigns ids
    this way for every implementation, Sec. 6.1), but the naïve algorithm
    makes no use of the frequencies.
    """

    algorithm_name = "naive"

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
        if vocabulary is None:
            if hierarchy is None:
                hierarchy = Hierarchy.flat(
                    {item for seq in database for item in seq}
                )
            vocabulary = build_vocabulary(database, hierarchy)
        job = NaiveGsmJob(vocabulary, self.params)
        encoded = [vocabulary.encode_sequence(seq) for seq in database]
        mining_job = self.engine.run(job, encoded)
        return MiningResult(
            patterns=dict(mining_job.output),
            vocabulary=vocabulary,
            params=self.params,
            algorithm=self.algorithm_name,
            mining_job=mining_job,
        )
