"""The naïve GSM baseline (paper Sec. 3.2).

"Word counting" over generalized subsequences: the map phase emits **every**
``S ∈ Gλ(T)`` of every input sequence; the reduce phase counts and filters
by σ.  Simple, correct — and exponential: ``O(l^δλ)`` emissions per sequence
for γ=0 and ``O((δ+1)^l)`` in the unconstrained case, which Fig. 4(a,b)
demonstrates.
"""

from __future__ import annotations

from repro.core.lash import GsmDriver
from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.hierarchy.vocabulary import Vocabulary
from repro.mapreduce.job import MapReduceJob
from repro.sequence.encoding import encode_sequence, uvarint_size
from repro.sequence.generate import generalized_subsequences


class SupportCountJob(MapReduceJob):
    """Word counting over integer-coded patterns: the combiner sums, the
    reducer sums and keeps what reaches σ.  Every baseline's counting job
    is one of these with its own ``map``."""

    has_combiner = True

    def __init__(self, vocabulary: Vocabulary, params: MiningParams) -> None:
        self.vocabulary = vocabulary
        self.params = params

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        frequency = sum(values)
        if frequency >= self.params.sigma:
            yield key, frequency

    def kv_size(self, key, value) -> int:
        return len(encode_sequence(key)) + uvarint_size(value)


class NaiveGsmJob(SupportCountJob):
    """Emit every generalized subsequence; count in the reducer."""

    name = "naive"

    def map(self, record: tuple[int, ...]):
        patterns = generalized_subsequences(
            self.vocabulary, record, self.params.gamma, self.params.lam
        )
        for pattern in patterns:
            yield pattern, 1


class NaiveAlgorithm(GsmDriver):
    """Driver: one MapReduce job over the encoded database.

    Item ids still come from the generalized f-list (the paper assigns ids
    this way for every implementation, Sec. 6.1), but the naïve algorithm
    makes no use of the frequencies.
    """

    #: the counting job; its name is the algorithm's
    job_class: type[SupportCountJob] = NaiveGsmJob

    def mine_encoded(
        self, vocabulary: Vocabulary, encoded: list[tuple[int, ...]]
    ) -> MiningResult:
        job = self.job_class(vocabulary, self.params)
        mining_job = self.engine.run(job, encoded)
        return MiningResult(
            patterns=dict(mining_job.output),
            vocabulary=vocabulary,
            params=self.params,
            algorithm=job.name,
            mining_job=mining_job,
        )
