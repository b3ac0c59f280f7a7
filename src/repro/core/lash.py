"""The GSM driver every algorithm shares, and LASH on it: preprocessing +
partitioning/mining MapReduce jobs.

LASH runs two jobs (paper Sec. 3.4, Alg. 1):

1. **Preprocessing** — the generalized f-list job: map every input sequence
   to its ``G1(T)`` items, reduce by summing; the driver then derives the
   total order and the integer-coded vocabulary.
2. **Partitioning + mining** — the map side emits ``(w, P_w(T))`` for every
   frequent pivot ``w ∈ G1(T)`` using the rewrites of Sec. 4; the combiner
   aggregates duplicate rewritten sequences into ``(sequence, weight)``
   pairs; each reduce group is one partition, mined independently by the
   configured local miner (PSM by default).

Each rewritten sequence leaves the map side as the bytes of the paper's
wire format (f-list-ranked varints, run-length-coded blanks;
:func:`repro.sequence.encoding.encode_sequence`).  Combiner and shuffle
merge on those bytes, and a record's metered size is ``len()`` of them
plus the varints of pivot and weight, so ``MAP_OUTPUT_BYTES`` comparisons
against the baselines (Fig. 4(b)) count what travels.  The reduce side
decodes each distinct sequence of its partition once, before mining.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.params import MiningParams
from repro.core.partition import merge_weighted
from repro.core.psm import PivotSequenceMiner
from repro.core.rewrite import FULL_REWRITE, RewritePlan, pivot_rewrites
from repro.core.result import MiningResult
from repro.errors import InvalidParameterError
from repro.hierarchy.flist import build_vocabulary, iter_generalized_items
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary
from repro.mapreduce.counters import C, task_counters
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.miners.base import LocalMiner
from repro.miners.bfs import BfsMiner
from repro.miners.brute import BruteForceMiner
from repro.miners.dfs import DfsMiner
from repro.miners.spam import SpamMiner
from repro.sequence.database import SequenceDatabase
from repro.sequence.encoding import (
    decode_sequence,
    encode_sequence,
    uvarint_size,
)

#: a miner factory receives (vocabulary, params) and returns a LocalMiner
MinerFactory = Callable[[Vocabulary, MiningParams], LocalMiner]


def resolve_miner(spec: str | MinerFactory) -> MinerFactory:
    """Translate a miner spec into a factory.

    Strings: ``"psm"`` (exact index), ``"psm-level"`` (level-union index),
    ``"psm-noindex"``, ``"bfs"``, ``"dfs"``, ``"spam"``, ``"brute"``.
    """
    if callable(spec):
        return spec
    registry: dict[str, MinerFactory] = {
        "psm": lambda v, p: PivotSequenceMiner(v, p, index_mode="exact"),
        "psm-level": lambda v, p: PivotSequenceMiner(v, p, index_mode="level"),
        "psm-noindex": lambda v, p: PivotSequenceMiner(v, p, index_mode="none"),
        "bfs": BfsMiner,
        "dfs": DfsMiner,
        "spam": SpamMiner,
        "brute": BruteForceMiner,
    }
    try:
        return registry[spec]
    except KeyError:
        raise InvalidParameterError(
            f"unknown local miner {spec!r}; choose from {sorted(registry)}"
        ) from None


class FlistJob(MapReduceJob):
    """Hierarchy-aware item counting (paper Sec. 3.3)."""

    name = "flist"
    has_combiner = True

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hierarchy = hierarchy
        # per distinct word, remembered for the life of the job (in a pool
        # worker: of the task): its generalizations and its UTF-8 length
        self._chains: dict[str, tuple[str, ...]] = {}
        self._key_bytes: dict[str, int] = {}

    def map(self, record: tuple[str, ...]):
        for item in iter_generalized_items(self.hierarchy, record, self._chains):
            yield item, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)

    def kv_size(self, key: str, value: int) -> int:
        """The base class's generic metering of a ``(word, count)`` pair,
        in closed form: UTF-8 bytes of the word plus one byte per started
        7 bits of the count."""
        key_bytes = self._key_bytes.get(key)
        if key_bytes is None:
            key_bytes = self._key_bytes[key] = len(key.encode("utf-8"))
        return key_bytes + max(1, (value.bit_length() + 7) // 7)


class PartitionMineJob(MapReduceJob):
    """Partitioning (map) and local mining (reduce) — paper Alg. 1.

    Records are ``(pivot, (encoded P_w(T), weight))``.
    """

    name = "lash"
    has_combiner = True

    def __init__(
        self,
        vocabulary: Vocabulary,
        params: MiningParams,
        miner: LocalMiner,
        rewrite_plan: RewritePlan = FULL_REWRITE,
    ) -> None:
        self.vocabulary = vocabulary
        self.params = params
        self.miner = miner
        self.rewrite_plan = rewrite_plan

    def map(self, record: tuple[int, ...]):
        for pivot, rewritten in pivot_rewrites(
            self.vocabulary, record, self.params, self.rewrite_plan
        ):
            yield pivot, (encode_sequence(rewritten), 1)

    def combine(self, key, values):
        for seq, weight in merge_weighted(values).items():
            yield key, (seq, weight)

    def reduce(self, key, values):
        yield from self.mine_group(key, values).items()

    def mine_group(self, key, values) -> dict[tuple[int, ...], int]:
        """Decode and mine one partition; post the miner's search-space
        delta to the running attempt's counters, so only committed work is
        counted."""
        partition = {
            decode_sequence(seq)[0]: weight
            for seq, weight in merge_weighted(values).items()
        }
        stats = self.miner.stats
        candidates, outputs = stats.candidates, stats.outputs
        mined = self.miner.mine_partition(partition, key)
        counters = task_counters()
        counters.increment(C.LOCAL_CANDIDATES, stats.candidates - candidates)
        counters.increment(C.LOCAL_OUTPUTS, stats.outputs - outputs)
        return mined

    def kv_size(self, key, value) -> int:
        seq, weight = value
        return uvarint_size(key) + len(seq) + uvarint_size(weight)


class GsmDriver:
    """What every GSM algorithm shares (paper Sec. 6.1): item ids from the
    generalized f-list job, a database encoded once, jobs run on
    :attr:`engine`, and a :class:`MiningResult` measured by the jobs'
    committed counters.

    A subclass supplies :meth:`mine_encoded`.
    """

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

    def preprocess(
        self, database: SequenceDatabase, hierarchy: Hierarchy | None = None
    ) -> tuple[Vocabulary, JobResult]:
        """Run the f-list job and build the vocabulary (reusable).

        ``hierarchy=None`` preprocesses without hierarchies: every item is
        its own root (flat mining, as in Fig. 4(e)).
        """
        if hierarchy is None:
            hierarchy = Hierarchy.flat(
                {item for seq in database for item in seq}
            )
        job = self.engine.run(FlistJob(hierarchy), list(database))
        frequencies = dict(job.output)
        for item in hierarchy:
            frequencies.setdefault(item, 0)
        return build_vocabulary(database, hierarchy, frequencies), job

    def mine(
        self,
        database: SequenceDatabase,
        hierarchy: Hierarchy | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> MiningResult:
        """Mine all frequent generalized sequences of the database.

        With a prebuilt ``vocabulary`` preprocessing is reused and
        ``hierarchy`` is not read; otherwise the f-list job runs first,
        over ``hierarchy`` or, when that is ``None``, flat.
        """
        preprocess_job = None
        if vocabulary is None:
            vocabulary, preprocess_job = self.preprocess(database, hierarchy)
        encoded = [vocabulary.encode_sequence(seq) for seq in database]
        result = self.mine_encoded(vocabulary, encoded)
        result.preprocess_job = preprocess_job
        return result

    def mine_encoded(
        self, vocabulary: Vocabulary, encoded: list[tuple[int, ...]]
    ) -> MiningResult:
        """Run the algorithm's jobs over the encoded database."""
        raise NotImplementedError


class Lash(GsmDriver):
    """The LASH algorithm (paper Sec. 3.4–5).

    Parameters
    ----------
    params:
        The (σ, γ, λ) mining parameters.
    local_miner:
        Local mining algorithm for the reduce phase; PSM with the exact
        right-expansion index by default.
    num_map_tasks / num_reduce_tasks:
        Engine parallelism (splits / partitions groups per reducer).
    failure_plan:
        Optional deterministic task-failure injection
        (:class:`~repro.mapreduce.failures.FailurePlan`); results are
        unaffected, wasted attempts are metered.
    rewrite_plan:
        Which Sec. 4 rewrite stages the map phase applies (ablation knob;
        the mined answer is identical under any plan).

    Example
    -------
    >>> lash = Lash(MiningParams(sigma=2, gamma=1, lam=3))
    >>> result = lash.mine(database, hierarchy)
    >>> result.frequency("a", "B")
    3
    """

    def __init__(
        self,
        params: MiningParams,
        local_miner: str | MinerFactory = "psm",
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
        failure_plan=None,
        rewrite_plan: RewritePlan = FULL_REWRITE,
    ) -> None:
        super().__init__(params, num_map_tasks, num_reduce_tasks)
        self.engine.failure_plan = failure_plan
        self.miner_factory = resolve_miner(local_miner)
        self.rewrite_plan = rewrite_plan

    def mine_encoded(
        self, vocabulary: Vocabulary, encoded: list[tuple[int, ...]]
    ) -> MiningResult:
        miner = self.miner_factory(vocabulary, self.params)
        job = PartitionMineJob(
            vocabulary, self.params, miner, self.rewrite_plan
        )
        mining_job = self.engine.run(job, encoded)
        return MiningResult(
            patterns=dict(mining_job.output),
            vocabulary=vocabulary,
            params=self.params,
            algorithm=f"lash[{miner.name}]",
            mining_job=mining_job,
        )


def mine(
    database: SequenceDatabase | Iterable,
    hierarchy: Hierarchy | None = None,
    sigma: int = 1,
    gamma: int | None = 0,
    lam: int = 5,
    local_miner: str | MinerFactory = "psm",
) -> MiningResult:
    """One-call convenience API.

    >>> result = mine(db, hierarchy, sigma=2, gamma=1, lam=3)
    """
    if not isinstance(database, SequenceDatabase):
        database = SequenceDatabase(database)
    lash = Lash(MiningParams(sigma, gamma, lam), local_miner=local_miner)
    return lash.mine(database, hierarchy)


def micro_mine(
    sequences: Iterable,
    hierarchy: Hierarchy,
    params: MiningParams,
    local_miner: str | MinerFactory = "psm",
) -> MiningResult:
    """Mine an ingest delta: just the touched sequences, at σ=1.

    The live-ingestion building block (``repro.serve.ingest``): pattern
    frequency is document support, which adds over disjoint corpus
    unions, so mining *only the new sequences* at σ=1 and folding the
    result into the live store is exactly equivalent to re-mining the
    whole corpus — σ must be 1 in the delta because a pattern rare in
    the batch can still push a borderline pattern of the full corpus
    over any higher threshold.  γ and λ are taken from ``params``
    unchanged (they constrain matches per sequence, so they distribute
    over any corpus split).  Engine parallelism is collapsed to one
    task: ingest batches are small and the mined answer is identical at
    any task count.
    """
    database = SequenceDatabase(list(sequences))
    delta_params = MiningParams(sigma=1, gamma=params.gamma, lam=params.lam)
    lash = Lash(
        delta_params,
        local_miner=local_miner,
        num_map_tasks=1,
        num_reduce_tasks=1,
    )
    return lash.mine(database, hierarchy)
