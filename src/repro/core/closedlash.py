"""Direct distributed mining of closed and maximal generalized sequences.

The paper computes Table 3's closed/maximal percentages by post-processing
the full GSM output and remarks (Sec. 6.7) that *"direct mining of maximal
or closed sequences in the context of hierarchies has not been studied in
the literature"*.  This module supplies that algorithm: a LASH-style
distributed miner that prunes redundant patterns *inside* each partition
and reconciles the remainder with one extra MapReduce job, instead of
materializing the full output and filtering it centrally.

Definitions (paper Sec. 6.7, same universe as
:mod:`repro.analysis.redundancy`): within the output universe — frequent
generalized sequences ``S`` with ``2 ≤ |S| ≤ λ`` — a pattern is **maximal**
if no proper supersequence ``S' ⊐0 S`` is in the universe, and **closed**
if every such supersequence has strictly lower frequency.

Algorithm
---------

By the atomic-neighbor lemma (proved in :func:`prune_locally`), ``S`` is
non-maximal (non-closed) iff some *atomic neighbor* of ``S`` — one-item
prepend, one-item append, or one-step specialization — is in the output
(with equal frequency).  Every atomic neighbor ``P`` of ``S`` satisfies
``p(P) ≥ p(S)``: adding or specializing items can only raise the pivot.
This splits the witness test along partition boundaries:

* **Local pruning** (inside the mining reducer): neighbors with
  ``p(P) = p(S)`` are mined in the *same* partition, so each reducer drops
  its locally-witnessed patterns right after mining — before anything is
  shuffled.
* **Cover reconciliation** (one extra job): for neighbors with
  ``p(P) > p(S)``, the partition that mined ``P`` emits a ``cover``
  message keyed by ``S`` carrying ``f(P)``.  A final reduce joins each
  surviving candidate with its incoming covers: a candidate is maximal if
  no cover arrived, closed if every cover has strictly lower frequency.

Covers only cross partition boundaries when removing or generalizing an
item *lowers the pivot* — for most patterns the pivot occurs away from the
edges and nothing is emitted, so the reconciliation shuffle is smaller
than the mining shuffle (``tests/core/test_closedlash.py::
test_reconcile_shuffle_smaller_than_mining_shuffle``); on the NYT corpus,
``tests/test_paper_claims.py::test_direct_closed_mining_prunes_locally``
checks that local pruning ships fewer candidates than the full output.

The result provably equals post-processing the full GSM output with
:func:`repro.analysis.redundancy.filter_result` — which is
:func:`prune_locally` applied to the whole output at once; the agreement
is enforced by property-based tests.

>>> from repro.core.closedlash import ClosedLash
>>> lash = ClosedLash(MiningParams(sigma=2, gamma=1, lam=3), mode="maximal")
>>> result = lash.mine(database, hierarchy)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.lash import Lash, MinerFactory, PartitionMineJob
from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.core.rewrite import FULL_REWRITE, RewritePlan
from repro.errors import InvalidParameterError
from repro.hierarchy.vocabulary import Vocabulary
from repro.mapreduce.engine import JobResult
from repro.mapreduce.job import MapReduceJob
from repro.miners.base import LocalMiner
from repro.sequence.encoding import encode_sequence, uvarint_size

Pattern = tuple[int, ...]

MODES = ("closed", "maximal")

#: reconciliation message tags
_CAND = 0
_COVER = 1


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvalidParameterError(
            f"mode must be one of {MODES}, got {mode!r}"
        )
    return mode


# ----------------------------------------------------------------------
# local pruning: same-pivot atomic neighbors
# ----------------------------------------------------------------------


def prune_locally(
    patterns: Mapping[Pattern, int], vocabulary: Vocabulary, mode: str
) -> dict[Pattern, int]:
    """Drop every pattern that an atomic neighbor in ``patterns`` witnesses
    as non-closed (``mode="closed"``) or non-maximal (``mode="maximal"``).

    Called with one partition's complete local output (all frequent pivot
    sequences for one pivot, global frequencies), it drops the patterns
    witnessed by a *same-partition* neighbor; those whose only witnesses
    live in larger-pivot partitions survive and are settled by the
    reconciliation job.  Called with the whole GSM output, it is exactly
    the closed/maximal filter of Table 3.

    **Neighbor lemma.**  Within the GSM output universe (frequent
    generalized sequences of length 2…λ), a pattern ``S`` has a proper
    supersequence ``S' ⊒0 S`` with frequency ``f`` in the output **iff**
    it has an *atomic neighbor* in the output with frequency ``≥ f``, where
    an atomic neighbor is obtained from ``S`` by exactly one of

    * replacing one item by one of its hierarchy children (one-step
      specialization),
    * prepending one item, or
    * appending one item.

    *Proof sketch.*  ``S ⊑0 S'`` embeds ``S`` into a contiguous window of
    ``S'`` with itemwise generalization.  Walk from ``S`` to ``S'`` by first
    specializing items one hierarchy level at a time (length preserved),
    then prepending the items left of the window outside-in, then appending
    the right ones.  Every intermediate ``S''`` satisfies
    ``S ⊑0 S'' ⊑0 S'``, so ``f(S) ≥ f(S'') ≥ f(S')`` (Lemma 1) and
    ``|S| ≤ |S''| ≤ |S'| ≤ λ``: each intermediate is frequent and inside
    the output universe.  The first step of the walk is an atomic neighbor;
    its frequency is ``≥ f(S')``.  The converse is immediate (a neighbor
    *is* a proper supersequence).  ∎

    Hence ``S`` is **maximal** iff it has no atomic neighbor in the output,
    and **closed** iff it has none with frequency equal to ``f(S)`` (a
    neighbor's frequency never exceeds ``f(S)``).  That is
    ``O(|S|·fanout)`` probes per pattern instead of all pattern pairs:
    prepend/append neighbors are found by indexing the output by its
    first-item and last-item drops, so the cost is independent of the
    vocabulary size.
    """
    _check_mode(mode)
    child_ids = vocabulary.child_ids
    # prepend/append witnesses: max frequency of any output pattern whose
    # first/last drop equals the probed pattern
    drop_first: dict[Pattern, int] = {}
    drop_last: dict[Pattern, int] = {}
    for p, f in patterns.items():
        if len(p) < 3:
            continue  # drops of length-2 patterns leave the universe
        key_f, key_l = p[1:], p[:-1]
        if drop_first.get(key_f, -1) < f:
            drop_first[key_f] = f
        if drop_last.get(key_l, -1) < f:
            drop_last[key_l] = f

    survivors: dict[Pattern, int] = {}
    for pattern, frequency in patterns.items():
        best = -1
        witness_f = drop_first.get(pattern)
        if witness_f is not None and witness_f > best:
            best = witness_f
        witness_f = drop_last.get(pattern)
        if witness_f is not None and witness_f > best:
            best = witness_f
        for j, item in enumerate(pattern):
            for child in child_ids(item):
                witness_f = patterns.get(
                    pattern[:j] + (child,) + pattern[j + 1 :]
                )
                if witness_f is not None and witness_f > best:
                    best = witness_f
        if mode == "maximal":
            if best < 0:
                survivors[pattern] = frequency
        else:  # closed: witnesses never exceed f (Lemma 1); equality kills
            if best < frequency:
                survivors[pattern] = frequency
    return survivors


def cross_pivot_covers(
    patterns: Mapping[Pattern, int],
    vocabulary: Vocabulary,
    pivot: int,
) -> Iterable[tuple[Pattern, int]]:
    """Yield ``(covered pattern, f(P))`` for every atomic sub-neighbor of a
    mined pattern whose pivot is *smaller* than this partition's.

    Sub-neighbors are the inverse moves of the neighbor lemma: drop the
    first item, drop the last item, or generalize one item one step up.
    Same-pivot sub-neighbors are omitted — local pruning already saw them.
    """
    for pattern, frequency in patterns.items():
        if len(pattern) > 2:
            for sub in (pattern[1:], pattern[:-1]):
                if max(sub) != pivot:
                    yield sub, frequency
        for j, item in enumerate(pattern):
            for parent in vocabulary.parent_ids(item):
                sub = pattern[:j] + (parent,) + pattern[j + 1 :]
                if max(sub) != pivot:
                    yield sub, frequency


# ----------------------------------------------------------------------
# MapReduce jobs
# ----------------------------------------------------------------------


class CandidateMineJob(PartitionMineJob):
    """Partitioning + mining + local pruning + cover emission.

    The map side — emission, combiner, byte metering — is
    :class:`repro.core.lash.PartitionMineJob`'s, inherited.  Each reduce
    group mines its partition, locally prunes, then emits

    * ``(S, (_CAND, f))`` for every surviving candidate, and
    * ``(S, (_COVER, f(P)))`` for every cross-pivot sub-neighbor of every
      mined pattern ``P`` (pruned or not — covers must reflect the *full*
      output).
    """

    name = "closed-mine"

    def __init__(
        self,
        vocabulary: Vocabulary,
        params: MiningParams,
        miner: LocalMiner,
        mode: str,
        rewrite_plan: RewritePlan = FULL_REWRITE,
    ) -> None:
        super().__init__(vocabulary, params, miner, rewrite_plan)
        self.mode = _check_mode(mode)

    def reduce(self, key, values):
        mined = self.mine_group(key, values)
        survivors = prune_locally(mined, self.vocabulary, self.mode)
        for pattern, frequency in survivors.items():
            yield pattern, (_CAND, frequency)
        for pattern, frequency in cross_pivot_covers(
            mined, self.vocabulary, key
        ):
            yield pattern, (_COVER, frequency)


class ReconcileJob(MapReduceJob):
    """Join candidates with their cross-pivot covers (second job).

    Input records are the ``(pattern, (tag, f))`` pairs of
    :class:`CandidateMineJob`; the reduce emits the patterns that survive
    the mode's cover test.  At most one candidate record exists per pattern
    (each pattern is mined in exactly one partition).
    """

    name = "closed-reconcile"
    has_combiner = True

    def __init__(self, mode: str) -> None:
        self.mode = _check_mode(mode)

    def map(self, record: tuple[Pattern, tuple[int, int]]):
        pattern, tagged = record
        yield pattern, tagged

    def combine(self, key, values):
        """Covers only matter through their maximum; candidates pass as-is."""
        best_cover = -1
        for tag, frequency in values:
            if tag == _CAND:
                yield key, (tag, frequency)
            elif frequency > best_cover:
                best_cover = frequency
        if best_cover >= 0:
            yield key, (_COVER, best_cover)

    def reduce(self, key, values):
        candidate_f: int | None = None
        best_cover = -1
        for tag, frequency in values:
            if tag == _CAND:
                candidate_f = frequency
            elif frequency > best_cover:
                best_cover = frequency
        if candidate_f is None:
            return
        if self.mode == "maximal":
            if best_cover < 0:
                yield key, candidate_f
        else:
            if best_cover < candidate_f:
                yield key, candidate_f

    def kv_size(self, key, value) -> int:
        tag, frequency = value
        return 1 + len(encode_sequence(key)) + uvarint_size(frequency)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


@dataclass
class ClosedMiningResult(MiningResult):
    """A :class:`MiningResult` plus the reconciliation job's measurements."""

    reconcile_job: JobResult | None = None

    def total_metrics(self):
        merged = super().total_metrics()
        if self.reconcile_job is not None:
            merged.merge(self.reconcile_job.metrics)
        return merged


class ClosedLash(Lash):
    """LASH with direct closed/maximal mining (three MapReduce jobs).

    Parameters mirror :class:`repro.core.lash.Lash` plus ``mode``:
    ``"closed"`` keeps patterns with no equal-frequency supersequence in
    the output universe, ``"maximal"`` keeps patterns with no supersequence
    at all.

    Example
    -------
    >>> miner = ClosedLash(MiningParams(2, 1, 3), mode="closed")
    >>> result = miner.mine(database, hierarchy)
    >>> sorted(result.decoded())  # doctest: +SKIP
    """

    def __init__(
        self,
        params: MiningParams,
        mode: str = "closed",
        local_miner: str | MinerFactory = "psm",
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
        failure_plan=None,
        rewrite_plan: RewritePlan = FULL_REWRITE,
    ) -> None:
        super().__init__(
            params,
            local_miner,
            num_map_tasks,
            num_reduce_tasks,
            failure_plan,
            rewrite_plan,
        )
        self.mode = _check_mode(mode)

    def mine_encoded(
        self, vocabulary: Vocabulary, encoded: list[Pattern]
    ) -> ClosedMiningResult:
        """Mine the closed (or maximal) frequent generalized sequences."""
        miner = self.miner_factory(vocabulary, self.params)
        mine_job = CandidateMineJob(
            vocabulary, self.params, miner, self.mode, self.rewrite_plan
        )
        mining = self.engine.run(mine_job, encoded)
        reconcile = self.engine.run(ReconcileJob(self.mode), mining.output)
        return ClosedMiningResult(
            patterns=dict(reconcile.output),
            vocabulary=vocabulary,
            params=self.params,
            algorithm=f"closed-lash[{self.mode},{miner.name}]",
            mining_job=mining,
            reconcile_job=reconcile,
        )


__all__ = [
    "MODES",
    "ClosedLash",
    "ClosedMiningResult",
    "CandidateMineJob",
    "ReconcileJob",
    "prune_locally",
    "cross_pivot_covers",
]
