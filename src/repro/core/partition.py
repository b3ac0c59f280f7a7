"""Partition construction (paper Sec. 3.4 / 4.4).

LASH creates one partition ``P_w`` per frequent item ``w``; an input
sequence ``T`` contributes its rewrite ``P_w(T)`` to every partition whose
pivot appears in ``G1(T)`` (items of ``T`` plus their generalizations).
Duplicate rewritten sequences are aggregated into ``(sequence, weight)``
pairs — the job of Hadoop's combiner in the distributed setting.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from repro.core.params import MiningParams
from repro.core.rewrite import FULL_REWRITE, RewritePlan, pivot_rewrites
from repro.hierarchy.vocabulary import Vocabulary
from repro.sequence.generate import generalized_items

Seq = Sequence[int]
K = TypeVar("K")

#: a partition: aggregated rewritten sequences with multiplicities
Partition = dict[tuple[int, ...], int]


def frequent_pivots(
    vocabulary: Vocabulary, sequence: Seq, sigma: int
) -> list[int]:
    """Frequent items of ``G1(T)`` — the pivots ``T`` contributes to.

    Sorted ascending for deterministic emission order.
    """
    return sorted(
        w
        for w in generalized_items(vocabulary, sequence)
        if vocabulary.frequency(w) >= sigma
    )


def merge_weighted(entries: Iterable[tuple[K, int]]) -> dict[K, int]:
    """Merge pre-aggregated ``(sequence, weight)`` pairs.  A sequence is a
    tuple of item ids, or its encoded bytes in the mining job."""
    out: dict[K, int] = {}
    for seq, weight in entries:
        out[seq] = out.get(seq, 0) + weight
    return out


def build_partitions(
    vocabulary: Vocabulary,
    database: Iterable[Seq],
    params: MiningParams,
    plan: RewritePlan = FULL_REWRITE,
) -> dict[int, Partition]:
    """Materialize every partition directly (driver-side reference path).

    The distributed equivalent is the map/combine side of
    :class:`repro.core.lash.PartitionMineJob`; this function exists for
    tests, examples and the sequential-miner experiments (Fig. 4(c,d)).
    """
    partitions: dict[int, Partition] = {}
    for sequence in database:
        for pivot, rewritten in pivot_rewrites(
            vocabulary, sequence, params, plan
        ):
            bucket = partitions.setdefault(pivot, {})
            bucket[rewritten] = bucket.get(rewritten, 0) + 1
    return partitions
