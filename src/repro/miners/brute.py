"""Brute-force reference miner.

Enumerates ``G_{w,λ}(T)`` for every partition sequence via the exponential
enumerator and counts weighted supports exactly.  Slow but obviously
correct — the oracle against which PSM/BFS/DFS are validated.
"""

from __future__ import annotations

from repro.miners.base import LocalMiner
from repro.sequence.generate import generalized_subsequences


class BruteForceMiner(LocalMiner):
    """Oracle miner: enumerate all pivot sequences, count, filter by σ."""

    name = "brute"

    def mine_partition(self, partition, pivot: int) -> dict[tuple[int, ...], int]:
        params = self.params
        counts: dict[tuple[int, ...], int] = {}
        for seq, weight in partition.items():
            patterns = generalized_subsequences(
                self.vocabulary, seq, params.gamma, params.lam
            )
            for pattern in patterns:
                if max(pattern) == pivot:
                    counts[pattern] = counts.get(pattern, 0) + weight
        self.stats.candidates += len(counts)
        output = {
            pattern: freq
            for pattern, freq in counts.items()
            if freq >= params.sigma
        }
        self.stats.outputs += len(output)
        return output
