"""Hierarchy-aware DFS miner (PrefixSpan-style pattern growth, Sec. 5.1).

The miner starts from frequent single items and recursively right-expands
every frequent sequence, mining **all** locally frequent sequences.  Used as
a LASH local miner it therefore over-explores: non-pivot sequences (``ca``,
``aB``, …) are evaluated, recursed into, and discarded by a final filter —
exactly the overhead the paper quantifies in Fig. 4(c,d).

The projected database of a sequence ``S`` stores, per supporting partition
sequence, the set of *end positions* of embeddings of ``S`` (the support set
``D_S``); a right-expansion looks at the gap window after each end position
and at the generalizations of the items found there
(``W^right_S(T) = {w' | S·w' ⊑γ T}``).

Exploration counting matches the paper's Sec. 5.2 example: the initial item
scan plus every candidate evaluated in a ``W^right`` scan count once (the
example partition yields 5 + 17 + 13 + 2 = 37 candidates).
"""

from __future__ import annotations

from repro.constants import BLANK
from repro.miners.base import LocalMiner

#: projected entry: (sequence, weight, end positions)
_Entry = tuple[tuple[int, ...], int, frozenset[int]]


class DfsMiner(LocalMiner):
    """Pattern-growth miner over a partition; filters pivot sequences last."""

    name = "dfs"

    def mine_partition(self, partition, pivot: int) -> dict[tuple[int, ...], int]:
        entries = partition.items()
        self._pivot = pivot
        output: dict[tuple[int, ...], int] = {}

        items = self._initial_scan(entries)
        self.stats.candidates += len(items)
        for item in sorted(items):
            weight, projected = items[item]
            if weight < self.params.sigma:
                continue
            self._grow((item,), projected, output)
        return output

    # ------------------------------------------------------------------

    def _initial_scan(self, entries) -> dict[int, list]:
        """Frequent-item scan: item → [weight, projected entries]."""
        agg: dict[int, list] = {}
        for seq, weight in entries:
            found: dict[int, set[int]] = {}
            for i, item in enumerate(seq):
                if item == BLANK:
                    continue
                for anc in self.vocabulary.ancestors_or_self(item):
                    if anc > self._pivot:
                        continue
                    found.setdefault(anc, set()).add(i)
            for item, ends in found.items():
                payload = agg.get(item)
                if payload is None:
                    payload = agg[item] = [0, []]
                payload[0] += weight
                payload[1].append((seq, weight, frozenset(ends)))
        return agg

    def _grow(
        self,
        seq: tuple[int, ...],
        entries: list[_Entry],
        output: dict[tuple[int, ...], int],
    ) -> None:
        if len(seq) == self.params.lam:
            return
        candidates = self._right_scan(entries)
        self.stats.candidates += len(candidates)
        for item in sorted(candidates):
            weight, projected = candidates[item]
            if weight < self.params.sigma:
                continue
            new_seq = seq + (item,)
            if max(new_seq) == self._pivot:
                output[new_seq] = weight
                self.stats.outputs += 1
            self._grow(new_seq, projected, output)

    def _right_scan(self, entries: list[_Entry]) -> dict[int, list]:
        """``W^right_S``: expansion item → [weight, projected entries]."""
        gamma = self.params.gamma
        vocabulary = self.vocabulary
        agg: dict[int, list] = {}
        for seq, weight, ends in entries:
            n = len(seq)
            found: dict[int, set[int]] = {}
            for end in ends:
                hi = n if gamma is None else min(n, end + 2 + gamma)
                for k in range(end + 1, hi):
                    item = seq[k]
                    if item == BLANK:
                        continue
                    for anc in vocabulary.ancestors_or_self(item):
                        if anc > self._pivot:
                            continue
                        found.setdefault(anc, set()).add(k)
            for item, new_ends in found.items():
                payload = agg.get(item)
                if payload is None:
                    payload = agg[item] = [0, []]
                payload[0] += weight
                payload[1].append((seq, weight, frozenset(new_ends)))
        return agg
