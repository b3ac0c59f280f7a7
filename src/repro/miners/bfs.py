"""Hierarchy-aware BFS miner (SPADE-style level-wise mining, Sec. 5.1).

Level-wise candidate-generation-and-test with a vertical database layout:

1. One scan builds a posting list for every generalized 2-sequence
   ``S ∈ G2(T)`` — the paper's hierarchy-aware twist on SPADE's index
   (e.g. ``T = c a b1 D`` with γ=1 lands in the posting lists of
   ``ca, cb1, cB, ab1, aB, aD, b1D, BD``).
2. Candidates of length ``l+1`` join two frequent ``l``-sequences that
   overlap in ``l-1`` items; the support comes from extending the posting
   list of the length-``l`` prefix with the candidate's last item under the
   gap constraint.

The full level has to be materialized before the next one starts, which is
what blows BFS up on deep hierarchies (the paper's λ=7 run died with
"insufficient memory"; :attr:`peak_postings` tracks the analogous quantity).

As a LASH local miner, BFS computes all frequent sequences and filters pivot
sequences at output time.
"""

from __future__ import annotations

from repro.constants import BLANK
from repro.miners.base import LocalMiner

#: posting list: per supporting sequence (sequence, weight, end positions)
_Posting = list[tuple[tuple[int, ...], int, frozenset[int]]]


class BfsMiner(LocalMiner):
    """Level-wise miner over a partition; filters pivot sequences at output."""

    name = "bfs"

    #: largest number of posting lists held for one level (memory proxy)
    peak_postings: int = 0

    def mine_partition(self, partition, pivot: int) -> dict[tuple[int, ...], int]:
        entries = partition.items()
        self._pivot = pivot
        self.peak_postings = 0
        output: dict[tuple[int, ...], int] = {}
        sigma = self.params.sigma

        # level 1: frequent items (drives the paper's candidate counts)
        item_weights = self._item_scan(entries)
        self.stats.candidates += len(item_weights)
        frequent_items = {
            item for item, weight in item_weights.items() if weight >= sigma
        }

        # level 2: direct posting-list construction from one scan
        postings = self._build_2seq_postings(entries, frequent_items)
        self.stats.candidates += len(postings)
        level: dict[tuple[int, ...], _Posting] = {}
        for seq2, posting in postings.items():
            weight = sum(w for _, w, _ in posting)
            if weight < sigma:
                continue
            level[seq2] = posting
            self._emit(seq2, weight, output)
        self.peak_postings = max(self.peak_postings, len(postings))

        # levels 3..λ: join + prefix extension
        length = 2
        while level and length < self.params.lam:
            next_level: dict[tuple[int, ...], _Posting] = {}
            frequent = set(level)
            for prefix in sorted(frequent):
                for other in sorted(frequent):
                    if prefix[1:] != other[:-1]:
                        continue
                    candidate = prefix + (other[-1],)
                    self.stats.candidates += 1
                    posting = self._extend(level[prefix], other[-1])
                    weight = sum(w for _, w, _ in posting)
                    if weight < sigma:
                        continue
                    next_level[candidate] = posting
                    self._emit(candidate, weight, output)
            self.peak_postings = max(
                self.peak_postings, len(level) + len(next_level)
            )
            level = next_level
            length += 1
        return output

    # ------------------------------------------------------------------

    def _emit(
        self,
        seq: tuple[int, ...],
        weight: int,
        output: dict[tuple[int, ...], int],
    ) -> None:
        if max(seq) == self._pivot:
            output[seq] = weight
            self.stats.outputs += 1

    def _item_scan(self, entries) -> dict[int, int]:
        agg: dict[int, int] = {}
        for seq, weight in entries:
            seen: set[int] = set()
            for item in seq:
                if item == BLANK:
                    continue
                for anc in self.vocabulary.ancestors_or_self(item):
                    if anc <= self._pivot:
                        seen.add(anc)
            for item in seen:
                agg[item] = agg.get(item, 0) + weight
        return agg

    def _build_2seq_postings(
        self, entries, frequent_items: set[int]
    ) -> dict[tuple[int, int], _Posting]:
        """One scan: posting lists of all generalized 2-sequences whose items
        are frequent (infrequent items cannot occur in frequent sequences)."""
        gamma = self.params.gamma
        vocabulary = self.vocabulary
        postings: dict[tuple[int, int], _Posting] = {}
        for seq, weight in entries:
            n = len(seq)
            found: dict[tuple[int, int], set[int]] = {}
            for i, first in enumerate(seq):
                if first == BLANK:
                    continue
                hi = n if gamma is None else min(n, i + 2 + gamma)
                for k in range(i + 1, hi):
                    second = seq[k]
                    if second == BLANK:
                        continue
                    for anc_a in vocabulary.ancestors_or_self(first):
                        if anc_a > self._pivot or anc_a not in frequent_items:
                            continue
                        for anc_b in vocabulary.ancestors_or_self(second):
                            if anc_b > self._pivot or anc_b not in frequent_items:
                                continue
                            found.setdefault((anc_a, anc_b), set()).add(k)
            for pair, ends in found.items():
                postings.setdefault(pair, []).append(
                    (seq, weight, frozenset(ends))
                )
        return postings

    def _extend(self, posting: _Posting, last_item: int) -> _Posting:
        """Posting list of ``P + (last_item,)`` from the posting list of ``P``."""
        gamma = self.params.gamma
        vocabulary = self.vocabulary
        out: _Posting = []
        for seq, weight, ends in posting:
            n = len(seq)
            new_ends: set[int] = set()
            for end in ends:
                hi = n if gamma is None else min(n, end + 2 + gamma)
                for k in range(end + 1, hi):
                    item = seq[k]
                    if item != BLANK and vocabulary.generalizes_to(
                        item, last_item
                    ):
                        new_ends.add(k)
            if new_ends:
                out.append((seq, weight, frozenset(new_ends)))
        return out
