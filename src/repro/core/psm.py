"""PSM — the pivot sequence miner (paper Sec. 5.2, Alg. 2).

PSM enumerates *only* pivot sequences: it starts from the pivot item ``w``
and grows sequences by left- and right-expansions.  Every frequent pivot
sequence ``S`` has the unique decomposition ``S = S_l · w · S_r`` with
``w ∉ S_r``; PSM reaches it by left-expanding to ``S_l · w`` and then
right-expanding to append ``S_r``:

* right-expansions never use the pivot item (keeps the decomposition
  unique),
* sequences produced by a right-expansion are never left-expanded
  (prevents duplicates).

**Projected databases.**  One linear pass turns every partition sequence
into ``item → position bitmask`` over the items it holds and their ancestors
``≤ pivot`` (irrelevant items cannot occur in pivot sequences); the pivot's
mask is where the search starts.  For the current sequence ``S`` a
supporting sequence then carries only what the next expansion reads, and an
expansion is a shift: the positions within the gap bound of a set of ends
``E`` are ``E<<1 | … | E<<(γ+1)`` (everything above the lowest end when γ is
unbounded), mirrored for starts.  A sequence produced by a right-expansion
is never left-expanded, so its entries keep *one window per sequence* —
which starts reached an end is dead weight there, and with an unbounded gap
a quadratic amount of it.  Only the left spine (``S_l · w``, still to be
expanded both ways) needs to know which starts belong to which end, and
every one of its ends is a pivot occurrence: its entries keep one window
per occurrence that still ends an embedding.

A scan *counts first*: per entry the set of items present in its window
(remembered per sequence and window, intersected with ``R_S`` when the index
restricts) adds the entry's weight to one ``item → weight`` dict, which is
``W_S`` — the candidates.  Only the items that reached σ are then projected
(``mask[item] & window``, shifted on), and at ``|S| = λ−1`` nothing is:
the frequent expansions are outputs no scan will read.  Candidates are
counted exactly as before — every item whose support a scan evaluates, once
— so the search-space figures (Fig. 4(d)) are those of the pair-set miner
this replaced, kept as ``tests/core/psm_reference.py``.

**Right-expansion index** (Sec. 5.2 "Indexing right-expansions").  When
``S·x`` was infrequent, ``y·S·x`` must be infrequent too (support
monotonicity, Lemma 1), so when right-expanding ``y·S`` PSM restricts the
expansion items to ``R_S``, the frequent right-expansions recorded for
``S``.  Skipped items are neither counted nor support-evaluated.  Two index
layouts are provided:

* ``"exact"`` — ``R_S`` keyed by the full suffix sequence ``S[1:]``,
* ``"level"`` — the paper's memory-saving variant that unions the sets per
  right-offset from the (last) pivot,
* ``"none"`` — disable indexing (the plain "PSM" bars of Fig. 4(c,d)).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from repro.constants import BLANK
from repro.core.params import MiningParams
from repro.hierarchy.vocabulary import Vocabulary
from repro.miners.base import ExplorationStats, LocalMiner

#: projected-database entry: (item → position mask, window memo, weight,
#: window) — the sequence's first three, shared by all of its entries, then
#: the mask of the positions the next expansion can reach
_Entry = tuple[dict[int, int], dict[int, list[int]], int, int]
#: the left spine also keeps, per entry and per pivot occurrence that still
#: ends an embedding, ``(left window of its starts, end bit)``
_Groups = list[tuple[int, int]]

_INDEX_MODES = ("exact", "level", "none")


def _windows(
    gamma: int | None,
) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """``(after, before)``: position mask → mask of the positions one
    right- / left-expansion can reach from it under the gap bound.

    Windows are only ever intersected with position masks, so ``after`` does
    not clip at the sequence end; with no bound it is every position above
    the lowest end — an int with infinitely many leading ones.
    """
    if gamma is None:
        return (
            lambda ends: -((ends & -ends) << 1),
            lambda starts: (1 << (starts.bit_length() - 1)) - 1,
        )
    further = range(2, gamma + 2)

    def after(ends: int) -> int:
        reach = ends << 1
        for shift in further:
            reach |= ends << shift
        return reach

    def before(starts: int) -> int:
        reach = starts >> 1
        for shift in further:
            reach |= starts >> shift
        return reach

    return after, before


class PivotSequenceMiner(LocalMiner):
    """Hierarchy-aware pivot sequence miner with optional expansion index."""

    name = "psm"

    def __init__(
        self,
        vocabulary: Vocabulary,
        params: MiningParams,
        index_mode: str = "exact",
    ) -> None:
        super().__init__(vocabulary, params)
        if index_mode not in _INDEX_MODES:
            raise ValueError(
                f"index_mode must be one of {_INDEX_MODES}, got {index_mode!r}"
            )
        self.index_mode = index_mode

    def mine_partition(
        self, partition, pivot: int
    ) -> dict[tuple[int, ...], int]:
        search = _Search(self, pivot)
        after, before = search.after, search.before
        ancestors_or_self = self.vocabulary.ancestors_or_self
        chains: dict[int, tuple[int, ...]] = {}  # item → ancestors ≤ pivot
        right: list[_Entry] = []
        left: list[_Entry] = []
        groups: list[_Groups] = []
        total_weight = 0
        for seq, weight in partition.items():
            posmask: dict[int, int] = {}
            bit = 1
            for item in seq:
                if item != BLANK:
                    chain = chains.get(item)
                    if chain is None:
                        anc = ancestors_or_self(item)  # ascending
                        chain = chains[item] = anc[: bisect_right(anc, pivot)]
                    for ancestor in chain:
                        posmask[ancestor] = posmask.get(ancestor, 0) | bit
                bit <<= 1
            occurrences = posmask.get(pivot)
            if occurrences is None:
                continue
            total_weight += weight
            memo: dict[int, list[int]] = {}
            right.append((posmask, memo, weight, after(occurrences)))
            union = 0
            per_occurrence = []
            while occurrences:
                low = occurrences & -occurrences
                window = before(low)
                per_occurrence.append((window, low))
                union |= window
                occurrences ^= low
            left.append((posmask, memo, weight, union))
            groups.append(per_occurrence)
        if total_weight >= self.params.sigma:
            start = (pivot,)
            search.expand_right(start, right, root=start)
            search.expand_left(start, left, groups)
        return search.output


class _Search:
    """One ``mine_partition`` call: the expansion recursion and its index."""

    __slots__ = (
        "pivot", "sigma", "lam", "index_mode", "stats", "output",
        "after", "before", "_exact_index", "_series_index",
    )

    def __init__(self, miner: PivotSequenceMiner, pivot: int) -> None:
        self.pivot = pivot
        self.sigma = miner.params.sigma
        self.lam = miner.params.lam
        self.index_mode = miner.index_mode
        self.stats = miner.stats
        self.output: dict[tuple[int, ...], int] = {}
        self.after, self.before = _windows(miner.params.gamma)
        self._exact_index: dict[tuple[int, ...], frozenset[int]] = {}
        # level mode: per expansion-series root, one union set per offset
        self._series_index: dict[tuple[int, ...], dict[int, set[int]]] = {}

    # ------------------------------------------------------------------
    # expansion machinery
    # ------------------------------------------------------------------

    def _frequent(self, candidates: dict[int, int]) -> list[int]:
        """Account for one scan's candidates; those that reached σ — each
        an output — in the order they are expanded."""
        self.stats.candidates += len(candidates)
        sigma = self.sigma
        frequent = sorted(
            item for item, weight in candidates.items() if weight >= sigma
        )
        self.stats.outputs += len(frequent)
        return frequent

    def expand_right(
        self,
        seq: tuple[int, ...],
        entries: list[_Entry],
        root: tuple[int, ...],
    ) -> None:
        """Append to ``seq`` (shorter than λ); ``root`` is the left-expanded
        sequence that started the current series of right-expansions."""
        allowed = self._allowed_items(seq, root)
        if allowed is not None and not allowed:
            # R_S = ∅: no right-expansion can be frequent; skip the scan
            # entirely (paper: "we do not scan the database").
            self._record_index(seq, root, frozenset())
            return
        candidates = _count(entries, allowed)
        candidates.pop(self.pivot, None)
        frequent = self._frequent(candidates)
        wanted = frozenset(frequent)
        self._record_index(seq, root, wanted)
        output = self.output
        if len(seq) + 1 == self.lam:
            # the expansions are outputs and nothing grows from them
            for item in frequent:
                output[seq + (item,)] = candidates[item]
            return
        if not frequent:
            return
        after = self.after
        projected: dict[int, list[_Entry]] = {item: [] for item in frequent}
        for posmask, memo, weight, reach in entries:
            for item in wanted.intersection(memo[reach]):
                projected[item].append(
                    (posmask, memo, weight, after(posmask[item] & reach))
                )
        for item in frequent:
            new_seq = seq + (item,)
            output[new_seq] = candidates[item]
            self.expand_right(new_seq, projected.pop(item), root)

    def expand_left(
        self,
        seq: tuple[int, ...],
        entries: list[_Entry],
        groups: list[_Groups],
    ) -> None:
        """Prepend to ``seq`` (shorter than λ), a sequence that only
        left-expansions produced; every result starts a fresh right series
        rooted at itself and is then left-expanded in turn.  ``groups`` runs
        parallel to ``entries``."""
        candidates = _count(entries, None)
        frequent = self._frequent(candidates)
        output = self.output
        if len(seq) + 1 == self.lam:
            for item in frequent:
                output[(item,) + seq] = candidates[item]
            return
        if not frequent:
            return
        wanted = frozenset(frequent)
        after = self.after
        before = self.before
        projected: dict[int, tuple[list[_Entry], list[_Entry], list[_Groups]]] = {
            item: ([], [], []) for item in frequent
        }
        for (posmask, memo, weight, reach), per_occurrence in zip(entries, groups):
            for item in wanted.intersection(memo[reach]):
                occurrences = posmask[item]
                ends = union = 0
                new_groups = []
                for window, end in per_occurrence:
                    starts = occurrences & window
                    if starts:
                        window = before(starts)
                        new_groups.append((window, end))
                        union |= window
                        ends |= end
                right, left, left_groups = projected[item]
                right.append((posmask, memo, weight, after(ends)))
                left.append((posmask, memo, weight, union))
                left_groups.append(new_groups)
        for item in frequent:
            new_seq = (item,) + seq
            output[new_seq] = candidates[item]
            right, left, left_groups = projected.pop(item)
            self.expand_right(new_seq, right, root=new_seq)
            self.expand_left(new_seq, left, left_groups)

    # ------------------------------------------------------------------
    # right-expansion index
    # ------------------------------------------------------------------

    def _allowed_items(
        self, seq: tuple[int, ...], root: tuple[int, ...]
    ) -> frozenset[int] | set[int] | None:
        """Restriction set for right-expanding ``seq`` (``None`` = no info).

        If ``y·S·x`` is frequent then ``S·x`` is frequent (Lemma 1), so the
        items recorded while right-expanding the one-shorter suffix bound the
        useful expansions here.  ``exact`` keys by the full suffix ``seq[1:]``;
        ``level`` consults the union index of the suffix *series* ``root[1:]``
        at the same right-offset.
        """
        if self.index_mode == "none" or len(seq) < 2:
            return None
        if self.index_mode == "exact":
            return self._exact_index.get(seq[1:])
        parent_root = root[1:]
        if not parent_root:
            return None
        offset = len(seq) - len(root) + 1  # position of the new item
        parent_levels = self._series_index.get(parent_root)
        if parent_levels is None:
            return None
        return parent_levels.get(offset)

    def _record_index(
        self,
        seq: tuple[int, ...],
        root: tuple[int, ...],
        frequent: frozenset[int],
    ) -> None:
        if self.index_mode == "exact":
            self._exact_index[seq] = frequent
        elif self.index_mode == "level":
            offset = len(seq) - len(root) + 1
            self._series_index.setdefault(root, {}).setdefault(
                offset, set()
            ).update(frequent)


def _count(
    entries: list[_Entry], allowed: frozenset[int] | set[int] | None
) -> dict[int, int]:
    """``W_S``: expansion item → weight of the entries whose window holds it
    (only items of ``allowed`` when the index has something to say)."""
    counts: dict[int, int] = {}
    for posmask, memo, weight, reach in entries:
        items = memo.get(reach)
        if items is None:
            items = memo[reach] = [
                item for item, mask in posmask.items() if mask & reach
            ]
        if allowed is not None:
            items = allowed.intersection(items)
        for item in items:
            counts[item] = counts.get(item, 0) + weight
    return counts


def mine_partitions(
    miner: LocalMiner,
    partitions: dict[int, dict[tuple[int, ...], int]],
) -> dict[tuple[int, ...], int]:
    """Mine every partition and union the per-pivot outputs (driver path)."""
    output: dict[tuple[int, ...], int] = {}
    for pivot in sorted(partitions):
        output.update(miner.mine_partition(partitions[pivot], pivot))
    return output


__all__ = ["PivotSequenceMiner", "ExplorationStats", "mine_partitions"]
