"""The seed's PSM, kept as the oracle of ``test_psm_kernel.py``.

This is ``repro.core.psm.PivotSequenceMiner`` as it stood before the
position-mask kernel replaced ``_expand`` / ``_scan``: every supporting
sequence carries the set of ``(start, end)`` embedding pairs of the current
sequence, and one scan both counts and projects.  The expansion order, the
right-expansion index and the counting convention are the production
miner's; only how a projected database is held and scanned differs.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from repro.constants import BLANK
from repro.core.params import MiningParams
from repro.hierarchy.vocabulary import Vocabulary
from repro.miners.base import LocalMiner

#: projected-database entry: (sequence, weight, embedding (start,end) pairs)
_Entry = tuple[tuple[int, ...], int, frozenset[tuple[int, int]]]

_INDEX_MODES = ("exact", "level", "none")


class ReferencePivotSequenceMiner(LocalMiner):
    """The seed's pivot sequence miner: embeddings as ``(start, end)`` pairs."""

    name = "psm-reference"

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

    # ------------------------------------------------------------------

    def mine_partition(
        self, partition, pivot: int
    ) -> dict[tuple[int, ...], int]:
        entries: list[_Entry] = []
        total_weight = 0
        for seq, weight in partition.items():
            pairs = frozenset(
                (i, i)
                for i, item in enumerate(seq)
                if self._matches_pivot(item, pivot)
            )
            if pairs:
                entries.append((seq, weight, pairs))
                total_weight += weight
        output: dict[tuple[int, ...], int] = {}
        if total_weight < self.params.sigma:
            return output
        self._pivot = pivot
        self._output = output
        self._exact_index: dict[tuple[int, ...], frozenset[int]] = {}
        # level mode: per expansion-series root, one union set per offset
        self._series_index: dict[tuple[int, ...], dict[int, set[int]]] = {}
        start = (pivot,)
        self._expand(start, entries, right=True, root=start)
        self._expand(start, entries, right=False, root=start)
        return output

    # ------------------------------------------------------------------
    # expansion machinery
    # ------------------------------------------------------------------

    def _matches_pivot(self, item: int, pivot: int) -> bool:
        if item == pivot:
            return True
        return item > pivot and self.vocabulary.generalizes_to(item, pivot)

    def _expand(
        self,
        seq: tuple[int, ...],
        entries: list[_Entry],
        right: bool,
        root: tuple[int, ...],
    ) -> None:
        """Grow ``seq``; ``root`` is the left-expanded sequence that started
        the current series of right-expansions (``seq`` itself while
        left-expanding)."""
        params = self.params
        if len(seq) == params.lam:
            return
        allowed = self._allowed_items(seq, root) if right else None
        if allowed is not None and not allowed:
            # R_S = ∅: no right-expansion can be frequent; skip the scan
            # entirely (paper: "we do not scan the database").
            self._record_index(seq, root, frozenset())
            return
        candidates = self._scan(seq, entries, right, allowed)
        if right:
            candidates.pop(self._pivot, None)
        self.stats.candidates += len(candidates)
        frequent = {
            item: payload
            for item, payload in candidates.items()
            if payload[0] >= params.sigma
        }
        if right:
            self._record_index(seq, root, frozenset(frequent))
        for item in sorted(frequent):
            weight, sub_entries = frequent[item]
            new_seq = seq + (item,) if right else (item,) + seq
            self._output[new_seq] = weight
            self.stats.outputs += 1
            # a left-expansion starts a fresh series rooted at the new
            # sequence; right-expansions stay in the current series
            new_root = root if right else new_seq
            self._expand(new_seq, sub_entries, right=True, root=new_root)
            if not right:
                self._expand(new_seq, sub_entries, right=False, root=new_seq)

    def _scan(
        self,
        seq: tuple[int, ...],
        entries: list[_Entry],
        right: bool,
        allowed: frozenset[int] | set[int] | None,
    ) -> dict[int, list]:
        """Compute ``W^dir_S``: expansion item → [weight, projected entries]."""
        gamma = self.params.gamma
        vocabulary = self.vocabulary
        pivot = self._pivot
        agg: dict[int, list] = {}
        for t, weight, pairs in entries:
            n = len(t)
            found: dict[int, set[tuple[int, int]]] = {}
            for start, end in pairs:
                if right:
                    lo = end + 1
                    hi = n if gamma is None else min(n, end + 2 + gamma)
                else:
                    hi = start
                    lo = 0 if gamma is None else max(0, start - 1 - gamma)
                for k in range(lo, hi):
                    item = t[k]
                    if item == BLANK:
                        continue
                    new_pair = (start, k) if right else (k, end)
                    for anc in vocabulary.ancestors_or_self(item):
                        if anc > pivot:
                            continue
                        if allowed is not None and anc not in allowed:
                            continue
                        found.setdefault(anc, set()).add(new_pair)
            for item, new_pairs in found.items():
                payload = agg.get(item)
                if payload is None:
                    payload = agg[item] = [0, []]
                payload[0] += weight
                payload[1].append((t, weight, frozenset(new_pairs)))
        return agg

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
