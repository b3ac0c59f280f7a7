"""Hierarchy-aware SPAM-style bitmap miner (Ayres et al., cited in Sec. 7).

SPAM represents the database *vertically* as one bitmap per item over a
global position space (all partition sequences concatenated) and grows
patterns depth-first.  The bitmap of a pattern marks the end positions of
its embeddings; a sequence extension ("S-step") turns that bitmap into the
mask of gap-reachable follow positions and intersects it with the extension
item's bitmap — two big-integer operations instead of a database scan.

Adaptation to the generalized setting of the paper:

* **Hierarchies** — an item's bitmap contains the positions of the item
  *and of all its descendants* (``t →* w`` occurrences), so extensions see
  generalized matches exactly like the hierarchy-aware DFS miner does.
* **Gap constraint** — the follow mask is ``OR`` of the pattern bitmap
  shifted by ``1 … γ+1``; sequences are separated by ``γ+1`` guard
  positions so shifted bits can never leak into the next sequence.  For
  ``γ = None`` SPAM's classic "transformed bitmap" applies: per sequence,
  every position after the first embedding end is reachable.
* **S-step pruning** — with an *unbounded* gap the candidate items for a
  node's children are the items that were frequent extensions at the node
  itself (if ``S·y`` is infrequent, so is ``S·x·y`` — Lemma 1), SPAM's
  standard DFS pruning.  With a bounded ``γ`` that implication fails (an
  interleaved item can pull a previously out-of-range occurrence into gap
  range: ``acb`` supports ``a·c·b`` at γ=0 but not ``a·b``), so children
  retry the full frequent-item set.

Like BFS and DFS (Sec. 5.1), SPAM mines *all* locally frequent sequences
and filters pivot sequences at output time, so as a LASH local miner it
carries the same over-exploration overhead that PSM avoids.  Exploration
counting follows the repository convention: every candidate whose support
is evaluated counts once.
"""

from __future__ import annotations

from repro.constants import BLANK
from repro.miners.base import LocalMiner


class SpamMiner(LocalMiner):
    """Vertical bitmap pattern-growth miner over one partition."""

    name = "spam"

    def mine_partition(self, partition, pivot: int) -> dict[tuple[int, ...], int]:
        entries = partition.items()
        output: dict[tuple[int, ...], int] = {}
        if not entries:
            return output
        self._pivot = pivot
        self._layout(entries)
        item_bitmaps = self._build_item_bitmaps(entries)

        # Level 1: frequent items form both the DFS roots and the initial
        # candidate set for S-steps.
        self.stats.candidates += len(item_bitmaps)
        frequent_items = [
            item
            for item in sorted(item_bitmaps)
            if self._support(item_bitmaps[item]) >= self.params.sigma
        ]
        self._item_bitmaps = item_bitmaps

        for item in frequent_items:
            self._grow((item,), item_bitmaps[item], frequent_items, output)
        return output

    # ------------------------------------------------------------------
    # position-space layout
    # ------------------------------------------------------------------

    def _layout(self, entries) -> None:
        """Assign every partition sequence a span in the global bit space."""
        gamma = self.params.gamma
        guard = 1 if gamma is None else gamma + 1
        offsets: list[int] = []
        masks: list[int] = []
        weights: list[int] = []
        position = 0
        for seq, weight in entries:
            offsets.append(position)
            masks.append(((1 << len(seq)) - 1) << position)
            weights.append(weight)
            position += len(seq) + guard
        self._offsets = offsets
        self._seq_masks = masks
        self._weights = weights

    def _build_item_bitmaps(self, entries) -> dict[int, int]:
        """Item (or ancestor) id → bitmap of generalized occurrence positions."""
        vocabulary = self.vocabulary
        pivot = self._pivot
        bitmaps: dict[int, int] = {}
        for (seq, _weight), offset in zip(entries, self._offsets):
            for i, item in enumerate(seq):
                if item == BLANK:
                    continue
                bit = 1 << (offset + i)
                for anc in vocabulary.ancestors_or_self(item):
                    if anc > pivot:
                        continue
                    bitmaps[anc] = bitmaps.get(anc, 0) | bit
        return bitmaps

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------

    def _grow(
        self,
        pattern: tuple[int, ...],
        bitmap: int,
        candidates: list[int],
        output: dict[tuple[int, ...], int],
    ) -> None:
        if len(pattern) == self.params.lam:
            return
        follow = self._follow_mask(bitmap)
        surviving: list[int] = []
        children: list[tuple[tuple[int, ...], int]] = []
        self.stats.candidates += len(candidates)
        for item in candidates:
            extended = follow & self._item_bitmaps[item]
            if not extended:
                continue
            weight = self._support(extended)
            if weight < self.params.sigma:
                continue
            surviving.append(item)
            new_pattern = pattern + (item,)
            if max(new_pattern) == self._pivot:
                output[new_pattern] = weight
                self.stats.outputs += 1
            children.append((new_pattern, extended))
        # S-step pruning is only sound without a gap bound (see module doc).
        child_candidates = surviving if self.params.gamma is None else candidates
        for new_pattern, extended in children:
            self._grow(new_pattern, extended, child_candidates, output)

    def _follow_mask(self, bitmap: int) -> int:
        """Positions reachable from any embedding end under the gap bound."""
        gamma = self.params.gamma
        if gamma is not None:
            mask = 0
            for shift in range(1, gamma + 2):
                mask |= bitmap << shift
            return mask
        # Unbounded gap: per sequence, everything after the first end.
        mask = 0
        for seq_mask in self._seq_masks:
            local = bitmap & seq_mask
            if not local:
                continue
            first = local & -local  # lowest set bit
            mask |= seq_mask & ~((first << 1) - 1)
        return mask

    def _support(self, bitmap: int) -> int:
        """Weighted number of partition sequences with at least one bit set."""
        total = 0
        for seq_mask, weight in zip(self._seq_masks, self._weights):
            if bitmap & seq_mask:
                total += weight
        return total
