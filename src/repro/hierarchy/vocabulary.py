"""Integer-coded vocabularies ordered by the LASH total order.

After preprocessing, LASH assigns every item an integer id equal to its rank
in the total order ``<`` (paper Sec. 3.4): the most frequent item gets id 0.
This property makes all pivot/relevance comparisons plain integer
comparisons, and guarantees ``w2 → w1  ⇒  id(w1) < id(w2)`` (ancestors have
smaller ids than their descendants).

A :class:`Vocabulary` is immutable once built; construction happens in
:mod:`repro.hierarchy.flist`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.constants import BLANK, NO_PARENT
from repro.errors import HierarchyError, UnknownItemError
from repro.hierarchy.hierarchy import Hierarchy


class Vocabulary:
    """Item name ↔ id codes plus encoded hierarchy structure.

    Parameters
    ----------
    ordered_items:
        Item names sorted ascending in the LASH total order (rank 0 first,
        i.e. most frequent / most general first).
    hierarchy:
        The string-level hierarchy the order was derived from.
    frequencies:
        Generalized document frequencies ``f0(w, D)`` aligned with
        ``ordered_items``.
    """

    def __init__(
        self,
        ordered_items: Sequence[str],
        hierarchy: Hierarchy,
        frequencies: Sequence[int] | None = None,
    ) -> None:
        self._names: tuple[str, ...] = tuple(ordered_items)
        self._ids: dict[str, int] = {n: i for i, n in enumerate(self._names)}
        if len(self._ids) != len(self._names):
            raise HierarchyError("duplicate item names in vocabulary order")
        self._hierarchy = hierarchy
        if frequencies is None:
            frequencies = [0] * len(self._names)
        if len(frequencies) != len(self._names):
            raise HierarchyError("frequencies not aligned with item order")
        self._freqs: tuple[int, ...] = tuple(int(f) for f in frequencies)

        # Encoded structure.  parent_ids holds the single parent for forest
        # nodes; multi-parent (DAG) nodes record NO_PARENT there and keep the
        # full parent set in _multi_parents.
        n = len(self._names)
        self._parent_ids: list[int] = [NO_PARENT] * n
        self._multi_parents: dict[int, tuple[int, ...]] = {}
        self._anc_or_self: list[tuple[int, ...]] = [()] * n
        self._depths: list[int] = [0] * n
        for item_id, name in enumerate(self._names):
            if name not in hierarchy:
                # Item occurs in the data but not in the hierarchy: treat it
                # as an isolated root.
                self._anc_or_self[item_id] = (item_id,)
                continue
            parent_names = hierarchy.parents(name)
            parent_ids = tuple(sorted(self._require_id(p) for p in parent_names))
            if len(parent_ids) == 1:
                self._parent_ids[item_id] = parent_ids[0]
            elif len(parent_ids) > 1:
                self._multi_parents[item_id] = parent_ids
            anc = sorted(self._require_id(a) for a in hierarchy.ancestors(name))
            for a in anc:
                if a >= item_id:
                    raise HierarchyError(
                        f"order violates hierarchy: ancestor "
                        f"{self._names[a]!r} not smaller than {name!r}"
                    )
            # ascending ids: most general first, the item itself last
            self._anc_or_self[item_id] = tuple(anc) + (item_id,)
            self._depths[item_id] = hierarchy.depth(name)

        # Chain-ness (ancestors totally ordered) per item, computed bottom-up:
        # ids ascend from ancestors to descendants, so parents are done first.
        self._chain: list[bool] = [True] * n
        for item_id in range(n):
            parents = self.parent_ids(item_id)
            if len(parents) > 1:
                self._chain[item_id] = False
            elif parents:
                self._chain[item_id] = self._chain[parents[0]]

        # decoded-pattern memo: serving decodes the same ranked patterns
        # on every repeated query, and name() per item dominates that
        # cost (values are tuples of the interned names — tiny)
        self._decode_cache: dict[tuple[int, ...], tuple[str, ...]] = {}
        # parent → children, inverted from the parents on first use:
        # only the closed/maximal filter and ``^name`` queries need it.
        # Unlocked: two racing first calls build equal tables and the
        # attribute store is atomic
        self._children: tuple[tuple[int, ...], ...] | None = None

    def _require_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise HierarchyError(
                f"hierarchy item {name!r} missing from vocabulary order"
            ) from None

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._ids

    @property
    def hierarchy(self) -> Hierarchy:
        return self._hierarchy

    def id(self, name: str) -> int:
        """Integer id (= rank in the total order) of ``name``."""
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownItemError(name) from None

    def name(self, item_id: int) -> str:
        """Item name for ``item_id``; blanks render as ``"_"``."""
        if item_id == BLANK:
            return "_"
        try:
            return self._names[item_id]
        except IndexError:
            raise UnknownItemError(item_id) from None

    def frequency(self, item_id: int) -> int:
        """Generalized document frequency ``f0(w, D)`` of the item."""
        return self._freqs[item_id]

    def frequency_of(self, name: str) -> int:
        return self._freqs[self.id(name)]

    def frequent_ids(self, sigma: int) -> list[int]:
        """Ids of items with ``f0 ≥ sigma``, ascending (most frequent first)."""
        return [i for i, f in enumerate(self._freqs) if f >= sigma]

    # ------------------------------------------------------------------
    # hierarchy structure over ids
    # ------------------------------------------------------------------

    def parent_id(self, item_id: int) -> int:
        """Single-parent id or ``NO_PARENT``; errors for DAG nodes."""
        if item_id in self._multi_parents:
            raise HierarchyError(
                f"item {self.name(item_id)!r} has multiple parents"
            )
        return self._parent_ids[item_id]

    def parent_ids(self, item_id: int) -> tuple[int, ...]:
        """All parent ids of the item (possibly empty)."""
        if item_id in self._multi_parents:
            return self._multi_parents[item_id]
        p = self._parent_ids[item_id]
        return () if p == NO_PARENT else (p,)

    def child_ids(self, item_id: int) -> tuple[int, ...]:
        """Ids of the item's hierarchy children, ascending (empty for
        leaves and for items outside the hierarchy)."""
        children = self._children
        if children is None:
            lists: list[list[int]] = [[] for _ in range(len(self._names))]
            for child in range(len(self._names)):
                for parent in self.parent_ids(child):
                    lists[parent].append(child)
            children = self._children = tuple(map(tuple, lists))
        return children[item_id]

    def ancestors_or_self(self, item_id: int) -> tuple[int, ...]:
        """Ancestor ids (ascending) ending with ``item_id`` itself.

        Because ancestors are always smaller in the total order, the tuple is
        sorted ascending with the item itself in last position.
        """
        if item_id == BLANK:
            return ()
        return self._anc_or_self[item_id]

    def ancestors(self, item_id: int) -> tuple[int, ...]:
        """Strict ancestor ids, ascending."""
        return self.ancestors_or_self(item_id)[:-1]

    def depth(self, item_id: int) -> int:
        return self._depths[item_id]

    def is_chain(self, item_id: int) -> bool:
        """True when the item's ancestors are totally ordered by ``→*`` (always
        so in a forest; a DAG node with two parent lines is not a chain)."""
        return self._chain[item_id]

    def generalizes_to(self, specific: int, general: int) -> bool:
        """``specific →* general`` over ids; blanks match nothing."""
        if specific == BLANK or general == BLANK:
            return False
        if specific == general:
            return True
        if general > specific:
            return False  # ancestors are always smaller
        anc = self._anc_or_self[specific]
        # anc is sorted ascending; binary membership test
        pos = bisect_right(anc, general) - 1
        return pos >= 0 and anc[pos] == general

    def largest_relevant_ancestor(self, item_id: int, pivot_id: int) -> int:
        """Largest (w.r.t. ``<``) ancestor-or-self of the item that is
        ``≤ pivot``, or :data:`BLANK` when none exists.

        This is the replacement rule of ``w``-generalization (paper
        Sec. 4.2).  For forest hierarchies the ancestors form a chain so the
        maximum qualifying ancestor is unique and the replacement is exact.
        For DAG nodes the replacement is only applied when it loses no
        qualifying generalizations; otherwise the caller must keep the item.
        """
        if item_id == BLANK:
            return BLANK
        anc = self._anc_or_self[item_id]  # ascending
        pos = bisect_right(anc, pivot_id) - 1
        if pos < 0:
            return BLANK
        candidate = anc[pos]
        if self._chain[item_id]:
            return candidate
        # DAG node: the replacement is exact only if every qualifying
        # ancestor of the item is also an ancestor-or-self of the candidate.
        qualifying = anc[: pos + 1]
        cand_anc = set(self.ancestors_or_self(candidate))
        if all(a in cand_anc for a in qualifying):
            return candidate
        return item_id  # keep the original item; matching stays correct

    # ------------------------------------------------------------------
    # encoding sequences
    # ------------------------------------------------------------------

    def encode_sequence(self, seq: Iterable[str]) -> tuple[int, ...]:
        """Translate a sequence of item names to ids."""
        return tuple(self.id(t) for t in seq)

    #: decoded-sequence memo entries retained (plain insert-and-stop:
    #: the hot set is the top of the ranking, which arrives first)
    _DECODE_CACHE_CAP = 1 << 16

    def decode_sequence(self, seq: Iterable[int]) -> tuple[str, ...]:
        """Translate a sequence of ids (blanks allowed) back to names.
        Memoized: repeated queries re-decode the same ranked patterns."""
        key = tuple(seq)
        cached = self._decode_cache.get(key)
        if cached is None:
            cached = tuple(self.name(t) for t in key)
            if len(self._decode_cache) < self._DECODE_CACHE_CAP:
                self._decode_cache[key] = cached
        return cached

    def render(self, seq: Iterable[int]) -> str:
        """Human-readable rendering, e.g. ``"a b1 _ c"``."""
        return " ".join(self.decode_sequence(seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(items={len(self)})"
