"""Generalized f-list computation and the LASH total order (paper Sec. 3.3/3.4).

The *generalized f-list* assigns each item ``w`` its hierarchy-aware document
frequency ``f0(w, D)``: the number of input sequences containing ``w`` **or
any of its descendants**.  The total order ``<`` then sorts items by

1. frequency descending (frequent items are "small"),
2. hierarchy level ascending (more general items first) on frequency ties —
   this guarantees ``w2 → w1 ⇒ w1 < w2``,
3. item name (a deterministic stand-in for the paper's "arbitrary"
   tie-breaking).

The computation here is the direct (driver-side) implementation, which
``lash flist`` and :func:`repro.query.build.code_patterns` use.  Every
mining algorithm — LASH, closed LASH, MG-FSM and the naïve,
semi-naïve and GSP baselines — runs the equivalent MapReduce job instead,
:class:`repro.core.lash.FlistJob`, through
:meth:`repro.core.lash.GsmDriver.preprocess`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary


def iter_generalized_items(
    hierarchy: Hierarchy,
    sequence: Iterable[str],
    chains: dict[str, tuple[str, ...]] | None = None,
) -> set[str]:
    """``G1(T)`` over names: distinct items of ``T`` plus all ancestors.

    Items absent from the hierarchy are treated as isolated roots.  A caller
    that generalizes many sequences passes one ``chains`` dict to all the
    calls: it remembers ``token → ancestors_or_self``, so the hierarchy is
    walked once per distinct token rather than once per sequence holding it.
    """
    if chains is None:
        chains = {}
    out: set[str] = set()
    for token in sequence:
        if token in out:
            continue
        chain = chains.get(token)
        if chain is None:
            chain = chains[token] = (
                hierarchy.ancestors_or_self(token)
                if token in hierarchy
                else (token,)
            )
        out.update(chain)
    return out


def compute_generalized_flist(
    database: Iterable[Iterable[str]], hierarchy: Hierarchy
) -> dict[str, int]:
    """Document frequencies ``f0(w, D)`` including descendant occurrences.

    Every item of the hierarchy is present in the result (possibly with
    frequency 0), as are items that occur only in the data.
    """
    freqs: Counter[str] = Counter()
    chains: dict[str, tuple[str, ...]] = {}
    for sequence in database:
        freqs.update(iter_generalized_items(hierarchy, sequence, chains))
    for item in hierarchy:
        freqs.setdefault(item, 0)
    return dict(freqs)


def build_total_order(
    frequencies: Mapping[str, int], hierarchy: Hierarchy
) -> list[str]:
    """Sort items ascending in the LASH total order (rank 0 first)."""

    def depth(item: str) -> int:
        return hierarchy.depth(item) if item in hierarchy else 0

    # The paper breaks remaining ties "arbitrarily"; we use case-insensitive
    # name order (then exact name) so runs are deterministic and the paper's
    # running-example order (a < B) is reproduced.
    return sorted(
        frequencies,
        key=lambda item: (-frequencies[item], depth(item), item.casefold(), item),
    )


def build_vocabulary(
    database: Iterable[Iterable[str]],
    hierarchy: Hierarchy,
    frequencies: Mapping[str, int] | None = None,
) -> Vocabulary:
    """LASH preprocessing: f-list + total order → integer-coded vocabulary.

    ``frequencies`` may be supplied to reuse a previously computed f-list
    (the paper notes the f-list and order can be reused across runs).
    """
    if frequencies is None:
        frequencies = compute_generalized_flist(database, hierarchy)
    order = build_total_order(frequencies, hierarchy)
    return Vocabulary(order, hierarchy, [frequencies[i] for i in order])
