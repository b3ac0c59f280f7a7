"""Fast closed/maximal pattern identification (paper Sec. 6.7, future work).

The paper computes Table 3's closed/maximal percentages and notes that
*"direct mining of maximal or closed sequences in the context of
hierarchies has not been studied in the literature"*.  This module supplies
the efficient identification the brute-force definition in
:mod:`repro.analysis.redundancy` cannot scale to, based on a lattice
argument:

**Neighbor lemma.**  Within the GSM output universe (frequent generalized
sequences of length 2…λ), a pattern ``S`` has a proper supersequence
``S' ⊒0 S`` with frequency ``f`` in the output **iff** it has an *atomic
neighbor* in the output with frequency ``≥ f``, where an atomic neighbor is
obtained from ``S`` by exactly one of

* replacing one item by one of its hierarchy children (one-step
  specialization),
* prepending one item, or
* appending one item.

*Proof sketch.*  ``S ⊑0 S'`` embeds ``S`` into a contiguous window of
``S'`` with itemwise generalization.  Walk from ``S`` to ``S'`` by first
specializing items one hierarchy level at a time (length preserved), then
prepending the items left of the window outside-in, then appending the
right ones.  Every intermediate ``S''`` satisfies
``S ⊑0 S'' ⊑0 S'``, so ``f(S) ≥ f(S'') ≥ f(S')`` (Lemma 1) and
``|S| ≤ |S''| ≤ |S'| ≤ λ``: each intermediate is frequent and inside the
output universe.  The first step of the walk is an atomic neighbor; its
frequency is ``≥ f(S')``.  The converse is immediate (a neighbor *is* a
proper supersequence).  ∎

Consequences, checking only ``O(|S|·fanout + |W|)`` neighbors per pattern
instead of all pattern pairs:

* ``S`` is **maximal** iff it has no atomic neighbor in the output at all.
* ``S`` is **closed** iff it has no atomic neighbor in the output with
  frequency equal to ``f(S)``.  (A neighbor's frequency can never exceed
  ``f(S)``.)

Prepend/append neighbors are found by indexing the output by first-item
and last-item drops, so the per-pattern cost is independent of the
vocabulary size.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.hierarchy.vocabulary import Vocabulary

Pattern = tuple[int, ...]

_MODES = ("closed", "maximal")


def _child_index(vocabulary: Vocabulary) -> dict[int, tuple[int, ...]]:
    """Item id → ids of its hierarchy children (empty for leaves and items
    absent from the hierarchy)."""
    hierarchy = vocabulary.hierarchy
    index: dict[int, tuple[int, ...]] = {}
    for item_id in range(len(vocabulary)):
        name = vocabulary.name(item_id)
        if name not in hierarchy:
            index[item_id] = ()
            continue
        index[item_id] = tuple(
            vocabulary.id(child)
            for child in hierarchy.children(name)
            if child in vocabulary
        )
    return index


def _best_neighbor_frequency(
    pattern: Pattern,
    patterns: Mapping[Pattern, int],
    children: dict[int, tuple[int, ...]],
    drop_first: dict[Pattern, int],
    drop_last: dict[Pattern, int],
) -> int | None:
    """Highest frequency among the pattern's atomic neighbors in the output,
    or ``None`` when it has no neighbor (i.e. the pattern is maximal)."""
    best: int | None = None

    def consider(freq: int | None) -> None:
        nonlocal best
        if freq is not None and (best is None or freq > best):
            best = freq

    # One-step specializations.
    for j, item in enumerate(pattern):
        for child in children[item]:
            consider(patterns.get(pattern[:j] + (child,) + pattern[j + 1 :]))
    # Extensions: any output pattern whose first/last drop equals ``pattern``.
    consider(drop_first.get(pattern))
    consider(drop_last.get(pattern))
    return best


def _drop_indexes(
    patterns: Mapping[Pattern, int],
) -> tuple[dict[Pattern, int], dict[Pattern, int]]:
    """``P[1:] → max f(P)`` and ``P[:-1] → max f(P)`` over the output."""
    drop_first: dict[Pattern, int] = {}
    drop_last: dict[Pattern, int] = {}
    for p, f in patterns.items():
        key_f, key_l = p[1:], p[:-1]
        if drop_first.get(key_f, -1) < f:
            drop_first[key_f] = f
        if drop_last.get(key_l, -1) < f:
            drop_last[key_l] = f
    return drop_first, drop_last


def closed_patterns_fast(
    vocabulary: Vocabulary, patterns: Mapping[Pattern, int]
) -> set[Pattern]:
    """Closed patterns via the neighbor lemma (agrees with
    :func:`repro.analysis.redundancy.closed_patterns`)."""
    children = _child_index(vocabulary)
    drop_first, drop_last = _drop_indexes(patterns)
    closed: set[Pattern] = set()
    for pattern, frequency in patterns.items():
        best = _best_neighbor_frequency(
            pattern, patterns, children, drop_first, drop_last
        )
        if best is None or best < frequency:
            closed.add(pattern)
    return closed


def maximal_patterns_fast(
    vocabulary: Vocabulary, patterns: Mapping[Pattern, int]
) -> set[Pattern]:
    """Maximal patterns via the neighbor lemma (agrees with
    :func:`repro.analysis.redundancy.maximal_patterns`)."""
    children = _child_index(vocabulary)
    drop_first, drop_last = _drop_indexes(patterns)
    return {
        pattern
        for pattern in patterns
        if _best_neighbor_frequency(
            pattern, patterns, children, drop_first, drop_last
        )
        is None
    }


def filter_result(result: MiningResult, mode: str) -> MiningResult:
    """A copy of ``result`` restricted to its closed or maximal patterns."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    keep = (
        closed_patterns_fast(result.vocabulary, result.patterns)
        if mode == "closed"
        else maximal_patterns_fast(result.vocabulary, result.patterns)
    )
    return MiningResult(
        patterns={p: f for p, f in result.patterns.items() if p in keep},
        vocabulary=result.vocabulary,
        params=result.params,
        algorithm=f"{result.algorithm}+{mode}",
        preprocess_job=result.preprocess_job,
        mining_job=result.mining_job,
    )


def mine_closed(
    database,
    hierarchy=None,
    sigma: int = 1,
    gamma: int | None = 0,
    lam: int = 5,
    mode: str = "closed",
    local_miner: str = "psm",
) -> MiningResult:
    """Mine frequent generalized sequences and keep only the closed (or
    maximal) ones.

    >>> result = mine_closed(db, hierarchy, sigma=2, gamma=1, lam=3,
    ...                      mode="maximal")
    """
    from repro.core.lash import Lash
    from repro.sequence.database import SequenceDatabase

    if not isinstance(database, SequenceDatabase):
        database = SequenceDatabase(database)
    lash = Lash(MiningParams(sigma, gamma, lam), local_miner=local_miner)
    return filter_result(lash.mine(database, hierarchy), mode)
