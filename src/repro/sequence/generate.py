"""Enumeration of generalized subsequences (paper Sec. 3.2, Eq. (2)).

``Gλ(T)`` is the set of distinct generalized subsequences of ``T`` that
satisfy the gap and length constraints; ``G1(T)`` its single-item analogue;
``G_{w,λ}(T)`` the subset whose pivot (largest item) is ``w``.

These enumerators power the naïve/semi-naïve baselines, the w-equivalency
property tests, and the brute-force reference miner.  They are exponential in
the worst case — which is the paper's very argument against the baselines.
"""

from __future__ import annotations

from typing import Sequence

from repro.constants import BLANK
from repro.hierarchy.vocabulary import Vocabulary

Seq = Sequence[int]


def pivot_of(pattern: Seq) -> int:
    """``p(S)``: the largest (least frequent) item of the pattern."""
    return max(pattern)


def generalized_items(vocabulary: Vocabulary, sequence: Seq) -> set[int]:
    """``G1(T)``: distinct items of ``T`` together with their ancestors."""
    out: set[int] = set()
    for t in sequence:
        if t == BLANK:
            continue
        out.update(vocabulary.ancestors_or_self(t))
    return out


def generalized_subsequences(
    vocabulary: Vocabulary,
    sequence: Seq,
    gamma: int | None,
    lam: int,
    min_length: int = 2,
) -> set[tuple[int, ...]]:
    """``Gλ(T)``: distinct generalized subsequences with ``min_length ≤ |S| ≤ λ``.

    Blank positions are never matched but consume gap budget, so the
    enumeration is valid on rewritten sequences as well.
    """
    results: set[tuple[int, ...]] = set()
    n = len(sequence)

    def extend(prefix: tuple[int, ...], last: int) -> None:
        if len(prefix) >= min_length:
            results.add(prefix)
        if len(prefix) >= lam:
            return
        hi = n if gamma is None else min(last + 2 + gamma, n)
        for k in range(last + 1, hi):
            t = sequence[k]
            if t == BLANK:
                continue
            for item in vocabulary.ancestors_or_self(t):
                extend(prefix + (item,), k)

    for i, t in enumerate(sequence):
        if t == BLANK:
            continue
        for item in vocabulary.ancestors_or_self(t):
            extend((item,), i)
    return results


def pivot_subsequences(
    vocabulary: Vocabulary,
    sequence: Seq,
    gamma: int | None,
    lam: int,
    pivot: int,
    min_length: int = 2,
) -> set[tuple[int, ...]]:
    """``G_{w,λ}(T)``: generalized subsequences whose pivot is ``pivot``.

    Used to define and test w-equivalency (paper Sec. 4.1): two sequences are
    w-equivalent iff this set coincides for both.
    """
    return {
        s
        for s in generalized_subsequences(
            vocabulary, sequence, gamma, lam, min_length
        )
        if max(s) == pivot
    }
