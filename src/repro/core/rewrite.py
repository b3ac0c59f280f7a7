"""Partition-construction rewrites (paper Sec. 4).

Given a pivot item ``w``, an input sequence ``T`` is rewritten into a
*w-equivalent* sequence ``P_w(T)`` — one that generates exactly the same
multiset of pivot sequences ``G_{w,λ}(T)`` — which is as short and as
compressible as possible.  The pipeline:

1. **w-generalization** (Sec. 4.2): items larger than the pivot
   ("irrelevant") are replaced by their largest ancestor ``≤ w``, or by a
   blank when no such ancestor exists.
2. **Isolated pivot removal** (Sec. 4.3): pivot occurrences with no
   non-blank neighbour within gap ``γ`` cannot take part in any pivot
   sequence of length ≥ 2 and are blanked.  Blanking is *simultaneous*: if
   pivot p₁'s only non-blank neighbour is pivot p₂ then p₂ also has the
   non-blank neighbour p₁, so neither is isolated — blanked positions can
   therefore never un-isolate a kept pivot, and one pass suffices.
3. **Unreachability reduction** (Sec. 4.3): an index whose minimal
   "pivot distance" exceeds ``λ`` cannot be matched by any pivot sequence of
   length ≤ λ; such items are blanked.  (The paper *removes* them; removal
   is only safe at the sequence edges — deleting an interior item shrinks
   real gaps and could manufacture patterns, e.g. ``D x⁶ D`` with γ=0 must
   not become ``DD`` — so we blank and let step 4 shrink the run.)
4. **Blank compression**: leading/trailing blanks are dropped and interior
   runs longer than ``γ+1`` are truncated to exactly ``γ+1`` blanks, which no
   gap can bridge anyway.  With unbounded gap, blanks carry no information
   at all and are removed entirely.

The *pivot distance* of index ``i`` is the minimum, over pivot indexes
``p``, of the size of an increasing/decreasing index path from ``p`` to
``i`` (both endpoints included) whose consecutive elements respect the gap
constraint and whose intermediate elements are non-blank (the target may be
blank).  A pivot index has distance 1.

The pipeline is written down twice, on purpose.  The stage functions
(:func:`w_generalize`, :func:`blank_isolated_pivots`,
:func:`pivot_distances`, :func:`blank_unreachable`,
:func:`compress_blanks`) are the *specification*: one function per step
above, each returning a new sequence, pinned by the paper's examples.
Nothing on the mining path calls them.  :func:`pivot_rewrites` is the
*production path*: one kernel that rewrites a sequence for all of its
pivots, which the map phase (every pivot,
:class:`repro.core.lash.PartitionMineJob`) and :func:`rewrite_for_pivot`
(one pivot) both run, under every :class:`RewritePlan`.  ``tests/core/test_rewrite_kernel.py``
holds the two to the same output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.constants import BLANK
from repro.core.params import MiningParams
from repro.hierarchy.vocabulary import Vocabulary

_INF = float("inf")
#: integer stand-in for "unreachable" in the kernel's distance sweeps
_FAR = 1 << 30

Seq = Sequence[int]


@dataclass(frozen=True)
class RewritePlan:
    """Which rewrite stages run — every combination is correct.

    Each stage preserves w-equivalence on its own (an un-generalized
    irrelevant item behaves like a blank to the matcher, so skipping a
    stage only makes the later stages conservative), which makes the plan a
    sound ablation knob: LASH must mine the identical answer under any
    plan, while communication and skew degrade as stages are dropped
    (``tests/test_paper_claims.py`` holds the shuffle bytes to that).
    """

    generalize: bool = True
    isolated: bool = True
    unreachable: bool = True
    compress: bool = True

    def describe(self) -> str:
        stages = [
            name
            for name, on in (
                ("gen", self.generalize),
                ("iso", self.isolated),
                ("unreach", self.unreachable),
                ("compress", self.compress),
            )
            if on
        ]
        return "+".join(stages) if stages else "none"


#: the paper's full pipeline
FULL_REWRITE = RewritePlan()
#: ``P_w(T) = T`` — the "simple and correct" strawman of Sec. 3.4
NO_REWRITE = RewritePlan(False, False, False, False)


def _is_pivot_pos(vocabulary: Vocabulary, item: int, pivot: int) -> bool:
    """True when the item at a position can match the pivot item."""
    if item == pivot:
        return True
    # DAG fallback only: w-generalization may keep an irrelevant descendant
    return item > pivot and vocabulary.generalizes_to(item, pivot)


def w_generalize(vocabulary: Vocabulary, sequence: Seq, pivot: int) -> list[int]:
    """Replace every irrelevant item (``> pivot``) by its largest relevant
    ancestor, or by a blank when none exists (paper Sec. 4.2)."""
    out: list[int] = []
    for item in sequence:
        if item == BLANK or item <= pivot:
            out.append(item)
        else:
            out.append(vocabulary.largest_relevant_ancestor(item, pivot))
    return out


def blank_isolated_pivots(
    vocabulary: Vocabulary,
    sequence: Seq,
    pivot: int,
    gamma: int | None,
) -> list[int]:
    """Blank pivot occurrences with no non-blank item within gap ``γ``."""
    n = len(sequence)
    out = list(sequence)
    for i, item in enumerate(sequence):
        if not _is_pivot_pos(vocabulary, item, pivot):
            continue
        if gamma is None:
            lo, hi = 0, n
        else:
            lo, hi = max(0, i - gamma - 1), min(n, i + gamma + 2)
        if not any(
            sequence[j] != BLANK and j != i for j in range(lo, hi)
        ):
            out[i] = BLANK
    return out


def pivot_distances(
    vocabulary: Vocabulary,
    sequence: Seq,
    pivot: int,
    gamma: int | None,
) -> list[float]:
    """Minimal pivot distance of every index (paper Sec. 4.3 table).

    Returns ``inf`` for indexes unreachable from every pivot occurrence.
    """
    n = len(sequence)
    left = _directed_distances(vocabulary, sequence, pivot, gamma, reverse=False)
    right = _directed_distances(vocabulary, sequence, pivot, gamma, reverse=True)
    return [min(left[i], right[i]) for i in range(n)]


def _directed_distances(
    vocabulary: Vocabulary,
    sequence: Seq,
    pivot: int,
    gamma: int | None,
    reverse: bool,
) -> list[float]:
    """Left distances (``reverse=False``) or right distances (``True``).

    ``dist[i] = 1`` at pivot indexes; otherwise ``1 + min`` over non-blank
    predecessor indexes within the gap window.  Blank targets receive a
    distance (they may be kept for spacing) but never serve as hops.
    """
    n = len(sequence)
    dist: list[float] = [_INF] * n
    order = range(n - 1, -1, -1) if reverse else range(n)
    for i in order:
        if _is_pivot_pos(vocabulary, sequence[i], pivot):
            dist[i] = 1.0
            continue
        if gamma is None:
            window = range(i + 1, n) if reverse else range(i)
        elif reverse:
            window = range(i + 1, min(n, i + gamma + 2))
        else:
            window = range(max(0, i - gamma - 1), i)
        best = _INF
        for j in window:
            if sequence[j] != BLANK and dist[j] < best:
                best = dist[j]
        if best is not _INF:
            dist[i] = best + 1.0
    return dist


def blank_unreachable(
    sequence: Seq, distances: Sequence[float], lam: int
) -> list[int]:
    """Blank indexes whose pivot distance exceeds ``λ``."""
    return [
        item if distances[i] <= lam else BLANK
        for i, item in enumerate(sequence)
    ]


def compress_blanks(sequence: Seq, gamma: int | None) -> tuple[int, ...]:
    """Trim edge blanks; cap interior blank runs at ``γ+1`` (drop all blanks
    when the gap is unbounded)."""
    if gamma is None:
        return tuple(item for item in sequence if item != BLANK)
    out: list[int] = []
    run = 0
    cap = gamma + 1
    for item in sequence:
        if item == BLANK:
            run += 1
            continue
        if out and run:
            out.extend([BLANK] * min(run, cap))
        run = 0
        out.append(item)
    return tuple(out)


def pivot_rewrites(
    vocabulary: Vocabulary,
    sequence: Seq,
    params: MiningParams,
    plan: RewritePlan = FULL_REWRITE,
    pivot: int | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(w, P_w(T))``, ascending in ``w``, for every frequent item
    ``w`` of ``G1(T)`` — or, with ``pivot`` given, for that item alone,
    whatever its frequency.

    The fused form of the stage functions above.  What the pivots of one
    sequence share is computed once: a position's ancestor chain, and
    from the chains ``G1(T)`` together with, per item of it, the
    positions that can match it.  Visiting ``G1(T)`` in ascending order
    keeps the w-generalization of ``T`` up to date by assignment — the
    positions that can match ``w`` are exactly the ones whose largest
    ancestor ``≤ w`` has just become ``w``.  Per pivot one forward sweep
    takes the left distances and one backward sweep takes the right
    distances, blanks what neither reaches, compresses the blank runs
    and counts what is left.  Pairs that cannot contribute a pivot
    sequence are dropped.
    """
    n = len(sequence)
    gamma, lam = params.gamma, params.lam
    # widest index step one hop may take, and blanks an interior run keeps
    hop = n if gamma is None else gamma + 1
    kept_run = (BLANK,) * (0 if gamma is None else gamma + 1)
    padding = [_FAR] * hop  # lets every hop window be one non-empty slice
    generalize, compress = plan.generalize, plan.compress
    isolated, unreachable = plan.isolated, plan.unreachable

    positions: dict[int, list[int]] = {}
    # positions w-generalization cannot settle by assignment: their
    # ancestors are not a chain
    dag: list[int] = []
    for i, item in enumerate(sequence):
        for ancestor in vocabulary.ancestors_or_self(item):
            if ancestor in positions:
                positions[ancestor].append(i)
            else:
                positions[ancestor] = [i]
        if generalize and item != BLANK and not vocabulary.is_chain(item):
            dag.append(i)

    current = [BLANK] * n if generalize else list(sequence)
    for w in sorted(positions):
        pivots = positions[w]
        if generalize:
            for i in pivots:
                current[i] = w
        if pivot is None:
            if vocabulary.frequency(w) < params.sigma:
                continue
        elif w != pivot:
            continue
        seq = current[:]
        for i in dag:
            if sequence[i] > w:
                seq[i] = vocabulary.largest_relevant_ancestor(sequence[i], w)

        if isolated:
            # an isolated pivot is in no other pivot's window (windows are
            # symmetric), so blanking in place is the simultaneous rule
            live = []
            for p in pivots:
                window = seq[max(0, p - hop) : p + hop + 1]
                if len(window) - window.count(BLANK) > 1:
                    live.append(p)
                else:
                    seq[p] = BLANK
            if not live:
                continue
            pivots = live

        if unreachable:
            # left distances behind ``hop`` entries of padding; 1 marks the
            # pivot positions and nothing else
            left = padding[:]
            for i, item in enumerate(seq):
                if item == BLANK:
                    left.append(_FAR)
                elif item == w or (item > w and i in pivots):
                    left.append(1)
                else:
                    left.append(min(left[i:]) + 1)
        else:
            left = [1] * (hop + n)  # stage off: nothing is out of reach

        # backward: right distances (last position first), the reach
        # verdict, blank compression and the count of what is left
        right = padding[:]
        out: list[int] = []
        run = non_blank = 0
        for item, near in zip(reversed(seq), reversed(left)):
            if near == 1:
                right.append(1)
            elif item == BLANK:
                right.append(_FAR)
            else:
                far = min(right[-hop:]) + 1
                right.append(far)
                if near > lam and far > lam:
                    item = BLANK
            if item == BLANK:
                if compress:
                    run += 1
                else:
                    out.append(BLANK)
                continue
            if run:
                if out:
                    out.extend(kept_run[:run])
                run = 0
            out.append(item)
            non_blank += 1
        if non_blank >= 2:
            out.reverse()
            yield w, tuple(out)


def rewrite_for_pivot(
    vocabulary: Vocabulary,
    sequence: Seq,
    pivot: int,
    params: MiningParams,
    plan: RewritePlan = FULL_REWRITE,
) -> tuple[int, ...] | None:
    """Rewrite pipeline ``T → P_w(T)`` (stages selected by ``plan``).

    Returns ``None`` when the rewritten sequence cannot contribute any pivot
    sequence (no pivot occurrence left, or fewer than two non-blank items).
    """
    found = next(
        pivot_rewrites(vocabulary, sequence, params, plan, pivot), None
    )
    return None if found is None else found[1]
