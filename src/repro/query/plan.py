"""Compiled query plans: a candidate mask, then positional propagation.

A compiled query is lowered **once** into a :class:`QueryPlan` and
answered with big-integer bitmap algebra — the sequence analog of
DMR-XPath's numbering scheme, where a precomputed coordinate system
turns structural traversal into range predicates:

* the **chain** of a query is its membership-testing tokens (``item`` /
  ``under`` / ``oneof`` / ``notin``), each holding the admissible (or
  excluded) item-id set;
* everything between chain nodes — ``?``/``+``/``*``/``*{m,n}`` — folds
  into **consumption windows** ``(lo, hi)``: how many items may separate
  two neighboring chain nodes (plus a prefix window before the first
  node and a tail window after the last);
* a :class:`PositionSpace` lays every stored pattern out as a *field* of
  bit slots inside one big Python integer, separated by enough zero
  padding that in-field shifts can never leak into a neighbor.  Item
  occurrences become set bits; window checks become shift-and-OR
  sweeps; a query is answered by propagating a reachable-position
  bitmap through the chain and reading off which fields keep a live
  bit.  A space belongs to one backend — one per store file, so each
  shard of a sharded store has its own — and is built by the first
  positional query that executes there.

The propagation computes exactly the reachable set of a regex-style
matcher restricted to consuming tokens, so the surviving fields *are*
the matches — there is no verification step.  It runs in two stages:

1. the **candidate mask** — the cheapest-first AND of the concrete chain
   nodes' postings bitsets, or the length-range scan when no node beats
   it — a superset of the matches;
2. per chain node, a **slot map** built from whichever source is cheaper
   by the counts in hand (:func:`~repro.query.cost.node_map_cost`): the
   node's positional postings, or the candidates' own items.  A map
   built from the candidates is exact inside their fields and empty
   outside them, which cannot drop a match since every match is a
   candidate.  So a ubiquitous node beside a rare one never has its
   postings decoded.

A plan lives for one request: the thread serving the query builds it,
prices it (:mod:`repro.query.cost`), executes it once against the
backend it was built for, and drops it — nothing here is shared between
threads or retained between calls.  Repeats are the result cache's job
(:class:`~repro.serve.service.QueryService`), not the plan's.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Iterator, Sequence

from repro.query.cost import CostEstimator, node_map_cost

Window = tuple[int, "int | None"]


def iter_bit_indexes(mask: int) -> Iterator[int]:
    """Set-bit indexes of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PositionSpace:
    """Bit-slot coordinates for every position of every pattern of one
    backend.

    Pattern ``i`` of length ``L_i`` owns slots ``[offsets[i],
    offsets[i] + L_i)``; fields are separated by :attr:`max_len` dead
    slots (the maximum pattern length), so any single shift of at most
    that many slots followed by an AND with :attr:`valid` stays within
    fields.  :attr:`starts` and :attr:`ends` mark each field's
    first and last slot — the anchors for prefix and tail windows.
    """

    __slots__ = ("offsets", "valid", "starts", "ends", "max_len", "total")

    def __init__(self, lengths: Sequence[int]) -> None:
        max_len = 1
        for length in lengths:
            if length > max_len:
                max_len = length
        offsets: list[int] = []
        offset = 0
        for length in lengths:
            offsets.append(offset)
            offset += length + max_len
        nbytes = ((offset + 7) >> 3) or 1
        valid = bytearray(nbytes)
        starts = bytearray(nbytes)
        ends = bytearray(nbytes)
        for base, length in zip(offsets, lengths):
            starts[base >> 3] |= 1 << (base & 7)
            last = base + length - 1
            ends[last >> 3] |= 1 << (last & 7)
            for slot in range(base, base + length):
                valid[slot >> 3] |= 1 << (slot & 7)
        self.offsets = offsets
        self.valid = int.from_bytes(bytes(valid), "little")
        self.starts = int.from_bytes(bytes(starts), "little")
        self.ends = int.from_bytes(bytes(ends), "little")
        self.max_len = max_len
        self.total = offset

    # ------------------------------------------------------------------
    # window algebra
    # ------------------------------------------------------------------

    def _spread_up(self, bits: int, width: int) -> int:
        """OR of ``bits`` shifted up by every distance in ``[0, width]``,
        confined to fields.  Doubling sweep: after covering contiguous
        distances ``[0, c]`` a further shift by ``s <= c + 1`` extends
        the coverage to ``[0, c + s]`` — and every intermediate landing
        slot of an in-field target is itself in-field, so the AND with
        :attr:`valid` never breaks coverage."""
        covered = 0
        valid = self.valid
        while covered < width and bits:
            step = min(covered + 1, width - covered, self.max_len)
            bits |= (bits << step) & valid
            covered += step
        return bits

    def _spread_down(self, bits: int, width: int) -> int:
        covered = 0
        valid = self.valid
        while covered < width and bits:
            step = min(covered + 1, width - covered, self.max_len)
            bits |= (bits >> step) & valid
            covered += step
        return bits

    def shift_window_up(self, bits: int, window: Window) -> int:
        """Slots reachable from ``bits`` by advancing ``d`` positions
        for any ``d`` in the window (``hi=None`` unbounded).  Distances
        beyond ``max_len - 1`` cannot stay inside any field, so they
        clamp away instead of shifting."""
        lo, hi = window
        max_d = self.max_len - 1
        if lo > max_d:
            return 0
        if lo:
            bits = (bits << lo) & self.valid
        hi = max_d if hi is None else min(hi, max_d)
        return self._spread_up(bits, hi - lo)

    def shift_window_down(self, bits: int, window: Window) -> int:
        lo, hi = window
        max_d = self.max_len - 1
        if lo > max_d:
            return 0
        if lo:
            bits = (bits >> lo) & self.valid
        hi = max_d if hi is None else min(hi, max_d)
        return self._spread_down(bits, hi - lo)

    def field_indexes(self, bits: int) -> list[int]:
        """Ascending pattern indexes whose field holds any set bit."""
        out: list[int] = []
        offsets = self.offsets
        last = -1
        for slot in iter_bit_indexes(bits):
            idx = bisect_right(offsets, slot) - 1
            if idx != last:
                out.append(idx)
                last = idx
        return out


class QueryPlan:
    """One compiled query lowered for bitmap execution.

    Construction resolves the chain/window structure and the admissible
    id tuples (an ``under`` node holds the backend's memoized descendant
    tuple itself, which is how the estimator recognises a subtree) and
    nothing else; every bitmap is computed by the execution that needs
    it and dies with it.
    """

    __slots__ = ("chain", "windows", "min_len", "max_len", "unsatisfiable")

    def __init__(self, compiled: Sequence, backend) -> None:
        chain: list[tuple[str, tuple[int, ...]]] = []
        windows: list[list] = [[0, 0]]
        unsatisfiable = False
        for kind, payload in compiled:
            if kind == "item":
                chain.append(("in", (payload,)))
                windows.append([0, 0])
            elif kind == "under":
                chain.append(("in", backend._descendants_or_self(payload)))
                windows.append([0, 0])
            elif kind == "oneof":
                if not payload:
                    unsatisfiable = True  # e.g. an unsatisfiable floor
                chain.append(("in", tuple(sorted(payload))))
                windows.append([0, 0])
            elif kind == "notin":
                chain.append(("notin", tuple(sorted(payload))))
                windows.append([0, 0])
            else:
                if kind == "any":
                    lo, hi = 1, 1
                elif kind == "plus":
                    lo, hi = 1, None
                elif kind == "span":
                    lo, hi = 0, None
                else:  # gap
                    lo, hi = payload
                window = windows[-1]
                window[0] += lo
                if hi is None:
                    window[1] = None
                elif window[1] is not None:
                    window[1] += hi
        self.chain = chain
        self.windows: list[Window] = [(w[0], w[1]) for w in windows]
        min_len = len(chain)
        max_len: int | None = len(chain)
        for lo, hi in self.windows:
            min_len += lo
            if hi is None:
                max_len = None
            elif max_len is not None:
                max_len += hi
        self.min_len = min_len
        self.max_len = max_len
        self.unsatisfiable = unsatisfiable

    # ------------------------------------------------------------------
    # stage 1: the candidate mask
    # ------------------------------------------------------------------

    def candidate_mask(self, backend) -> int | None:
        """Pattern-index bitmask of the candidates surviving the AND of
        the mask nodes' postings bitsets, cheapest (smallest *estimated
        postings volume*) first with an early exit at zero; nodes whose
        postings dwarf the cheapest node's are left out (see
        :meth:`~repro.query.cost.CostEstimator.mask_nodes`).  Always a
        superset of the matches.  ``None`` when no node posts to fewer
        patterns than the length-range scan visits (all-negative
        queries, nodes admitting the whole vocabulary, unselective
        nodes): the scan is then the candidate set."""
        included, _ = CostEstimator(backend).mask_nodes(self)
        if not included:
            return None
        n_bytes = (backend._num_patterns() + 7) >> 3
        mask: int | None = None
        for _, ids in included:
            buf = bytearray(n_bytes)
            for item in ids:
                for idx in backend._postings_for(item):
                    buf[idx >> 3] |= 1 << (idx & 7)
            node_mask = int.from_bytes(bytes(buf), "little")
            mask = node_mask if mask is None else mask & node_mask
            if not mask:
                break
        return mask

    # ------------------------------------------------------------------
    # stage 2: exact positional matching
    # ------------------------------------------------------------------

    @staticmethod
    def _node_map(backend, space: PositionSpace, node, candidates) -> int:
        """Bitmap of slots whose item the chain node admits: from the
        node's positional postings, or — given the decoded
        ``(index, pattern)`` candidates — from their own items, in
        their fields only."""
        node_kind, ids = node
        bits = bytearray((space.valid.bit_length() + 7) >> 3 or 1)
        offsets = space.offsets
        if candidates is not None:
            members = frozenset(ids)
            admit = node_kind == "in"
            for idx, pattern in candidates:
                base = offsets[idx]
                for position, item in enumerate(pattern):
                    if (item in members) == admit:
                        slot = base + position
                        bits[slot >> 3] |= 1 << (slot & 7)
            return int.from_bytes(bytes(bits), "little")
        for item in ids:
            indexes, positions = backend._positional_postings_for(item)
            for idx, entry in zip(indexes, positions):
                base = offsets[idx]
                for position in entry:
                    slot = base + position
                    bits[slot >> 3] |= 1 << (slot & 7)
        mapped = int.from_bytes(bytes(bits), "little")
        if node_kind == "notin":
            return space.valid & ~mapped
        return mapped

    def match_indexes(self, backend) -> list[int]:
        """Ascending indexes of the patterns matching the query, by
        chain propagation — exact for every token kind.  Each node's
        slot map comes from the source :func:`node_map_cost` prices
        cheaper for the candidate count in hand; the backend tallies
        the sources (``plan_stats()["sources"]``)."""
        space = backend._position_space()
        if not space.offsets:
            return []
        mask = self.candidate_mask(backend)
        if mask is None:
            scanned = list(self.length_scan_indexes(backend))
            n_candidates = len(scanned)
        else:
            n_candidates = mask.bit_count()
        if not n_candidates:
            return []
        estimator = CostEstimator(backend)
        _, avg_len = estimator.length_stats()
        vocab_size = len(backend.vocabulary)
        candidates = None  # decoded by the first node mapped from them
        reach = 0
        for k, node in enumerate(self.chain):
            lo, hi = self.windows[k]
            if k == 0:
                shifted = space.shift_window_up(space.starts, (lo, hi))
            else:
                shifted = space.shift_window_up(
                    reach, (lo + 1, None if hi is None else hi + 1)
                )
            node_kind, ids = node
            if node_kind == "in" and len(ids) == vocab_size:
                node_map = space.valid  # every slot holds *some* item
            else:
                source, _ = node_map_cost(
                    estimator.node_entries(ids), n_candidates, avg_len
                )
                backend._count_source(source)
                if source == "candidates" and candidates is None:
                    candidates = [
                        (idx, backend._pattern_at(idx)[0])
                        for idx in (
                            scanned if mask is None else iter_bit_indexes(mask)
                        )
                    ]
                node_map = self._node_map(
                    backend, space, node,
                    candidates if source == "candidates" else None,
                )
            reach = shifted & node_map
            if not reach:
                return []
        anchor = space.shift_window_down(space.ends, self.windows[-1])
        return space.field_indexes(reach & anchor)

    # ------------------------------------------------------------------
    # wildcard-only queries
    # ------------------------------------------------------------------

    def length_scan_indexes(self, backend) -> Iterator[int]:
        """For an empty chain (wildcards and gaps only) matching is a
        pure length-range test: the per-token consumptions range over
        full integer intervals, so their sum covers ``[min_len,
        max_len]`` with no holes.  The indexes come lazily, ascending —
        a merge of the in-range length groups, each ascending already —
        so a caller that stops early pays for what it took."""
        return heapq.merge(*(
            group
            for length, group in backend._length_groups().items()
            if length >= self.min_len
            and (self.max_len is None or length <= self.max_len)
        ))


__all__ = ["PositionSpace", "QueryPlan", "iter_bit_indexes"]
