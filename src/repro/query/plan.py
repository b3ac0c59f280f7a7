"""Compiled query plans: bitset candidate pruning + positional matching.

The DP matcher in :mod:`repro.query.base` re-interprets the compiled
token list for every candidate pattern.  This module lowers a compiled
query **once** into a :class:`QueryPlan` and answers it with big-integer
bitmap algebra instead — the sequence analog of DMR-XPath's numbering
scheme, where a precomputed coordinate system turns structural traversal
into range predicates:

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
  occurrences (the store's positional postings) become set bits; window
  checks become shift-and-OR sweeps; a query is answered by propagating
  a reachable-position bitmap through the chain and reading off which
  fields keep a live bit.  A space belongs to one backend — one per
  store file, so each shard of a sharded store has its own — and is
  built by the first positional query that executes there.

The propagation computes exactly the reachable-set of the reference DP
restricted to consuming tokens, so the surviving fields *are* the
matches — no verification needed.  Where the cost estimate finds that
cheaper, the plan's stage-1 **candidate mask** — the cheapest-first AND
of the concrete chain nodes' postings bitsets — drops its survivors into
the DP instead, which keeps answers byte-identical by construction.

A plan lives for one request: the thread serving the query builds it,
prices it (:mod:`repro.query.cost`), executes it once against the
backend it was built for, and drops it — nothing here is shared between
threads or retained between calls.  Repeats are the result cache's job
(:class:`~repro.serve.service.QueryService`), not the plan's.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Sequence

from repro.query.cost import CostEstimator, order_mask_nodes

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
    id tuples (``under`` expands through the backend's memoized
    descendant sets) and nothing else; every bitmap is computed by the
    execution that needs it and dies with it.
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
    # stage 1: bitset candidate pruning
    # ------------------------------------------------------------------

    def candidate_mask(self, backend) -> int | None:
        """Pattern-index bitmask of candidates surviving the AND of the
        concrete chain nodes' postings bitsets, cheapest (smallest
        *estimated postings volume*) first with an early exit at zero;
        nodes whose postings dwarf the cheapest node's are skipped
        entirely (the mask stays a verified superset — see
        :func:`~repro.query.cost.order_mask_nodes`).  ``None`` when no
        chain node restricts candidates (all-negative queries, or nodes
        admitting the whole vocabulary) — the caller falls back to a
        length-filtered scan."""
        vocab_size = len(backend.vocabulary)
        usable = [
            ids
            for node_kind, ids in self.chain
            if node_kind == "in" and len(ids) < vocab_size
        ]
        if not usable:
            return None
        # node sizes are a property of the (immutable) backend, not the
        # plan: the estimator memoizes them per backend
        entries = CostEstimator(backend).node_entries
        included, _ = order_mask_nodes([(entries(ids), ids) for ids in usable])
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

    def _node_position_map(self, backend, space: PositionSpace, node) -> int:
        """Bitmap of slots whose item the chain node admits."""
        node_kind, ids = node
        if node_kind == "in" and len(ids) == len(backend.vocabulary):
            return space.valid  # every slot holds *some* item
        bits = bytearray((space.valid.bit_length() + 7) >> 3 or 1)
        offsets = space.offsets
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
        chain propagation — exact for every token kind."""
        space = backend._position_space()
        if not space.offsets:
            return []
        if self.candidate_mask(backend) == 0:
            return []
        reach = 0
        for k, node in enumerate(self.chain):
            lo, hi = self.windows[k]
            if k == 0:
                source = space.shift_window_up(space.starts, (lo, hi))
            else:
                source = space.shift_window_up(
                    reach, (lo + 1, None if hi is None else hi + 1)
                )
            reach = source & self._node_position_map(backend, space, node)
            if not reach:
                return []
        anchor = space.shift_window_down(space.ends, self.windows[-1])
        return space.field_indexes(reach & anchor)

    # ------------------------------------------------------------------
    # wildcard-only queries
    # ------------------------------------------------------------------

    def length_scan_indexes(self, backend) -> list[int]:
        """For an empty chain (wildcards and gaps only) matching is a
        pure length-range test: the per-token consumptions range over
        full integer intervals, so their sum covers ``[min_len,
        max_len]`` with no holes."""
        indexes: list[int] = []
        for length, group in backend._length_groups().items():
            if length >= self.min_len and (
                self.max_len is None or length <= self.max_len
            ):
                indexes.extend(group)
        indexes.sort()
        return indexes


__all__ = ["PositionSpace", "QueryPlan", "iter_bit_indexes"]
