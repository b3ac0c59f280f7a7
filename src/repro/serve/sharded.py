"""Sharded pattern stores: one logical index over many store files.

A corpus whose postings outgrow one comfortable ``mmap`` is split across
shard files at build time (:func:`~repro.serve.writer.write_sharded_store`):
every pattern lives in the shard selected by a stable hash of its first
item's *name*, and all shards carry the identical shared vocabulary.
:class:`ShardedPatternStore` presents the set as a single
:class:`~repro.query.base.PatternSearchBase` backend:

* each shard opens lazily (O(header) + mmap) the first time a query
  touches it, so ``open()`` on the directory reads only the manifest.
  An open shard is a whole :class:`~repro.serve.store.PatternStore`
  with its own decode caches, planner statistics and position space,
  each built when a query first needs it; only the decoded vocabulary
  and the descendant sets derived from it are shared between shards;
* every read — a search, and through it top-k, exact lookups and
  hierarchy navigation, plus plain iteration — k-way merges the shards'
  rank-ordered streams with a heap keyed by the shared
  :func:`~repro.query.base.rank_key`, so answers are byte-identical to
  a single-file store of the same patterns.

:func:`open_store` dispatches on the path (directory with manifest →
sharded, file → single) so callers serve either layout transparently.
"""

from __future__ import annotations

import heapq
import threading
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import InvalidParameterError, StoreCorruptError
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import Pattern, PatternSearchBase, rank_key
from repro.serve.format import (
    SECTION_NAMES,
    is_sharded_store,
    read_manifest,
)
from repro.serve.store import PatternStore


class ShardedPatternStore(PatternSearchBase):
    """Read a shard-set directory as one pattern search backend.

    Parameters mirror :class:`~repro.serve.store.PatternStore`; the
    cache sizes apply **per shard** (each shard is its own store with
    its own decode caches).  Opening reads only ``manifest.json``;
    shard files are opened on first use, under a lock, and reused.

    Use as a context manager or call :meth:`close` to release all maps.
    """

    def __init__(
        self,
        path: str | Path,
        pattern_cache_size: int = 1 << 16,
        postings_cache_size: int = 1 << 12,
        verify_checksums: bool = True,
        shard_subset: Sequence[int] | None = None,
    ) -> None:
        """``shard_subset`` mounts only the named shard indexes — the
        distributed tier's shard servers each own a slice of one
        manifest.  Every read covers exactly the owned shards.
        """
        super().__init__()
        self._path = Path(path)
        self._manifest = read_manifest(self._path)
        self._files: list[str] = self._manifest["shard_files"]
        if shard_subset is None:
            self._owned: tuple[int, ...] = tuple(range(len(self._files)))
        else:
            owned = sorted(set(shard_subset))
            if not owned:
                raise InvalidParameterError("shard_subset must not be empty")
            if owned[0] < 0 or owned[-1] >= len(self._files):
                raise InvalidParameterError(
                    f"shard_subset {owned} out of range for "
                    f"{len(self._files)} shards"
                )
            self._owned = tuple(owned)
        self._owned_set = frozenset(self._owned)
        self._subset_counts: tuple[int, int] | None = None
        self._pattern_cache_size = pattern_cache_size
        self._postings_cache_size = postings_cache_size
        self._verify_checksums = verify_checksums
        self._open_lock = threading.Lock()
        self._stores: list[PatternStore | None] = [None] * len(self._files)
        # pin every owned shard's inode now (no reads — decode stays
        # lazy): online compaction may unlink this generation's files
        # while this handle lives, and a shard first touched after that
        # must still find its data
        self._pins: list = [None] * len(self._files)
        try:
            for index in self._owned:
                self._pins[index] = open(
                    self._path / self._files[index], "rb"
                )
        except FileNotFoundError as exc:
            for pin in self._pins:
                if pin is not None:
                    pin.close()
            raise StoreCorruptError(
                f"{self._path}: manifest references missing shard file "
                f"({exc.filename})"
            ) from None
        self._shared_vocab: Vocabulary | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def num_shards(self) -> int:
        return len(self._files)

    @property
    def owned_shards(self) -> tuple[int, ...]:
        """Shard indexes this handle mounts (all of them unless opened
        with ``shard_subset``)."""
        return self._owned

    @property
    def generation(self) -> int:
        """Manifest generation this handle serves.  Online compaction
        (:class:`~repro.serve.compact.StoreCompactor`) bumps it on every
        manifest swap; a server compares it against the on-disk manifest
        to decide when to reopen."""
        return self._manifest.get("generation", 0)

    @property
    def ingested_through(self) -> int | None:
        """Freshness watermark: sequence number (exclusive) through which
        ingest deltas have been folded into this generation, or ``None``
        for a store never touched by ``lash ingest``."""
        ingest = self._manifest.get("ingest")
        if isinstance(ingest, dict):
            value = ingest.get("ingested_through")
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        return None

    @property
    def retained_from(self) -> int | None:
        """Retention horizon: first sequence number still contributing
        support (earlier ones were retired), or ``None`` without ingest."""
        ingest = self._manifest.get("ingest")
        if isinstance(ingest, dict):
            value = ingest.get("retained_from")
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        return None

    def _shard(self, index: int) -> PatternStore:
        if index not in self._owned_set:
            raise InvalidParameterError(
                f"shard {index} is not mounted by this handle "
                f"(owned: {list(self._owned)})"
            )
        store = self._stores[index]
        if store is None:
            with self._open_lock:
                store = self._stores[index]
                if store is None:
                    if self._closed:
                        raise ValueError("sharded store is closed")
                    # hand the pin over before constructing: a failed
                    # open (e.g. CRC mismatch) closes the handle, and a
                    # poisoned slot would turn every retry into a
                    # ValueError on a closed file instead of the real
                    # store error.  Retries fall back to a path open.
                    pin = self._pins[index]
                    self._pins[index] = None
                    store = PatternStore(
                        self._path / self._files[index],
                        pattern_cache_size=self._pattern_cache_size,
                        postings_cache_size=self._postings_cache_size,
                        verify_checksums=self._verify_checksums,
                        # one decoded vocabulary serves every shard
                        vocabulary=self._shared_vocab,
                        # the handle pinned at mount time: reads work
                        # even if the path was since unlinked
                        fileobj=pin,
                    )
                    # descendant expansions (^name queries) are pure
                    # functions of the shared vocabulary: let shards
                    # reuse each other's results
                    store._descendants_cache = self._descendants_cache
                    store._descendants_lock = self._descendants_lock
                    self._stores[index] = store
        return store

    def _shards(
        self, shard_ids: Sequence[int] | None = None
    ) -> list[PatternStore]:
        """The named shards' stores (default: every mounted one)."""
        return [
            self._shard(i)
            for i in (self._owned if shard_ids is None else shard_ids)
        ]

    @classmethod
    def open(
        cls, path: str | Path, verify_checksums: bool = True
    ) -> "ShardedPatternStore":
        return cls(path, verify_checksums=verify_checksums)

    def close(self) -> None:
        with self._open_lock:
            self._closed = True
            for store in self._stores:
                if store is not None:
                    store.close()
            self._stores = [None] * len(self._files)
            for pin in self._pins:
                if pin is not None:
                    pin.close()
            self._pins = [None] * len(self._files)

    def __enter__(self) -> "ShardedPatternStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Aggregate metadata plus a per-shard breakdown.

        Opens every shard (each O(header)); the per-shard entries power
        ``lash index info`` and the server's ``/healthz`` / ``/metrics``.
        """
        shards = [store.describe() for store in self._shards()]
        info = {
            "path": str(self._path),
            "shards": len(self._files),
            "generation": self.generation,
            "items": self._manifest["items"],
            "patterns": self._manifest["patterns"],
            "total_frequency": self._manifest["total_frequency"],
            "max_length": max((s["max_length"] for s in shards), default=0),
            "file_bytes": sum(s["file_bytes"] for s in shards),
            "sections": {
                name: sum(s["sections"][name] for s in shards)
                for name in SECTION_NAMES
            },
            "shard_stats": shards,
        }
        if isinstance(self._manifest.get("ingest"), dict):
            info["ingest"] = dict(self._manifest["ingest"])
        if len(self._owned) != len(self._files):
            # a subset mount serves only its slice; report that slice's
            # counts, not the whole manifest's
            info["owned_shards"] = list(self._owned)
            info["patterns"] = sum(s["patterns"] for s in shards)
            info["total_frequency"] = sum(
                s["total_frequency"] for s in shards
            )
        return info

    # ------------------------------------------------------------------
    # storage primitives / rank-ordered streams
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        # every shard stores the identical shared vocabulary: decode it
        # once (from whichever shard opens first) and hand the one copy
        # to shards opened later
        if self._shared_vocab is None:
            vocabulary = self._shard(self._owned[0]).vocabulary
            with self._open_lock:
                if self._shared_vocab is None:
                    self._shared_vocab = vocabulary
                # shards opened before the first vocabulary access (e.g.
                # by describe()) adopt the shared copy too
                for store in self._stores:
                    if store is not None and store._vocab is None:
                        store._vocab = self._shared_vocab
        return self._shared_vocab

    def _num_patterns(self) -> int:
        if len(self._owned) == len(self._files):
            return self._manifest["patterns"]
        if self._subset_counts is None:
            # O(header) per owned shard, computed once: the manifest
            # only knows the whole set's totals
            shards = self._shards()
            self._subset_counts = (
                sum(s._num_patterns() for s in shards),
                sum(s._total_frequency for s in shards),
            )
        return self._subset_counts[0]

    def _iter_ranked(self) -> Iterator[tuple[Pattern, int]]:
        return heapq.merge(
            *(store._iter_ranked() for store in self._shards()),
            key=rank_key,
        )

    def _iter_search(
        self, plans: dict, shard_ids: Sequence[int] | None = None
    ) -> Iterator[tuple[Pattern, int]]:
        # each shard runs its own plan; per-shard streams are
        # rank-ordered, so the heap interleaves them into exactly the
        # order one monolithic store would emit.  ``shard_ids`` narrows
        # the read to a slice of the mounted shards — what a shard
        # server answers on behalf of the router
        return heapq.merge(
            *(store._iter_search(plans) for store in self._shards(shard_ids)),
            key=rank_key,
        )

    def _pattern_at(self, idx: int):  # pragma: no cover - defensive
        raise NotImplementedError(
            "sharded stores have no global pattern numbering; "
            "use the rank-ordered iterators"
        )

    def _postings_for(self, item_id: int):  # pragma: no cover - defensive
        raise NotImplementedError(
            "sharded stores have no global postings; "
            "use the rank-ordered iterators"
        )

    def _length_groups(self):  # pragma: no cover - defensive
        raise NotImplementedError(
            "sharded stores have no global length groups; "
            "use the rank-ordered iterators"
        )

    # ------------------------------------------------------------------
    # query-plan plumbing
    # ------------------------------------------------------------------

    def explain(self, query) -> dict:
        """Plan shape from the first owned shard (chains are
        vocabulary-pure, hence identical across shards) with the
        handle-level combined estimate."""
        info = self._shard(self._owned[0]).explain(query)
        info["estimate"] = self.estimate_cost(query).to_dict()
        return info

    def plan_stats(self) -> dict:
        """The plan counters summed over the currently-open shards
        (closed slots are skipped — this is a metrics read, not a reason
        to fault shards in).  ``space_builds`` is one per shard a
        positional query has executed on: each shard builds its own
        :class:`~repro.query.plan.PositionSpace`, lazily, once."""
        totals = super().plan_stats()
        with self._open_lock:
            open_stores = [s for s in self._stores if s is not None]
        for store in open_stores:
            for key, count in store.plan_stats().items():
                if isinstance(count, dict):
                    for name, n in count.items():
                        totals[key][name] += n
                else:
                    totals[key] += count
        return totals


def open_store(
    path: str | Path,
    pattern_cache_size: int = 1 << 16,
    postings_cache_size: int = 1 << 12,
    verify_checksums: bool = True,
) -> PatternStore | ShardedPatternStore:
    """Open a store path of either layout.

    A directory containing a shard manifest opens as a
    :class:`ShardedPatternStore`; anything else as a single-file
    :class:`~repro.serve.store.PatternStore`.  Serving code calls this
    and never needs to know which it got.
    """
    cls = ShardedPatternStore if is_sharded_store(path) else PatternStore
    return cls(
        path,
        pattern_cache_size=pattern_cache_size,
        postings_cache_size=postings_cache_size,
        verify_checksums=verify_checksums,
    )


__all__ = ["ShardedPatternStore", "open_store"]
