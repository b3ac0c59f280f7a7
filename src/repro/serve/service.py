"""Query service: result caching, batching and stats over a pattern backend.

Wraps any :class:`~repro.query.base.PatternSearchBase` (an in-memory
:class:`~repro.query.index.PatternIndex` or an on-disk
:class:`~repro.serve.store.PatternStore`) behind a small JSON-ready API.
Heavy query traffic is dominated by repeats — popular n-gram lookups,
dashboard refreshes — so full match lists land in a bounded LRU cache
keyed by the *normalized* query (the parsed token tuple: one entry
serves every ``limit``, both ``/query`` and ``/count``, and syntactic
variants like ``(a|b)`` vs ``(b|a)``), evicted least recently used
first, and the service keeps the counters a production deployment would
export: served queries, cache hit-rate, error count and cumulative
latency.  This is the only place the serving tier remembers an answer.

All entry points are thread-safe; the HTTP layer calls them from one
thread per request.  Nothing about a request lives on the service or on
its backend between calls: each entry point fixes a :class:`_Request`
(the backend it will use, the cache epoch that backend belongs to, a
batch's pre-fetched answers) and passes it down, and every backend read
comes back as one :class:`~repro.query.base.Answer`.

Fixing the backend also *leases* it: the service counts the readers of
every backend, and a backend replaced by :meth:`QueryService.swap_backend`
is closed by whoever drops its last lease — at once if nobody holds
one — so a generation lives exactly as long as its slowest request.
"""

from __future__ import annotations

import bisect
import contextlib
import threading
import time
from collections import OrderedDict
from typing import NamedTuple, Sequence

from repro.errors import (
    InvalidParameterError,
    QueryRejectedError,
    ReproError,
    StoreCorruptError,
)
from repro.query.base import PLUS, PatternSearchBase, QueryMatch
from repro.query.cost import COST_BUCKETS as _COST_BUCKETS
from repro.query.cost import CostEstimate
from repro.query.tokens import is_negation_only, normalize_query

DEFAULT_CACHE_SIZE = 1024
DEFAULT_LIMIT = 10
#: rendered matches retained per cache entry; aggregates always cover
#: the full result set, so broad queries don't pin it in memory.
#: Requests needing a longer prefix recompute instead of reading the
#: cache.  Read at call time.
MAX_CACHED_MATCHES = 1000

#: upper bucket bounds (seconds) of the request-latency histograms; the
#: implicit final bucket is +Inf.  Spread for an in-process index: most
#: answers are sub-millisecond cache hits, the tail is broad scans.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class LatencyHistogram:
    """Fixed-bucket histogram with Prometheus semantics.

    Buckets store per-range counts; :meth:`snapshot` cumulates them into
    the ``le``-labeled form scrapers expect.  Defaults to the latency
    bounds; the planner's cost histogram passes its own ``buckets``
    (work units, not seconds — the ``sum_seconds`` key name is kept so
    every consumer reads one snapshot shape).  Not thread-safe on its
    own — the owning service observes under its lock.
    """

    __slots__ = ("_buckets", "_counts", "_sum", "_total")

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self._buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._total = 0

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(self._buckets, seconds)
        if index < len(self._counts):
            self._counts[index] += 1
        # past the last bound the observation lands only in +Inf
        self._sum += seconds
        self._total += 1

    def snapshot(self) -> dict:
        """``{"buckets": [[le, cumulative_count], ...], "sum_seconds",
        "count"}`` — the +Inf bucket is ``count`` itself."""
        cumulative = 0
        buckets: list[list[float | int]] = []
        for bound, count in zip(self._buckets, self._counts):
            cumulative += count
            buckets.append([bound, cumulative])
        return {
            "buckets": buckets,
            "sum_seconds": round(self._sum, 6),
            "count": self._total,
        }


def _render(matches: Sequence[QueryMatch]) -> list[dict]:
    return [
        {"pattern": m.render(), "frequency": m.frequency} for m in matches
    ]


def _freshness(source) -> dict:
    """The freshness fields of an answer or a backend: its ingest
    watermark and, with it, its retention horizon; ``{}`` for anything
    never touched by ``lash ingest``."""
    watermark = getattr(source, "ingested_through", None)
    if watermark is None:
        return {}
    retained = getattr(source, "retained_from", None)
    if retained is None:
        return {"ingested_through": watermark}
    return {"ingested_through": watermark, "retained_from": retained}


def _close(backend) -> None:
    close = getattr(backend, "close", None)
    if close is not None:
        close()


def error_message(exc: ReproError) -> str:
    """Client-facing message; KeyError-derived errors (UnknownItemError)
    repr-quote their ``str()``, so prefer the raw argument."""
    if exc.args and isinstance(exc.args[0], str):
        return exc.args[0]
    return str(exc)


class _Request(NamedTuple):
    """Per-request facts, fixed once when the request enters."""

    #: every read of this request goes to this backend, whatever
    #: ``swap_backend`` does meanwhile
    backend: PatternSearchBase
    #: the cache epoch ``backend`` was current in: the request reads and
    #: writes the cache only while that still is the epoch
    epoch: int
    #: a batch's pre-fetched ``(tokens, min_freq) -> Answer | ReproError``
    parked: dict


class _Found(NamedTuple):
    """The limit-independent result set of one normalized query: what
    ``_search`` hands ``query``/``count`` and, minus ``matches``, what a
    cache entry holds."""

    #: the first :data:`MAX_CACHED_MATCHES` matches, rendered
    rendered: list[dict]
    count: int
    total: int
    tokens: tuple
    #: the canonical σ override (``0`` reads as ``None``)
    min_freq: int | None
    cost: float | None
    #: watermarks of the backend that produced the matches
    ingested_through: int | None
    retained_from: int | None
    partial: dict | None = None
    #: the raw match list, on the miss that computed it only — lets the
    #: caller serve beyond the rendered prefix without re-searching
    matches: list[QueryMatch] | None = None


class QueryService:
    """LRU-cached, instrumented façade over a pattern search backend.

    Parameters
    ----------
    backend:
        Any pattern search backend (index or store).
    cache_size:
        Maximum cached queries; 0 disables caching.
    max_cost:
        Admission ceiling in planner work units
        (:meth:`~repro.query.base.PatternSearchBase.estimate_cost`):
        a cache miss whose estimate exceeds it is refused with
        :class:`QueryRejectedError` (HTTP 429) before any search work
        runs.  ``None`` (the default) admits everything.  Cache *hits*
        always bypass admission — a cached answer costs nothing.  This
        ceiling is the only admission rule: an admitted query always
        gets its exact mined counts, and ``partial`` means only that a
        shard did not answer.
    """

    def __init__(
        self,
        backend: PatternSearchBase,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_cost: float | None = None,
    ) -> None:
        if cache_size < 0:
            raise InvalidParameterError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if max_cost is not None and max_cost <= 0:
            raise InvalidParameterError(
                f"max_cost must be > 0 or None, got {max_cost}"
            )
        self._backend = backend
        self._cache_size = cache_size
        self._max_cost = max_cost
        #: key -> entry, least recently used first
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._queries = 0
        self._cache_hits = 0
        self._errors = 0
        self._latency_s = 0.0
        self._rejected = 0
        self._cache_evictions = 0
        self._cost_hist = LatencyHistogram(buckets=_COST_BUCKETS)
        self._request_hists: dict[str, LatencyHistogram] = {}
        self._compaction: dict | None = None
        #: bumped by swap_backend; a result computed under an older
        #: epoch is never cached (it answered for a retired backend)
        self._epoch = 0
        #: id(backend) -> readers holding it (requests in flight, stats)
        self._leases: dict[int, int] = {}
        #: id -> backend replaced by a swap while still leased; the last
        #: reader to let go closes it
        self._outgoing: dict[int, PatternSearchBase] = {}

    @property
    def backend(self) -> PatternSearchBase:
        """The backend served right now, *not* leased: it may be closed
        by a swap at any moment.  Read through :meth:`lease` instead."""
        return self._backend

    def swap_backend(self, backend: PatternSearchBase) -> PatternSearchBase:
        """Atomically replace the served backend; returns the old one.

        The cache is dropped (its entries answered for the old pattern
        set) while the serving counters continue.  The old backend now
        belongs to the service: a request that leased it before the swap
        keeps reading it, and whoever drops its last lease closes it —
        the swap itself when nobody holds one.  The caller must not use
        the returned backend.
        """
        with self._lock:
            old = self._backend
            self._backend = backend
            self._cache.clear()
            self._epoch += 1
            # swapping a still-leased backend back in revives it
            self._outgoing.pop(id(backend), None)
            if old is backend:
                return old
            if self._leases.get(id(old)):
                self._outgoing[id(old)] = old
                return old
        _close(old)
        return old

    @contextlib.contextmanager
    def lease(self):
        """The served backend, held open until the block exits even if a
        swap replaces it meanwhile."""
        backend = self._context().backend
        try:
            yield backend
        finally:
            self._release(backend)

    def _release(self, backend: PatternSearchBase) -> None:
        with self._lock:
            key = id(backend)
            left = self._leases[key] - 1
            if left:
                self._leases[key] = left
                return
            del self._leases[key]
            if self._outgoing.pop(key, None) is None:
                return
        _close(backend)

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        """Record one request's wall time into the endpoint's histogram
        (the HTTP layer calls this for every tracked request, errors
        included)."""
        with self._lock:
            hist = self._request_hists.get(endpoint)
            if hist is None:
                hist = self._request_hists[endpoint] = LatencyHistogram()
            hist.observe(seconds)

    def note_compaction(self, info: dict) -> None:
        """Publish background-compaction progress into ``/stats``."""
        with self._lock:
            self._compaction = dict(info)

    # ------------------------------------------------------------------
    # query API — every method returns a JSON-serializable dict
    # ------------------------------------------------------------------

    def query(
        self,
        query: str,
        limit: int | None = DEFAULT_LIMIT,
        min_freq: int | None = None,
    ) -> dict:
        """Ranked matches plus match count and total frequency mass.

        ``limit=None`` returns every match; otherwise ``limit >= 1``.
        ``min_freq`` is the per-query σ override: only patterns with
        mined frequency ≥ it are matched, counted and massed (the
        filter runs server-side, before ``limit``).
        """
        ctx = self._context()
        try:
            return self._query(ctx, query, limit, min_freq)
        finally:
            self._release(ctx.backend)

    def _query(
        self,
        ctx: _Request,
        query: str,
        limit: int | None,
        min_freq: int | None,
    ) -> dict:
        if limit is not None and limit < 1:
            self._reject(f"limit must be >= 1 or null, got {limit}")
        found = self._search(ctx, query, min_freq)
        wanted = found.count if limit is None else min(limit, found.count)
        if wanted <= len(found.rendered):
            shown = found.rendered[:wanted]
        elif found.matches is not None:
            # a miss just computed the full match list; render the part
            # beyond the cached prefix from it instead of re-searching
            shown = _render(found.matches[:wanted])
        else:
            # hit on a capped entry that can't cover the request: one
            # full re-search, latency-accounted and not a cache hit
            start = time.perf_counter()
            answer = ctx.backend.search_answer(
                found.tokens, limit=limit, min_freq=found.min_freq
            )
            shown = _render(answer.matches)
            found = found._replace(partial=answer.partial)
            with self._lock:
                self._latency_s += time.perf_counter() - start
                self._cache_hits -= 1
        return self._annotate(
            {
                "query": query,
                "matches": shown,
                "count": found.count,
                "total_frequency": found.total,
                "truncated": found.count > len(shown),
            },
            found,
        )

    def count(self, query: str, min_freq: int | None = None) -> dict:
        """Match count and frequency mass only (no result list)."""
        ctx = self._context()
        try:
            found = self._search(ctx, query, min_freq)
        finally:
            self._release(ctx.backend)
        return self._annotate(
            {
                "query": query,
                "count": found.count,
                "total_frequency": found.total,
            },
            found,
        )

    @staticmethod
    def _annotate(result: dict, found: _Found) -> dict:
        """The optional tail ``/query`` and ``/count`` responses share.
        The freshness bound is the watermark of the backend that
        produced the matches (a cache entry lives exactly as long as
        its backend is the served one), never re-read from whatever
        backend is live by the time the response is built."""
        if found.min_freq is not None:
            result["min_freq"] = found.min_freq
        if found.partial is not None:
            result["partial"] = found.partial
        if found.cost is not None:
            result["estimated_cost"] = round(found.cost, 1)
        result.update(_freshness(found))
        return result

    def topk(self, n: int = DEFAULT_LIMIT) -> dict:
        """The ``n`` globally most frequent patterns (``n >= 1``): the
        ``+`` search cut at ``n``.

        ``n`` is clamped to :data:`MAX_CACHED_MATCHES` so one request cannot
        render (and cache) the entire store; the response's ``k`` is the
        clamped value.
        """
        if isinstance(n, bool) or not isinstance(n, int):
            # bool subclasses int: topk(True) would silently mean n=1
            # and poison the ("topk", "", 1) cache key for real callers
            self._reject(f"n must be an integer, got {n!r}")
        if n < 1:
            self._reject(f"n must be >= 1, got {n}")
        n = min(n, MAX_CACHED_MATCHES)
        ctx = self._context()

        def compute():
            # a search, but not one admission prices: top-k is cut at
            # ``n`` however many patterns ``+`` matches
            answer = ctx.backend.search_answer(PLUS, limit=n)
            value = {"k": n, "matches": _render(answer.matches)}
            if answer.partial is not None:
                return {**value, "partial": answer.partial}, None
            return value, value

        try:
            return self._cached(ctx, ("topk", "", n), compute)
        finally:
            self._release(ctx.backend)

    def _search(
        self, ctx: _Request, query: str, min_freq: int | None
    ) -> _Found:
        """The full (limit-independent) result set of ``query``.

        The cache is keyed on the *normalized token tuple* plus the
        canonical σ override (:meth:`_parse`), so syntactic variants —
        extra whitespace, reordered disjunction alternatives like
        ``(a|b)``/``(b|a)``, collapsed gap runs, a no-op ``min_freq=0``
        — share one entry.  One entry per (normalized query, σ) pair
        serves every limit and both ``/query`` and ``/count``, with
        aggregates precomputed so cache hits cost O(limit), not
        O(matches).  Only the first :data:`MAX_CACHED_MATCHES` rendered
        matches are retained (bounding memory on broad queries).
        """
        try:
            tokens, min_freq = self._parse(query, min_freq)
        except ReproError:
            # rejections before the search are served-and-errored
            # requests, exactly like those raised inside the backend
            with self._lock:
                self._queries += 1
                self._errors += 1
            raise

        def compute():
            # admission runs only on misses: a cached answer is free, so
            # repeats of an expensive query bypass the gate by design;
            # the estimate (and its plans) goes to the search and no
            # further — the response keeps the answer's cost, a float
            estimate = self._admit(ctx, tokens)
            answer = ctx.parked.pop((tokens, min_freq), None)
            if answer is None:
                answer = ctx.backend.search_answer(
                    tokens, min_freq=min_freq, cost=estimate
                )
            elif isinstance(answer, ReproError):
                raise answer
            if estimate is None and answer.cost is not None:
                # not priced in advance: observe the search's own price
                with self._lock:
                    self._cost_hist.observe(answer.cost)
            matches = answer.matches
            found = _Found(
                _render(matches[:MAX_CACHED_MATCHES]),
                len(matches),
                sum(m.frequency for m in matches),
                tokens,
                min_freq,
                answer.cost,
                answer.ingested_through,
                answer.retained_from,
                answer.partial,
                matches,
            )
            # a degraded answer (shard set unreachable mid-query) must
            # not be served from cache after the cluster heals
            entry = (
                found._replace(matches=None) if answer.partial is None
                else None
            )
            return found, entry

        return self._cached(ctx, ("search", tokens, min_freq), compute)

    @staticmethod
    def _parse(query: str, min_freq: int | None) -> tuple[tuple, int | None]:
        """``(normalized tokens, canonical σ)`` — the two halves of the
        cache key — or the :class:`ReproError` the request earns.

        All-negative queries (``!a ?`` — a negation with no positive
        token) are rejected here: with no postings to prune on they
        would scan most of the store per request.
        """
        if min_freq is not None and (
            not isinstance(min_freq, int)
            or isinstance(min_freq, bool)
            or min_freq < 0
        ):
            raise InvalidParameterError(
                f"min_freq must be an integer >= 0 or null, got {min_freq!r}"
            )
        if min_freq == 0:
            min_freq = None  # frequencies are >= 0: σ=0 admits everything
        tokens = normalize_query(query)
        if is_negation_only(tokens):
            raise InvalidParameterError(
                "all-negative queries are not served (no positive token "
                "to select candidates by); add at least one item, "
                "'^name', disjunction or floored token"
            )
        return tokens, min_freq

    def batch(
        self,
        queries: Sequence[str],
        limit: int | None = DEFAULT_LIMIT,
        min_freq: int | None = None,
    ) -> list[dict]:
        """Answer many queries in one call (shares the cache per query).

        ``min_freq`` applies to every query of the batch.  One bad
        query does not poison the batch: its entry carries an
        ``error`` field while the other answers come back intact.  A
        corrupt store is not a per-query problem, though — that one
        propagates so the HTTP layer can answer 503 for the whole batch.

        The batch's cache-missing queries first go to the backend's
        ``prefetch`` — against the distributed router that is one
        batched scatter, a single ``search`` frame per server —
        and the per-query loop below consumes the answers it returned.
        The answers are identical either way; only the number of wire
        round trips changes.
        """
        ctx = self._context()
        try:
            ctx.parked.update(
                ctx.backend.prefetch(self._uncached_pairs(queries, min_freq))
            )
            results: list[dict] = []
            for query in queries:
                try:
                    results.append(self._query(ctx, query, limit, min_freq))
                except StoreCorruptError:
                    raise
                except ReproError as exc:
                    results.append(
                        {"query": query, "error": error_message(exc)}
                    )
            return results
        finally:
            self._release(ctx.backend)

    def _uncached_pairs(self, queries: Sequence[str], min_freq: int | None):
        """The ``(tokens, σ)`` pairs of a batch that the cache cannot
        answer, lazily — a backend that batches nothing never pays for
        the parse.  Queries that fail to parse are skipped here; the
        per-query loop reports their errors."""
        for query in queries:
            try:
                pair = self._parse(query, min_freq)
            except ReproError:
                continue
            with self._lock:
                if ("search", *pair) in self._cache:
                    continue  # a hit never touches the wire anyway
            yield pair

    def stats(self) -> dict:
        """Service counters; ``patterns`` comes from the backend header.

        Backends exposing ``describe()`` (the on-disk stores) contribute
        a ``store`` entry — for a sharded store that includes the
        per-shard breakdown, so ``/stats`` shows where the bytes and
        patterns live.
        """
        with self.lease() as backend:
            return self._stats(backend)

    def _stats(self, backend: PatternSearchBase) -> dict:
        # not under the lock: a router's length can be a status round
        # trip per server, and every request — hits included — takes
        # the lock
        patterns = len(backend)
        with self._lock:
            queries = self._queries
            hits = self._cache_hits
            stats = {
                "patterns": patterns,
                "queries": queries,
                "cache_hits": hits,
                "cache_hit_rate": round(hits / queries, 4) if queries else 0.0,
                "cache_entries": len(self._cache),
                "cache_size": self._cache_size,
                "cache_evictions": self._cache_evictions,
                "errors": self._errors,
                "total_latency_ms": round(1000 * self._latency_s, 3),
            }
            stats["admission"] = {
                "max_cost": self._max_cost,
                "rejected": self._rejected,
                "cost": self._cost_hist.snapshot(),
            }
            stats["avg_latency_ms"] = (
                round(stats["total_latency_ms"] / queries, 3) if queries
                else 0.0
            )
            if self._request_hists:
                stats["request_latency"] = {
                    endpoint: hist.snapshot()
                    for endpoint, hist in sorted(self._request_hists.items())
                }
            if self._compaction is not None:
                stats["compaction"] = {
                    **self._compaction,
                    "retired_open": len(self._outgoing),
                }
        describe = getattr(backend, "describe", None)
        if describe is not None:
            stats["store"] = describe()
        freshness = _freshness(backend)
        if freshness:
            stats["freshness"] = freshness
        plan_stats = getattr(backend, "plan_stats", None)
        if plan_stats is not None:
            # plan-build + execution-path counters, under the key the
            # benchmark suite reads (the router backend is not a
            # PatternSearchBase and has none; its shard servers each
            # report their own)
            stats["plan_cache"] = plan_stats()
        return stats

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _reject(self, message: str) -> None:
        """Validation failures count as served-and-errored requests so
        ``/stats`` reflects them like any other client error."""
        with self._lock:
            self._queries += 1
            self._errors += 1
        raise InvalidParameterError(message)

    def _context(self) -> _Request:
        """The request's backend, leased (the caller releases it in
        ``finally``), and the epoch it is current in."""
        with self._lock:
            backend = self._backend
            self._leases[id(backend)] = self._leases.get(id(backend), 0) + 1
            return _Request(backend, self._epoch, {})

    def _admit(self, ctx: _Request, tokens) -> CostEstimate | None:
        """The pre-flight, when a ceiling is set: price the query, record
        the cost in the cost histogram, and raise
        :class:`QueryRejectedError` when it crosses ``max_cost`` (inside
        the cache-miss compute, so a rejection can never be cached).
        Returns the estimate, whose plans the search then runs —
        ``None`` with no ceiling set or when the backend cannot estimate
        (e.g. no shard server reachable)."""
        if self._max_cost is None:
            return None
        estimate = ctx.backend.estimate_cost(tokens)
        if estimate is None:
            return None
        cost = estimate.cost
        with self._lock:
            self._cost_hist.observe(cost)
        if cost > self._max_cost:
            with self._lock:
                self._rejected += 1
            raise QueryRejectedError(
                f"query rejected: estimated cost {round(cost)} exceeds "
                f"ceiling {round(self._max_cost)}",
                estimated_cost=cost,
                max_cost=self._max_cost,
            )
        return estimate

    def _cached(self, ctx: _Request, key: tuple, compute):
        """The cached entry for ``key``, else what ``compute`` makes of
        it, with LRU bookkeeping.

        ``compute()`` returns ``(value, entry)``: the value to hand
        back now and the entry later hits get — ``None`` keeps a
        degraded (partial) answer out of the cache while still serving
        it.  Past ``cache_size`` the least recently used entry goes.

        A request that began under an older epoch (``swap_backend``
        ran since) answers for a retired backend: it neither reads the
        new generation's entries nor inserts its own — that would undo
        the swap's clear and serve stale results indefinitely.
        """
        with self._lock:
            self._queries += 1
            cached = (
                self._cache.get(key) if ctx.epoch == self._epoch else None
            )
            if cached is not None:
                self._cache_hits += 1
                self._cache.move_to_end(key)
                return cached
        start = time.perf_counter()
        try:
            value, entry = compute()
        except ReproError:
            with self._lock:
                self._errors += 1
            raise
        elapsed = time.perf_counter() - start
        with self._lock:
            self._latency_s += elapsed
            if (
                self._cache_size
                and entry is not None
                and ctx.epoch == self._epoch
            ):
                self._cache[key] = entry
                self._cache.move_to_end(key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
                    self._cache_evictions += 1
        return value


__all__ = [
    "QueryService",
    "LatencyHistogram",
    "error_message",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_LIMIT",
    "MAX_CACHED_MATCHES",
    "LATENCY_BUCKETS",
]
