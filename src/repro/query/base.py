"""Backend-agnostic wildcard search over a set of mined patterns.

:class:`PatternSearchBase` holds everything about *matching* — query
compilation, hierarchy descendant expansion, planning and executing a
:class:`~repro.query.plan.QueryPlan` — and leaves *storage* to
subclasses.
Two backends implement it:

* :class:`~repro.query.index.PatternIndex` — everything in memory, built
  directly from a mining result;
* :class:`~repro.serve.store.PatternStore` — a compact on-disk binary
  file, loaded lazily section by section.

Because both run the identical compiled matcher over the identical
candidate sets, their answers are byte-for-byte the same; the tests
assert this on randomized pattern sets.

A subclass provides the storage primitives:

``_vocabulary_instance()``
    The :class:`~repro.hierarchy.vocabulary.Vocabulary` the patterns are
    coded against (may be loaded lazily).
``_num_patterns()``
    Number of stored patterns.
``_pattern_at(idx)``
    ``(coded_pattern, frequency)`` of the pattern at ``idx``.  Index
    order is frequency-descending, ties by coded pattern ascending, so
    ascending indexes enumerate "most frequent first".
``_postings_for(item_id)``
    Ascending indexes of patterns containing the item.
``_positional_postings_for(item_id)``
    Those indexes plus, in parallel, the positions the item occupies
    inside each pattern.
``_length_groups()``
    Mapping ``pattern length -> ascending indexes``.

There is one read path: every public read — ``search``, ``count``,
``top``, exact ``frequency``/``in`` lookups and hierarchy navigation —
is a query of the language, answered by
:meth:`~PatternSearchBase.search_answer` (``top(n)`` is ``+`` cut at
``n``; an exact lookup is one item token per item; navigation is one
``^name`` or ancestor disjunction per item).  Matching records stream
in rank order from :meth:`~PatternSearchBase._iter_search`, so a
composite backend —
:class:`~repro.serve.sharded.ShardedPatternStore` — answers by k-way
merging the streams of its member stores without re-implementing any
of the matching or ranking logic.

Search itself runs through a :class:`~repro.query.plan.QueryPlan`
built, priced and executed per request.  There is one matcher: a query
with no chain node is a length-range scan, and every other query is
answered exactly by positional propagation over a candidate mask (see
:mod:`repro.query.plan`).  Nothing about a query outlives the call that
answers it (repeats are the serving tier's result cache's job); what a
backend memoizes is vocabulary- or store-pure and keyed by nothing a
client chooses: descendant sets (at most one per vocabulary item),
planner statistics (the length histogram and one postings sum per
subtree root), the position space.  A token is compiled by the request
that sent it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import islice, takewhile
from typing import Iterable, Iterator, Sequence

from repro.errors import InvalidParameterError, UnknownItemError
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.cost import CostEstimate, CostEstimator, combine_estimates
from repro.query.plan import PositionSpace, QueryPlan
from repro.query.tokens import (
    AnyToken,
    FloorToken,
    GapToken,
    ItemToken,
    NotToken,
    OneOfToken,
    PlusToken,
    QueryToken,
    SpanToken,
    UnderToken,
    normalize_query,
)

Pattern = tuple[int, ...]

#: the query every stored pattern matches, in rank order: ``top(n)`` is
#: this cut at ``n``
PLUS = (PlusToken(),)

#: one compiled query token: ``(kind, payload)``.  ``kind`` is one of
#: ``item``/``under`` (payload: item id), ``any``/``plus``/``span``
#: (payload: -1), ``oneof`` (payload: frozenset of admissible item
#: ids — disjunctions and frequency floors both lower to this form),
#: ``notin`` (payload: frozenset of *excluded* item ids — negations
#: lower to this complement test), or ``gap`` (payload: ``(m, n)``
#: consumption bounds, ``n=None`` unbounded).
CompiledToken = tuple[str, "int | frozenset[int] | tuple"]


def rank_key(record: tuple[Pattern, int]) -> tuple[int, Pattern]:
    """Sort key of the canonical index order for one ``(pattern, freq)``
    record.  Shared by :func:`rank_patterns` and the sharded store's
    k-way merge, so a merged stream interleaves exactly as a single
    backend would have ranked the union."""
    return (-record[1], record[0])


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def ranked_prefix(
    stream: Iterable[tuple[Pattern, int]],
    limit: int | None = None,
    min_freq: int | None = None,
) -> Iterator[tuple[Pattern, int]]:
    """The σ cut and the limit over a rank-ordered record stream.
    Frequencies only fall along the stream, so ``min_freq`` is a prefix
    cut — the first record below it ends the answer — and ``limit``
    stops the walk without pulling a record past the last one kept.

    Every search path — a local search, a shard server's partial one —
    cuts here, so both values are checked here, before the stream is
    pulled: ``limit`` an integer (a negative one keeps nothing) or
    ``None``, ``min_freq`` an integer >= 0 or ``None``."""
    if limit is not None and not _is_int(limit):
        raise InvalidParameterError(
            f"limit must be an integer or None, got {limit!r}"
        )
    if min_freq is not None and (not _is_int(min_freq) or min_freq < 0):
        raise InvalidParameterError(
            f"min_freq must be an integer >= 0 or None, got {min_freq!r}"
        )
    if min_freq is not None:
        stream = takewhile(lambda record: record[1] >= min_freq, stream)
    return islice(stream, None if limit is None else max(limit, 0))


def rank_patterns(patterns) -> list[tuple[Pattern, int]]:
    """The canonical index order every backend stores patterns in: most
    frequent first, ties by coded pattern ascending.  Both
    :class:`~repro.query.index.PatternIndex` and the on-disk store sort
    with this one function — their ranked answers are identical because
    the order is shared, not merely repeated."""
    return sorted(patterns.items(), key=rank_key)


@dataclass(frozen=True)
class QueryMatch:
    """One search hit: the decoded pattern and its mined frequency."""

    pattern: tuple[str, ...]
    frequency: int

    def render(self) -> str:
        return " ".join(self.pattern)

    def __repr__(self) -> str:
        return f"QueryMatch({self.render()!r}, {self.frequency})"


@dataclass(frozen=True)
class Answer:
    """One backend read with the per-request facts that belong to it:
    ``partial`` is the degradation info of the fan-out that produced it
    (``None`` when complete; only the distributed router can answer
    partially), the watermarks are those of the backend that produced
    ``matches`` — so a response cannot be stamped from a different
    generation than the one that answered — and ``cost`` is the summed
    planner price of the plans that produced them."""

    matches: list[QueryMatch]
    partial: dict | None = None
    ingested_through: int | None = None
    retained_from: int | None = None
    cost: float | None = None


class PatternSearchBase:
    """Shared matching engine over any pattern storage backend."""

    #: freshness watermarks of the generation this backend serves;
    #: ``None`` on anything never touched by ``lash ingest``
    ingested_through: int | None = None
    retained_from: int | None = None

    def __init__(self) -> None:
        self._descendants_cache: dict[int, tuple[int, ...]] = {}
        self._descendants_lock = threading.Lock()
        # planner-statistics memo (the length histogram, postings sums
        # per subtree root): per backend, never invalidated — a backend
        # instance is an immutable snapshot of one store
        self._cost_stat_cache: dict[tuple, object] = {}
        # plan counters (plans themselves live for one request)
        self._plan_lock = threading.Lock()
        self._plan_compiles = 0
        self._plan_paths = {"exact": 0, "wildcard": 0}
        self._plan_sources = {"postings": 0, "candidates": 0}
        # built by the first positional query; the counter feeds
        # plan_stats() so tests can pin "built exactly once"
        self._pos_space = None
        self._space_builds = 0

    # ------------------------------------------------------------------
    # storage primitives (subclass responsibility)
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        raise NotImplementedError

    def _num_patterns(self) -> int:
        raise NotImplementedError

    def _pattern_at(self, idx: int) -> tuple[Pattern, int]:
        raise NotImplementedError

    def _postings_for(self, item_id: int) -> Sequence[int]:
        raise NotImplementedError

    def _length_groups(self) -> dict[int, Sequence[int]]:
        raise NotImplementedError

    def _positional_postings_for(
        self, item_id: int
    ) -> tuple[Sequence[int], Sequence[tuple[int, ...]]]:
        """Parallel ``(pattern indexes, per-pattern position tuples)``
        for one item."""
        raise NotImplementedError

    def _postings_size_estimate(self, item_id: int) -> int:
        """Estimated postings-list length for one item — the planner's
        per-node cost statistic.  The default reads the true length
        (O(1) for in-memory backends); on-disk stores override it with
        a byte-range estimate that never decodes a postings list."""
        return len(self._postings_for(item_id))

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary_instance()

    def __len__(self) -> int:
        return self._num_patterns()

    def __iter__(self) -> Iterator[QueryMatch]:
        vocabulary = self.vocabulary
        for pattern, frequency in self._iter_ranked():
            yield QueryMatch(vocabulary.decode_sequence(pattern), frequency)

    def __contains__(self, names: object) -> bool:
        return bool(self._exact(names))

    def frequency(self, *names: str) -> int:
        """Mined frequency of an exact pattern; 0 when absent."""
        found = self._exact(names)
        return found[0].frequency if found else 0

    def _exact(self, names) -> list[QueryMatch]:
        """The stored pattern spelled exactly ``names`` — one item token
        per item — or nothing for an absent, empty or unknown pattern
        (membership and frequency stay distinct: a stored frequency-0
        pattern is still a member)."""
        try:
            tokens = tuple(ItemToken(name) for name in names)
            return self.search(tokens, limit=1) if tokens else []
        except (TypeError, UnknownItemError):
            return []

    def top(self, n: int = 10) -> list[QueryMatch]:
        """The ``n`` most frequent patterns in the index: ``+`` cut at
        ``n``."""
        return self.search(PLUS, limit=n)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self,
        query: str | QueryToken | tuple | list,
        limit: int | None = None,
        min_freq: int | None = None,
    ) -> list[QueryMatch]:
        """All indexed patterns matching the query, most frequent first.

        ``query`` is a string in the wildcard syntax or a sequence of
        :class:`~repro.query.tokens.QueryToken`.  Unknown item names raise
        :class:`~repro.errors.UnknownItemError`.

        ``min_freq`` is the per-query σ override: only patterns whose
        *mined frequency* clears it are returned.  It is orthogonal to
        ``token@N`` floors (those bound an item's corpus frequency) and
        composes with them.  Because results stream in frequency-
        descending rank order, the filter is a prefix cut — iteration
        stops at the first pattern below the floor.
        """
        return self.search_answer(query, limit, min_freq).matches

    # the serving tier's read: the same answer as ``search``, as an
    # :class:`Answer`.  A local backend always answers completely and
    # stamps its own watermarks.

    def search_answer(
        self,
        query,
        limit: int | None = None,
        min_freq: int | None = None,
        cost: CostEstimate | None = None,
    ) -> Answer:
        """``cost`` is what :meth:`estimate_cost` returned for this
        query, if the caller priced it first: the plans it carries for
        this backend are executed instead of built again.  The answer's
        ``cost`` is the price of the plans that ran, priced or not."""
        compiled = self._compile(normalize_query(query))
        cost = self._priced(compiled, cost)
        vocabulary = self.vocabulary
        matches = [
            QueryMatch(vocabulary.decode_sequence(pattern), frequency)
            for pattern, frequency in ranked_prefix(
                self._iter_search(cost.plans), limit, min_freq
            )
        ]
        return Answer(
            matches, None, self.ingested_through, self.retained_from,
            cost.cost,
        )

    def prefetch(self, pairs) -> dict:
        """Answers fetched ahead for an iterable of ``(tokens,
        min_freq)`` pairs, keyed by pair; a local backend has nothing
        to gain from batching, so it neither reads ``pairs`` nor parks
        anything."""
        return {}

    def count(self, query, min_freq: int | None = None) -> int:
        """Number of indexed patterns matching the query."""
        return len(self.search(query, min_freq=min_freq))

    def total_frequency(self, query, min_freq: int | None = None) -> int:
        """Sum of frequencies over all matches (n-gram-viewer style mass)."""
        return sum(
            match.frequency for match in self.search(query, min_freq=min_freq)
        )

    def slot_fillers(
        self, query, slot: int
    ) -> list[tuple[str, int]]:
        """Aggregate the items filling one wildcard slot of a fixed-length
        query, with their total frequency (most frequent first).

        Only queries without ``*``/``+`` have an unambiguous alignment, so
        span tokens are rejected.  Typical use: *which items appear after
        "NOUN lives in"?* → ``slot_fillers("NOUN lives in ?", 3)``.
        """
        tokens = normalize_query(query)
        if any(
            isinstance(t, (SpanToken, PlusToken, GapToken)) for t in tokens
        ):
            raise InvalidParameterError(
                "slot_fillers requires a fixed-length query "
                "(no '*'/'+'/'*{m,n}')"
            )
        if not 0 <= slot < len(tokens):
            raise InvalidParameterError(
                f"slot {slot} out of range for a {len(tokens)}-token query"
            )
        fillers: dict[str, int] = {}
        for match in self.search(tokens):
            name = match.pattern[slot]
            fillers[name] = fillers.get(name, 0) + match.frequency
        return sorted(fillers.items(), key=lambda kv: (-kv[1], kv[0]))

    # ------------------------------------------------------------------
    # hierarchy navigation
    # ------------------------------------------------------------------

    def generalizations_of(self, names) -> list[QueryMatch]:
        """Indexed patterns that are itemwise generalizations of ``names``
        (same length, each item an ancestor-or-self), including the pattern
        itself when indexed: one disjunction of each item's
        ancestors-or-self per item."""
        vocabulary = self.vocabulary
        return self._itemwise(
            OneOfToken(tuple(
                ItemToken(vocabulary.name(ancestor))
                for ancestor in vocabulary.ancestors_or_self(
                    vocabulary.id(name)
                )
            ))
            for name in names
        )

    def specializations_of(self, names) -> list[QueryMatch]:
        """Indexed patterns that are itemwise specializations of ``names``
        (same length, each item a descendant-or-self), including the
        pattern itself when indexed: one ``^name`` per item."""
        return self._itemwise(UnderToken(name) for name in names)

    def _itemwise(self, tokens) -> list[QueryMatch]:
        tokens = tuple(tokens)
        return self.search(tokens) if tokens else []

    # ------------------------------------------------------------------
    # rank-ordered streams (composite backends merge these)
    # ------------------------------------------------------------------

    def _iter_ranked(self) -> Iterator[tuple[Pattern, int]]:
        """All ``(pattern, frequency)`` records, most frequent first
        (ties by coded pattern): the backend's native index order."""
        for idx in range(self._num_patterns()):
            yield self._pattern_at(idx)

    def _iter_search(self, plans: dict) -> Iterator[tuple[Pattern, int]]:
        """Records matching a query, in rank order.  ``plans`` is the
        :attr:`CostEstimate.plans` map of :meth:`_priced`: this backend
        runs its own entry.

        Three cases: an unsatisfiable query matches nothing; a query
        with no chain node (wildcards and gaps only) is a pure
        length-range scan, streamed lazily so ``top(n)`` decodes ``n``
        records; every other query is answered exactly by positional
        propagation (:meth:`QueryPlan.match_indexes`).  Both yield
        ascending pattern indexes — the rank order.
        """
        plan = plans[self]
        if plan.unsatisfiable:
            return
        if plan.chain:
            self._count_path("exact")
            indexes = plan.match_indexes(self)
        else:
            self._count_path("wildcard")
            indexes = plan.length_scan_indexes(self)
        for idx in indexes:
            yield self._pattern_at(idx)

    # ------------------------------------------------------------------
    # compiled query plans
    # ------------------------------------------------------------------

    def _price(self, compiled: list[CompiledToken]) -> CostEstimate:
        """Build this request's :class:`~repro.query.plan.QueryPlan` and
        price it: one construction, one estimate.  The estimate carries
        the plan under this backend's key, so whoever receives it can
        hand it on to the execution."""
        plan = QueryPlan(compiled, self)
        with self._plan_lock:
            self._plan_compiles += 1
        estimate = CostEstimator(self).estimate(plan)
        return replace(estimate, plans={self: plan})

    def _priced(
        self, compiled: list[CompiledToken], cost: CostEstimate | None = None
    ) -> CostEstimate:
        """The estimate whose plans (one per shard, summed in shard
        order) a search runs: ``cost`` when it priced every shard of
        this backend, else a fresh pricing — an estimate made for
        another generation is never executed."""
        shards = self._shards()
        if cost is not None and all(shard in cost.plans for shard in shards):
            return cost
        return combine_estimates(shard._price(compiled) for shard in shards)

    def _shards(self) -> list:
        """The store files a search runs one plan on each: a plain
        backend is its own single shard."""
        return [self]

    def _count_path(self, path: str) -> None:
        with self._plan_lock:
            self._plan_paths[path] += 1

    def _count_source(self, source: str) -> None:
        with self._plan_lock:
            self._plan_sources[source] += 1

    def estimate_cost(self, query) -> CostEstimate:
        """The cost estimate for a query against this backend — the
        admission-control currency (see :mod:`repro.query.cost`).  Hand
        it to :meth:`search_answer` to run the plan it priced."""
        return self._priced(self._compile(normalize_query(query)))

    def explain(self, query) -> dict:
        """The compiled plan and its cost estimate, for ``lash query
        --explain`` and debugging: chain shape, windows, length bounds,
        the path that runs, and the full per-node estimate with each
        node's expected map source."""
        estimate = self.estimate_cost(query)
        plan = estimate.plans[self]
        return {
            "chain": [
                {"kind": kind, "ids": len(ids)} for kind, ids in plan.chain
            ],
            "windows": [list(window) for window in plan.windows],
            "min_len": plan.min_len,
            "max_len": plan.max_len,
            "unsatisfiable": plan.unsatisfiable,
            "strategy": estimate.strategy,
            "estimate": estimate.to_dict(),
        }

    def plan_stats(self) -> dict:
        """Plans built, position spaces built, executions per path and
        node slot maps per source (surfaced by the HTTP service's
        ``/stats``)."""
        with self._plan_lock:
            return {
                "compiles": self._plan_compiles,
                "space_builds": self._space_builds,
                "paths": dict(self._plan_paths),
                "sources": dict(self._plan_sources),
            }

    def _pattern_lengths(self) -> list[int]:
        """Length of every stored pattern, indexed by pattern index
        (derived from the length groups — no pattern decoding)."""
        lengths = [0] * self._num_patterns()
        for length, idxs in self._length_groups().items():
            for idx in idxs:
                lengths[idx] = length
        return lengths

    def _position_space(self):
        """The lazily-built positional coordinate system shared by every
        plan over this backend."""
        space = self._pos_space
        if space is None:
            with self._plan_lock:
                space = self._pos_space
                if space is None:
                    space = PositionSpace(self._pattern_lengths())
                    self._space_builds += 1
                    self._pos_space = space
        return space

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _descendants_or_self(self, item_id: int) -> tuple[int, ...]:
        # lock-free fast path; build-and-insert under the lock so the
        # caches stay consistent across concurrent server threads
        cached = self._descendants_cache.get(item_id)
        if cached is not None:
            return cached
        with self._descendants_lock:
            cached = self._descendants_cache.get(item_id)
            if cached is not None:
                return cached
            child_ids = self.vocabulary.child_ids
            seen: set[int] = set()
            stack = [item_id]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(child_ids(current))
            result = tuple(sorted(seen))
            self._descendants_cache[item_id] = result
            return result

    def _compile(
        self, tokens: tuple[QueryToken, ...]
    ) -> list[CompiledToken]:
        """Resolve item names to ids once, validating the whole query
        upfront.  Compiled form: :data:`CompiledToken` pairs.

        Disjunctions expand to the union of their choices' id sets
        (``^name`` choices pull in the whole subtree) and frequency
        floors intersect the inner token's id set with the items whose
        corpus frequency clears the floor — so by the time matching
        runs, both token kinds are plain ``oneof`` id-set tests.
        Negations expand the *same* id set but compile to ``notin``
        (the complement test), keeping the excluded set small instead
        of materializing near-the-whole-vocabulary admissible sets.
        The id sets derive only from the vocabulary, so the compiled
        query stays portable across shards sharing that vocabulary.
        """
        vocabulary = self.vocabulary
        return [self._compile_token(token, vocabulary) for token in tokens]

    def _admissible_ids(
        self, token: QueryToken, vocabulary: Vocabulary
    ) -> frozenset[int]:
        """Id set an item/``^name``/disjunction token admits."""
        if isinstance(token, UnderToken):
            return frozenset(
                self._descendants_or_self(vocabulary.id(token.name))
            )
        if isinstance(token, ItemToken):
            return frozenset((vocabulary.id(token.name),))
        union: set[int] = set()
        for choice in token.choices:
            union.update(self._admissible_ids(choice, vocabulary))
        return frozenset(union)

    def _hoist_oneof(self, ids: frozenset[int]) -> CompiledToken:
        """Collapse an admissible id set to a cheaper token when its
        structure allows: a singleton is a plain ``item`` test, and a
        set covering exactly one hierarchy subtree is an ``under`` test
        rooted at its minimum id (ancestors always carry smaller ids
        than their descendants, so the root of any covered subtree must
        be the set's minimum).  Both rewrites give plans a smaller
        chain node, and a subtree's postings sum is memoized per root
        instead of summed per request; the admitted items are identical
        by construction."""
        if not ids:
            return ("oneof", ids)
        root = min(ids)
        if len(ids) == 1:
            return ("item", root)
        subtree = self._descendants_or_self(root)
        if len(subtree) == len(ids) and all(item in ids for item in subtree):
            return ("under", root)
        return ("oneof", ids)

    def _compile_token(
        self, token: QueryToken, vocabulary: Vocabulary
    ) -> CompiledToken:
        if isinstance(token, ItemToken):
            return ("item", vocabulary.id(token.name))
        if isinstance(token, UnderToken):
            return ("under", vocabulary.id(token.name))
        if isinstance(token, AnyToken):
            return ("any", -1)
        if isinstance(token, PlusToken):
            return ("plus", -1)
        if isinstance(token, SpanToken):
            return ("span", -1)
        if isinstance(token, GapToken):
            return ("gap", (token.min_items, token.max_items))
        if isinstance(token, NotToken):
            return ("notin", self._admissible_ids(token.inner, vocabulary))
        if isinstance(token, OneOfToken):
            # hierarchy-aware hoisting: [a|b|c] covering exactly the
            # subtree of their common root compiles as if the user had
            # written ^root
            return self._hoist_oneof(self._admissible_ids(token, vocabulary))
        if isinstance(token, FloorToken):
            kind, payload = self._compile_token(token.inner, vocabulary)
            if kind == "item":
                if vocabulary.frequency(payload) >= token.floor:
                    return ("item", payload)
                return ("oneof", frozenset())
            if kind == "under":
                candidates: Sequence[int] = self._descendants_or_self(payload)
            elif kind == "any":
                if token.floor == 0:
                    return ("any", -1)
                candidates = range(len(vocabulary))
            elif kind == "notin":
                # floor over a negation (!a@N): the floor turns the
                # near-whole-vocabulary complement into a concrete
                # id set, which also gives the candidate mask postings
                # to prune on — unlike a bare negation
                if token.floor == 0:
                    return ("notin", payload)
                candidates = [
                    item
                    for item in range(len(vocabulary))
                    if item not in payload
                ]
            else:  # oneof
                candidates = payload
            return self._hoist_oneof(
                frozenset(
                    item
                    for item in candidates
                    if vocabulary.frequency(item) >= token.floor
                )
            )
        raise InvalidParameterError(
            f"unsupported query token {token!r}"
        )  # pragma: no cover - normalize_query guards this


__all__ = [
    "Answer",
    "PLUS",
    "PatternSearchBase",
    "QueryMatch",
    "Pattern",
    "CompiledToken",
    "rank_patterns",
    "rank_key",
    "ranked_prefix",
]
