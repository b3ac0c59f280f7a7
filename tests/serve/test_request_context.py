"""Per-request facts travel as arguments and come back on the answer.

Nothing about one request may survive on the router or the service
until the next: a rejected query leaves nothing behind for the next
fan-out, degradation, freshness and cost are read off the
:class:`~repro.query.base.Answer` that carries the matches, and a
batch's pre-fetched answers live in that batch's own map.  The first
two classes pin bugs of the thread-local design this replaced; both
fail on the commit before it.  The last pins the plan hand-off: the
plans a miss is priced with are the plans it runs — one build and one
pricing per shard per cache miss, with no plan cache in between.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import QueryRejectedError, UnknownItemError
from repro.hierarchy import Hierarchy
from repro.query import Answer, PatternIndex, code_patterns, parse_query
from repro.query.cost import CostEstimate, CostEstimator
from repro.query.plan import QueryPlan
from repro.query.tokens import normalize_query
from repro.serve import QueryService, open_store, write_sharded_store
from repro.serve.distributed import ShardServer
from repro.serve.router import RouterBackend

from tests.serve.test_fabric import (  # noqa: F401 - fixtures
    NUM_SHARDS,
    QUERIES,
    _cluster_for,
    _pairs,
    expected,
    mined,
    store_path,
)


class StallingShardServer(ShardServer):
    """Sleeps ``stall`` seconds before answering the ops in ``slow``."""

    stall = 0.0
    slow: frozenset = frozenset()

    def dispatch(self, request):
        if isinstance(request, dict) and request.get("op") in self.slow:
            time.sleep(self.stall)
        return super().dispatch(request)


def _stalling(store_path, stall, slow):
    server = StallingShardServer(store_path, http_port=None)
    server.stall, server.slow = stall, frozenset(slow)
    return server


# ----------------------------------------------------------------------
# bug: a rejected query's estimate shrank the *next* fan-out's deadline
# (deadlines no longer scale with cost at all; the scenario stays pinned)
# ----------------------------------------------------------------------


class TestCostNeverLeaksIntoTheNextFanOut:
    def test_topk_after_a_rejected_query_gets_the_full_deadline(
        self, store_path
    ):
        """Admission prices a query, refuses it (429) — and no fan-out
        ever runs for it.  The next scatter on the same thread is an
        unrelated ``/topk`` against a server that needs 0.3 × deadline:
        it must answer complete, not time out at the rejected query's
        10 % share."""
        deadline = 2.0
        with _stalling(store_path, 0.3 * deadline, {"search"}) as server:
            cluster = _cluster_for([(server, range(NUM_SHARDS))])
            router = RouterBackend(cluster, deadline=deadline)
            try:
                # a ceiling below any estimate: everything is refused
                service = QueryService(router, max_cost=1e-6)
                with pytest.raises(QueryRejectedError):
                    service.query("a ?")
                top = service.topk(5)
                assert "partial" not in top
                with open_store(store_path) as mono:
                    assert top == QueryService(mono).topk(5)
                assert router.describe()["partial_results"] == 0
            finally:
                router.close()


# ----------------------------------------------------------------------
# bug: a miss racing swap_backend was stamped with the new generation's
# watermark while carrying the old generation's matches
# ----------------------------------------------------------------------


def _index(ingested_through, retained_from):
    hierarchy = Hierarchy()
    for root in ("a", "B"):
        hierarchy.add_item(root)
    coded, vocabulary = code_patterns(
        {("a", "B"): 9, ("a",): 12}, hierarchy
    )
    index = PatternIndex(coded, vocabulary)
    index.ingested_through = ingested_through
    index.retained_from = retained_from
    return index


class TestFreshnessComesFromTheBackendThatAnswered:
    def test_miss_racing_a_swap_keeps_the_old_watermark(self):
        old, newer = _index(5, 1), _index(9, 2)
        service = QueryService(old)
        original = old.search_answer

        def swapping_search(query, limit=None, min_freq=None, cost=None):
            """The compaction daemon swapping mid-search, made
            deterministic."""
            answer = original(query, limit, min_freq, cost)
            service.swap_backend(newer)
            return answer

        old.search_answer = swapping_search
        raced = service.query("a ?")
        # the matches came from `old`: so does the freshness bound
        assert raced["ingested_through"] == 5
        assert raced["retained_from"] == 1
        # ... and an answer for a retired backend is never cached
        assert service.stats()["cache_entries"] == 0
        assert service.backend is newer
        fresh = service.query("a ?")
        assert fresh["ingested_through"] == 9
        assert fresh["retained_from"] == 2
        assert service.stats()["cache_entries"] == 1
        # the cached entry keeps the watermark of the backend behind it
        assert service.query("a ?") == fresh
        assert service.count("a ?")["ingested_through"] == 9

    def test_request_that_began_before_a_swap_never_reads_the_new_cache(
        self,
    ):
        """A batch fixes its backend once; entries the next generation
        cached meanwhile answer for a different pattern set and are
        neither read nor overwritten by it."""
        old, newer = _index(5, 1), _index(9, 2)
        service = QueryService(old)
        original = old.search_answer

        def swap_and_warm(query, limit=None, min_freq=None, cost=None):
            answer = original(query, limit, min_freq, cost)
            if service.backend is old:
                service.swap_backend(newer)
                service.query("a")  # the new generation caches "a"
            return answer

        old.search_answer = swap_and_warm
        first, second = service.batch(["a ?", "a"])
        assert first["ingested_through"] == second["ingested_through"] == 5
        hits = service.stats()["cache_hits"]
        assert service.query("a")["ingested_through"] == 9
        assert service.stats()["cache_hits"] == hits + 1

    def test_local_answers_carry_their_backends_watermarks(self):
        index = _index(7, 3)
        answer = index.search_answer("a ?")
        assert answer == Answer(
            index.search("a ?"), None, 7, 3, index.estimate_cost("a ?").cost
        )
        assert index.prefetch([(normalize_query("a ?"), None)]) == {}


# ----------------------------------------------------------------------
# every fan-out gets the full deadline, whatever the query costs
# ----------------------------------------------------------------------


class TestFullDeadline:
    def test_stalled_server_answers_a_cheap_query(self, store_path):
        """One server that needs 0.3 × deadline per request and has no
        replica: the cheapest query waits for it and comes back
        complete, priced or not."""
        deadline = 2.0
        with _stalling(
            store_path, 0.3 * deadline, {"search", "estimate"}
        ) as server:
            cluster = _cluster_for([(server, range(NUM_SHARDS))])
            router = RouterBackend(cluster, deadline=deadline)
            try:
                with open_store(store_path) as mono:
                    want = QueryService(mono).query("a ?")
                for service in (
                    QueryService(router),
                    QueryService(router, max_cost=1e12),
                ):
                    start = time.monotonic()
                    assert service.query("a ?") == want
                    assert time.monotonic() - start >= 0.3 * deadline * 0.9
                assert router.describe()["partial_results"] == 0
            finally:
                router.close()


# ----------------------------------------------------------------------
# /batch through a router: the parked map is the batch's own
# ----------------------------------------------------------------------


class TestBatchOwnsItsParkedAnswers:
    def test_prefetch_returns_answers_and_typed_errors(
        self, store_path, expected
    ):
        good = (normalize_query("? ?"), None)
        floored = (normalize_query("? ?"), 3)
        bad = (normalize_query("zzz"), None)
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, shard_subset=[2, 3], http_port=None
        ) as s2:
            router = RouterBackend(_cluster_for([(s1, [0, 1]), (s2, [2, 3])]))
            try:
                parked = router.prefetch([good, bad, floored, good])
                assert set(parked) == {good, bad, floored}
                assert isinstance(parked[good], Answer)
                assert parked[good].partial is None
                assert _pairs(parked[good].matches) == expected["? ?"]
                assert _pairs(parked[floored].matches) == [
                    pair for pair in expected["? ?"] if pair[1] >= 3
                ]
                # a per-query error keeps its original type
                assert isinstance(parked[bad], UnknownItemError)
                assert router.describe()["fanouts"] == 1
                # nothing stayed behind on the router: the same reads
                # again are fresh fan-outs with the same answers
                assert _pairs(router.search(good[0])) == expected["? ?"]
                with pytest.raises(UnknownItemError):
                    router.search(bad[0])
                assert router.describe()["fanouts"] == 3
                # one query is the same frame: one scatter, one answer
                (alone,) = router.prefetch([good]).values()
                assert _pairs(alone.matches) == expected["? ?"]
                assert router.describe()["fanouts"] == 4
                # nothing to fetch is no scatter at all
                assert router.prefetch([]) == {}
                assert router.describe()["fanouts"] == 4
            finally:
                router.close()

    def test_parked_errors_reraise_per_query(self, store_path):
        queries = ["? ?", "zzz", "a ?", "nosuch ?", "zzz"]
        with open_store(store_path) as mono:
            want = QueryService(mono).batch(queries, limit=5)
        assert "error" in want[1] and "error" in want[3]
        with ShardServer(store_path, http_port=None) as server:
            router = RouterBackend(
                _cluster_for([(server, range(NUM_SHARDS))])
            )
            try:
                service = QueryService(router)
                got = service.batch(queries, limit=5)
                assert got == want
                # answers and errors alike came out of the one scatter;
                # only the repeated bad query (its parked error already
                # consumed, errors are never cached) fanned out again
                assert router.describe()["fanouts"] == 2
                stats = service.stats()
                assert stats["errors"] == 3
                assert stats["cache_entries"] == 2
            finally:
                router.close()

    def test_failed_scatter_parks_nothing(self, store_path):
        class RefusesBatches(ShardServer):
            """Refuses every ``search`` frame of more than one query."""

            def dispatch(self, request):
                if isinstance(request, dict) and (
                    len(request.get("queries") or ()) > 1
                ):
                    return {
                        "error": {"type": "ReproError", "message": "boom"}
                    }
                return super().dispatch(request)

        queries = QUERIES[:3]
        with open_store(store_path) as mono:
            want = QueryService(mono).batch(queries, limit=5)
        with RefusesBatches(store_path, http_port=None) as server:
            router = RouterBackend(
                _cluster_for([(server, range(NUM_SHARDS))])
            )
            try:
                pairs = [(normalize_query(q), None) for q in queries]
                assert router.prefetch(pairs) == {}
                got = QueryService(router).batch(queries, limit=5)
                assert got == want
                # two refused scatters, then one fan-out per query
                assert router.describe()["fanouts"] == 2 + len(queries)
            finally:
                router.close()

    def test_interleaved_batches_never_share_parked_answers(self, store_path):
        """Batch B runs to completion *inside* batch A's prefetch, on
        the same thread, over the same queries at a different σ — the
        interleaving thread identity could never separate.  Each batch
        still consumes exactly its own scatter's answers."""
        outer, inner = QUERIES[:4], QUERIES[2:6]
        with open_store(store_path) as mono:
            mono_service = QueryService(mono, cache_size=0)
            want_outer = mono_service.batch(outer, limit=None)
            want_inner = mono_service.batch(inner, limit=None, min_freq=3)
        with ShardServer(store_path, http_port=None) as server:
            router = RouterBackend(
                _cluster_for([(server, range(NUM_SHARDS))])
            )
            service = QueryService(router, cache_size=0)
            nested: list = []
            prefetch = router.prefetch

            def interleaving_prefetch(pairs):
                parked = prefetch(pairs)
                if not nested:
                    nested.append(None)
                    nested.append(
                        service.batch(inner, limit=None, min_freq=3)
                    )
                return parked

            router.prefetch = interleaving_prefetch
            try:
                got_outer = service.batch(outer, limit=None)
                assert got_outer == want_outer
                assert nested[1] == want_inner
                # one scatter per batch, no per-query fan-out: neither
                # batch lost (or borrowed) a parked answer
                assert router.describe()["fanouts"] == 2
            finally:
                router.close()

    def test_concurrent_batches_each_pay_one_scatter(self, store_path):
        rounds = 5
        sets = [QUERIES[:4], QUERIES[3:], list(reversed(QUERIES))]
        with open_store(store_path) as mono:
            mono_service = QueryService(mono, cache_size=0)
            want = [mono_service.batch(qs, limit=None) for qs in sets]
        with ShardServer(store_path, http_port=None) as server:
            router = RouterBackend(
                _cluster_for([(server, range(NUM_SHARDS))])
            )
            service = QueryService(router, cache_size=0)
            failures: list = []

            def worker(index: int) -> None:
                try:
                    for _ in range(rounds):
                        got = service.batch(sets[index], limit=None)
                        assert got == want[index]
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(sets))
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not failures, failures
                assert router.describe()["fanouts"] == rounds * len(sets)
            finally:
                router.close()



# ----------------------------------------------------------------------
# the plan admission priced is the plan the search runs — as an argument
# ----------------------------------------------------------------------


@pytest.fixture
def planner_calls(monkeypatch):
    """Counts every ``QueryPlan`` construction and every pricing."""
    calls = {"plans": 0, "estimates": 0}
    build, price = QueryPlan.__init__, CostEstimator.estimate

    def counting_build(self, compiled, backend):
        calls["plans"] += 1
        build(self, compiled, backend)

    def counting_price(self, plan):
        calls["estimates"] += 1
        return price(self, plan)

    monkeypatch.setattr(QueryPlan, "__init__", counting_build)
    monkeypatch.setattr(CostEstimator, "estimate", counting_price)
    return calls


@pytest.fixture(params=["index", "store", "sharded"])
def local_backend(request, mined, store_path, tmp_path):
    """``(backend, shards)`` for each kind of local backend."""
    if request.param == "index":
        yield PatternIndex(mined.patterns, mined.vocabulary), 1
    elif request.param == "store":
        mined.to_store(tmp_path / "single.store")
        with open_store(tmp_path / "single.store") as store:
            yield store, 1
    else:
        with open_store(store_path) as store:
            yield store, NUM_SHARDS


def _older_generation(mined):
    """The mined patterns minus every third one, frequencies shifted:
    same vocabulary, different answers — a store before a fold."""
    ranked = sorted(mined.patterns.items())
    return {
        pattern: frequency + 1
        for i, (pattern, frequency) in enumerate(ranked)
        if i % 3
    }


class TestPlanTravelsWithItsEstimate:
    def test_a_miss_builds_and_prices_one_plan_per_shard(
        self, local_backend, planner_calls
    ):
        backend, shards = local_backend
        service = QueryService(backend)

        def spent():
            done = planner_calls["plans"], planner_calls["estimates"]
            planner_calls["plans"] = planner_calls["estimates"] = 0
            return done

        service.query("a ?")
        assert spent() == (shards, shards)
        service.count("^B +")
        assert spent() == (shards, shards)
        service.query("a ?", limit=3)  # a hit: the result cache's job
        assert spent() == (0, 0)
        answers = service.batch(["a ?", "a * c", "(a|^B) ?", "a * c"])
        assert all("error" not in answer for answer in answers)
        assert spent() == (2 * shards, 2 * shards)  # the two new entries
        stats = backend.plan_stats()
        assert stats["compiles"] == 4 * shards == sum(stats["paths"].values())

    def test_a_plan_priced_elsewhere_is_never_executed(
        self, mined, store_path, tmp_path, planner_calls
    ):
        """Two generations of one store, as after ``swap_backend``: the
        estimate of one handed to the other is not that backend's, so
        it builds its own plans and answers exactly as it does alone."""
        older = _older_generation(mined)
        vocabulary = mined.vocabulary
        write_sharded_store(tmp_path / "older.shards", older, vocabulary, 4)
        with open_store(store_path) as new_store, open_store(
            tmp_path / "older.shards"
        ) as old_store:
            pairs = [
                (PatternIndex(older, vocabulary),
                 PatternIndex(mined.patterns, vocabulary), 1),
                (old_store, new_store, NUM_SHARDS),
            ]
            for stale, live, shards in pairs:
                for query in QUERIES:
                    tokens = parse_query(query)
                    alone = live.search_answer(tokens)
                    foreign = stale.estimate_cost(tokens)
                    assert live not in foreign.plans
                    planner_calls["plans"] = 0
                    assert live.search_answer(tokens, cost=foreign) == alone
                    assert planner_calls["plans"] == shards
                    # its own estimate, by contrast, is executed as is
                    own = live.estimate_cost(tokens)
                    planner_calls["plans"] = 0
                    assert live.search_answer(tokens, cost=own) == alone
                    assert planner_calls["plans"] == 0
                assert stale.search_answer(parse_query("? ?")) != (
                    live.search_answer(parse_query("? ?"))
                )

    def test_the_result_cache_keeps_the_float_not_the_estimate(
        self, local_backend
    ):
        """A cached entry must not pin plans, masks or match lists: what
        the service retains of an estimate is its cost, a float."""
        backend, _ = local_backend
        service = QueryService(backend)
        for query in QUERIES:
            service.query(query)
        assert len(service._cache) == len(QUERIES)
        for entry in service._cache.values():
            assert type(entry.cost) is float
            assert entry.matches is None
            assert not any(
                isinstance(value, (CostEstimate, QueryPlan))
                for value in entry
            )
