"""QueryService: LRU caching, batching, stats and error accounting."""

import threading
import time

import pytest

from repro.errors import InvalidParameterError, UnknownItemError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.serve import QueryService
from repro.serve import service as service_module


@pytest.fixture
def backend():
    patterns = {
        ("a", "B"): 9,
        ("a", "b1"): 5,
        ("a",): 12,
        ("c", "a"): 3,
        ("B", "c"): 2,
    }
    hierarchy = Hierarchy()
    for root in ("a", "B", "c"):
        hierarchy.add_item(root)
    hierarchy.add_edge("b1", "B")
    coded, vocabulary = code_patterns(patterns, hierarchy)
    return PatternIndex(coded, vocabulary)


class TestQueryApi:
    def test_query_shape(self, backend):
        service = QueryService(backend)
        response = service.query("a ?")
        assert response["query"] == "a ?"
        assert response["count"] == 2
        assert response["total_frequency"] == 14
        assert response["matches"][0] == {"pattern": "a B", "frequency": 9}

    def test_query_limit_reports_true_totals(self, backend):
        service = QueryService(backend)
        response = service.query("a ?", limit=1)
        assert len(response["matches"]) == 1
        assert response["count"] == 2
        assert response["truncated"] is True

    def test_count(self, backend):
        service = QueryService(backend)
        assert service.count("? ?")["count"] == 4

    def test_topk(self, backend):
        service = QueryService(backend)
        matches = service.topk(2)["matches"]
        assert [m["pattern"] for m in matches] == ["a", "a B"]

    def test_batch(self, backend):
        service = QueryService(backend)
        results = service.batch(["a ?", "? ?"], limit=None)
        assert [r["count"] for r in results] == [2, 4]

    def test_batch_isolates_bad_queries(self, backend):
        service = QueryService(backend)
        results = service.batch(["a ?", "nosuchitem", "? ?"])
        assert results[0]["count"] == 2
        assert "nosuchitem" in results[1]["error"]
        assert "matches" not in results[1]
        assert results[2]["count"] == 4

    def test_unknown_item_raises_and_counts(self, backend):
        service = QueryService(backend)
        with pytest.raises(UnknownItemError):
            service.query("nosuchitem")
        assert service.stats()["errors"] == 1

    def test_negative_cache_size_rejected(self, backend):
        with pytest.raises(InvalidParameterError):
            QueryService(backend, cache_size=-1)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_rejected(self, backend, limit):
        service = QueryService(backend)
        with pytest.raises(InvalidParameterError, match="limit"):
            service.query("a ?", limit=limit)
        stats = service.stats()
        assert stats["errors"] == 1
        assert stats["queries"] == 1

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_topk_rejected(self, backend, n):
        service = QueryService(backend)
        with pytest.raises(InvalidParameterError, match="n must be"):
            service.topk(n)

    def test_topk_clamped_to_cache_cap(self, backend, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_CACHED_MATCHES", 2)
        service = QueryService(backend)
        response = service.topk(10**9)
        assert response["k"] == 2
        assert len(response["matches"]) == 2
        # huge n values collapse onto one cache entry
        service.topk(10**6)
        assert service.stats()["cache_hits"] == 1


class TestLruCache:
    def test_repeat_query_hits_cache(self, backend):
        service = QueryService(backend, cache_size=8)
        first = service.query("a ?")
        second = service.query("a ?")
        assert first == second
        stats = service.stats()
        assert stats["queries"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5

    def test_distinct_limits_share_one_entry(self, backend):
        service = QueryService(backend, cache_size=8)
        service.query("a ?", limit=1)
        service.query("a ?", limit=2)
        assert service.stats()["cache_hits"] == 1
        assert service.stats()["cache_entries"] == 1

    def test_eviction_is_least_recently_used(self, backend):
        """Past ``cache_size`` the oldest untouched entry goes, whatever
        it would cost to recompute; a hit makes an entry the newest."""
        service = QueryService(backend, cache_size=2)
        service.query("a ?")
        service.query("? ?")
        service.query("a ?")      # hit → "? ?" is now the oldest
        service.query("c ?")      # overflow: evicts "? ?"
        assert service.stats()["cache_entries"] == 2
        assert service.stats()["cache_evictions"] == 1
        hits_before = service.stats()["cache_hits"]
        service.query("a ?")      # the touched entry survived
        assert service.stats()["cache_hits"] == hits_before + 1
        service.query("? ?")      # was evicted → recomputed
        assert service.stats()["cache_hits"] == hits_before + 1
        assert service.stats()["cache_evictions"] == 2

    def test_cache_disabled(self, backend):
        service = QueryService(backend, cache_size=0)
        service.query("a ?")
        service.query("a ?")
        stats = service.stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_entries"] == 0

    def test_cached_prefix_is_capped_but_answers_stay_complete(
        self, backend, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MAX_CACHED_MATCHES", 2)
        service = QueryService(backend)
        full = service.query("? ?", limit=None)
        assert len(full["matches"]) == full["count"] == 4  # recompute path
        assert full["truncated"] is False
        # the cached entry holds only the capped prefix
        small = service.query("? ?", limit=2)
        assert len(small["matches"]) == 2
        assert small["count"] == 4
        assert service.stats()["cache_hits"] == 1
        # counts stay exact even though the list was capped
        assert service.count("? ?")["count"] == 4

    def test_cold_overflow_searches_once(self, backend, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_CACHED_MATCHES", 2)
        service = QueryService(backend)
        calls = []
        original = backend.search_answer

        def counting_search(query, limit=None, min_freq=None, cost=None):
            calls.append(query)
            return original(query, limit, min_freq, cost)

        backend.search_answer = counting_search
        try:
            full = service.query("? ?", limit=None)  # cold miss, overflow
            assert full["count"] == 4 and len(full["matches"]) == 4
            assert len(calls) == 1  # the miss's search served the overflow
        finally:
            del backend.search_answer

    def test_overflow_requests_are_not_counted_as_hits(
        self, backend, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MAX_CACHED_MATCHES", 2)
        service = QueryService(backend)
        service.query("? ?", limit=1)          # miss, caches 2-prefix
        service.query("? ?", limit=None)       # recomputes → not a hit
        assert service.stats()["cache_hits"] == 0
        service.query("? ?", limit=2)          # served from prefix → hit
        assert service.stats()["cache_hits"] == 1

    def test_clear_cache(self, backend):
        service = QueryService(backend)
        service.query("a ?")
        service.clear_cache()
        assert service.stats()["cache_entries"] == 0

    def test_count_reuses_query_search(self, backend):
        service = QueryService(backend)
        service.query("a ?", limit=None)
        service.count("a ?")
        assert service.stats()["cache_hits"] == 1
        assert service.stats()["cache_entries"] == 1


class TestNormalizedCacheKeys:
    """The cache is keyed on the parsed token tuple, so syntactic
    variants of one query share a single entry."""

    def test_whitespace_variants_share_an_entry(self, backend):
        service = QueryService(backend)
        first = service.query("a ?")
        assert service.query("  a   ? ")["matches"] == first["matches"]
        assert service.stats()["cache_hits"] == 1
        assert service.stats()["cache_entries"] == 1

    def test_disjunction_order_variants_share_an_entry(self, backend):
        service = QueryService(backend)
        first = service.query("(a|^B) ?")
        assert service.query("(^B|a) ?")["matches"] == first["matches"]
        assert service.stats()["cache_hits"] == 1

    def test_string_and_token_queries_share_an_entry(self, backend):
        from repro.query import Q

        service = QueryService(backend)
        service.query("a ?@2")
        service.query((Q.item("a"), Q.floor(Q.any(), 2)))
        assert service.stats()["cache_hits"] == 1

    def test_distinct_floors_do_not_collide(self, backend):
        service = QueryService(backend)
        low = service.query("?@1")
        high = service.query("?@100")
        assert service.stats()["cache_hits"] == 0
        assert low["count"] >= high["count"]

    def test_parse_errors_count_as_served_errors(self, backend):
        service = QueryService(backend)
        for bad in ["", "   ", "(a|", "a@1@2"]:
            with pytest.raises(InvalidParameterError):
                service.query(bad)
        stats = service.stats()
        assert stats["queries"] == 4
        assert stats["errors"] == 4
        assert stats["cache_entries"] == 0


class TestStats:
    def test_fields(self, backend):
        service = QueryService(backend, cache_size=4)
        service.query("a ?")
        stats = service.stats()
        assert stats["patterns"] == 5
        assert stats["queries"] == 1
        assert stats["cache_size"] == 4
        assert stats["total_latency_ms"] >= 0
        assert stats["avg_latency_ms"] >= 0
        assert stats["errors"] == 0

    def test_cache_hits_skip_latency(self, backend):
        service = QueryService(backend)
        service.query("a ?")
        latency = service.stats()["total_latency_ms"]
        service.query("a ?")  # cache hit: no extra search latency
        assert service.stats()["total_latency_ms"] == latency

    def test_backend_length_is_read_outside_the_lock(self, backend):
        """A router's ``len()`` is a status round trip per server while
        one is down; ``/stats`` must not make every request — cache
        hits included — queue behind it."""

        class SlowLen:
            """Delegates to ``backend``; ``len()`` takes up to 1 s."""

            entered = threading.Event()
            release = threading.Event()

            def __len__(self):
                self.entered.set()
                self.release.wait(timeout=1.0)
                return len(backend)

            def __getattr__(self, name):
                return getattr(backend, name)

        slow = SlowLen()
        service = QueryService(slow)
        service.query("a ?")
        stats: list[dict] = []
        thread = threading.Thread(
            target=lambda: stats.append(service.stats())
        )
        thread.start()
        try:
            assert slow.entered.wait(timeout=5)
            start = time.perf_counter()
            service.query("a ?")  # a hit, while stats() sits in len()
            elapsed = time.perf_counter() - start
        finally:
            slow.release.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert elapsed < 0.2
        assert stats[0]["patterns"] == 5


class TestQueryCanonicalization:
    def test_floor_zero_variants_share_one_cache_entry(self, backend):
        """`a@0 *` normalizes to `a *` (ROADMAP query follow-up), so the
        second spelling is a cache hit, not a second search."""
        service = QueryService(backend)
        first = service.query("a *")
        second = service.query("a@0 *")
        assert second["matches"] == first["matches"]
        assert second["count"] == first["count"]
        stats = service.stats()
        assert stats["queries"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_entries"] == 1


class TestLatencyHistograms:
    def test_observe_and_snapshot(self, backend):
        from repro.serve.service import LATENCY_BUCKETS

        service = QueryService(backend)
        service.observe_latency("query", 0.0001)
        service.observe_latency("query", 0.03)
        service.observe_latency("query", 99.0)  # beyond the last bucket
        service.observe_latency("count", 0.002)
        stats = service.stats()
        hists = stats["request_latency"]
        assert set(hists) == {"query", "count"}
        query_hist = hists["query"]
        assert query_hist["count"] == 3
        assert query_hist["sum_seconds"] == pytest.approx(99.0301, abs=1e-3)
        bounds = [bound for bound, _ in query_hist["buckets"]]
        assert bounds == list(LATENCY_BUCKETS)
        # cumulative: the sub-ms observation is in every bucket, the
        # 30ms one from 0.05 up, the 99s one only in +Inf (= count)
        by_bound = dict(
            (bound, cum) for bound, cum in query_hist["buckets"]
        )
        assert by_bound[0.001] == 1
        assert by_bound[0.025] == 1
        assert by_bound[0.05] == 2
        assert by_bound[2.5] == 2

    def test_no_histograms_before_first_observation(self, backend):
        assert "request_latency" not in QueryService(backend).stats()


class TestBackendSwap:
    def test_swap_clears_cache_and_returns_old(self, backend):
        service = QueryService(backend)
        service.query("a ?")
        assert service.stats()["cache_entries"] == 1
        old = service.swap_backend(backend)
        assert old is backend
        assert service.stats()["cache_entries"] == 0

    def test_note_compaction_lands_in_stats(self, backend):
        service = QueryService(backend)
        assert "compaction" not in service.stats()
        service.note_compaction({"compactions": 2, "generation": 2})
        assert service.stats()["compaction"] == {
            "compactions": 2,
            "generation": 2,
            # the service's own count: replaced generations still leased
            "retired_open": 0,
        }


class TestPerQuerySigma:
    """The per-query σ override: server-side frequency-floor filtering,
    keyed into the result cache."""

    def test_min_freq_filters_and_is_echoed(self, backend):
        service = QueryService(backend)
        result = service.query("a ?", min_freq=6)
        assert result["matches"] == [{"pattern": "a B", "frequency": 9}]
        assert result["count"] == 1
        assert result["total_frequency"] == 9
        assert result["min_freq"] == 6

    def test_min_freq_absent_from_unfloored_responses(self, backend):
        service = QueryService(backend)
        assert "min_freq" not in service.query("a ?")
        assert "min_freq" not in service.query("a ?", min_freq=0)

    def test_count_respects_min_freq(self, backend):
        service = QueryService(backend)
        assert service.count("a ?", min_freq=6)["count"] == 1
        assert service.count("a ?")["count"] == 2

    def test_distinct_min_freqs_do_not_collide(self, backend):
        service = QueryService(backend)
        assert service.query("a ?", min_freq=6)["count"] == 1
        assert service.query("a ?", min_freq=1)["count"] == 2
        assert service.stats()["cache_hits"] == 0
        assert service.stats()["cache_entries"] == 2

    def test_min_freq_zero_shares_the_unfloored_entry(self, backend):
        service = QueryService(backend)
        service.query("a ?")
        assert service.query("a ?", min_freq=0)["count"] == 2
        assert service.stats()["cache_hits"] == 1
        assert service.stats()["cache_entries"] == 1

    def test_batch_applies_min_freq_to_every_query(self, backend):
        service = QueryService(backend)
        results = service.batch(["a ?", "?"], min_freq=6)
        assert all(
            m["frequency"] >= 6 for r in results for m in r["matches"]
        )
        assert all(r["min_freq"] == 6 for r in results)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
    def test_invalid_min_freq_rejected_and_counted(self, backend, bad):
        service = QueryService(backend)
        with pytest.raises(InvalidParameterError):
            service.query("a ?", min_freq=bad)
        assert service.stats()["errors"] == 1

    def test_min_freq_beyond_cached_prefix_recomputes_with_floor(
        self, backend, monkeypatch
    ):
        """The capped-entry re-search path must carry the σ override."""
        monkeypatch.setattr(service_module, "MAX_CACHED_MATCHES", 1)
        service = QueryService(backend)
        assert service.query("a ?", limit=1, min_freq=1)["count"] == 2
        overflow = service.query("a ?", limit=5, min_freq=1)
        assert [m["frequency"] for m in overflow["matches"]] == [9, 5]


class TestNegationOnlyRejection:
    """All-negative queries would scan the store unpruned — the serving
    tier refuses them, like any other invalid request."""

    @pytest.mark.parametrize("query", ["!a", "!a ?", "!a * !^B"])
    def test_rejected_with_clear_error(self, backend, query):
        service = QueryService(backend)
        with pytest.raises(InvalidParameterError, match="all-negative"):
            service.query(query)
        assert service.stats()["errors"] == 1

    def test_negation_with_positive_token_is_served(self, backend):
        service = QueryService(backend)
        result = service.query("a !c")
        assert result["count"] == 2  # a B, a b1

    def test_batch_isolates_all_negative_queries(self, backend):
        service = QueryService(backend)
        results = service.batch(["a !c", "!a"])
        assert results[0]["count"] == 2
        assert "all-negative" in results[1]["error"]

    def test_rejection_happens_before_caching(self, backend):
        service = QueryService(backend)
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                service.query("!a")
        assert service.stats()["cache_entries"] == 0
        assert service.stats()["errors"] == 2
