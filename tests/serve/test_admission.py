"""Admission control: cost gates, budgets, and the 429 path.

The estimator runs only inside cache-miss compute, so three properties
fall out by construction and are pinned here: cache hits never pay the
gate, rejections are never cached (a raised estimate can't reach the
cache), and budgeted answers reuse the partial-flag machinery that
already keeps degraded answers out of the cache.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import Lash, MiningParams
from repro.errors import (
    InvalidParameterError,
    QueryRejectedError,
    ReproError,
)
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns, parse_query
from repro.serve import QueryService, create_server, open_store
from repro.serve.distributed import ShardServer
from repro.serve.protocol import PROTOCOL_VERSION, encode_tokens
from repro.serve.router import RouterBackend, ShardClient

from tests.serve.test_distributed import _cluster_for


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


def _gate_between(backend, cheap_query, broad_query):
    """A max_cost ceiling that admits ``cheap_query`` and rejects
    ``broad_query`` on this backend."""
    cheap = backend.estimate_cost(cheap_query).cost
    broad = backend.estimate_cost(broad_query).cost
    assert cheap < broad, (cheap, broad)
    return (cheap + broad) / 2


# ----------------------------------------------------------------------
# service-level gate
# ----------------------------------------------------------------------


class TestAdmissionGate:
    def test_responses_carry_the_estimate(self, backend):
        service = QueryService(backend)
        response = service.query("a ?")
        assert response["estimated_cost"] > 0
        admission = service.stats()["admission"]
        assert admission["max_cost"] is None
        assert admission["cost"]["count"] == 1

    def test_rejection_raises_429_and_is_never_cached(self, backend):
        gate = _gate_between(backend, "a ?", "? ?")
        service = QueryService(backend, max_cost=gate)
        for _ in range(2):  # re-asking re-rejects: nothing was cached
            with pytest.raises(QueryRejectedError) as info:
                service.query("? ?")
            assert info.value.estimated_cost > gate
            assert info.value.max_cost == gate
        stats = service.stats()
        assert stats["admission"]["rejected"] == 2
        assert stats["cache_entries"] == 0
        # the error is a ReproError, so transports map it uniformly
        assert isinstance(info.value, ReproError)

    def test_cheap_queries_pass_the_same_gate(self, backend):
        gate = _gate_between(backend, "a ?", "? ?")
        service = QueryService(backend, max_cost=gate)
        assert service.query("a ?")["count"] == 2
        assert service.stats()["admission"]["rejected"] == 0

    def test_cache_hits_bypass_the_gate(self, backend):
        service = QueryService(backend, max_cost=10_000_000)
        first = service.query("a ?")
        second = service.query("a ?")
        assert first == second  # hit carries the same estimated_cost
        admission = service.stats()["admission"]
        # the estimator ran once: hits are free and never re-priced
        assert admission["cost"]["count"] == 1
        assert service.stats()["cache_hits"] == 1

    def test_ctor_validation(self, backend):
        with pytest.raises(InvalidParameterError, match="max_cost"):
            QueryService(backend, max_cost=0)
        with pytest.raises(InvalidParameterError, match="budget_cost"):
            QueryService(backend, budget_cost=-1)
        with pytest.raises(InvalidParameterError, match="match_budget"):
            QueryService(backend, match_budget=0)
        with pytest.raises(InvalidParameterError, match="exceeds"):
            QueryService(backend, max_cost=10, budget_cost=20)


class TestBudgetedQueries:
    def test_binding_budget_flags_partial_and_skips_cache(self, backend):
        service = QueryService(
            backend, budget_cost=0.5, match_budget=1
        )
        response = service.query("? ?")
        assert len(response["matches"]) == 1
        partial = response["partial"]
        assert partial["budgeted"] is True
        assert partial["match_budget"] == 1
        assert partial["estimated_cost"] > 0.5
        stats = service.stats()
        assert stats["admission"]["budgeted"] == 1
        assert stats["cache_entries"] == 0
        service.query("? ?")  # recomputed, not served from cache
        assert service.stats()["cache_hits"] == 0
        assert service.stats()["admission"]["budgeted"] == 2

    def test_loose_budget_stays_clean_and_cached(self, backend):
        service = QueryService(
            backend, budget_cost=0.5, match_budget=100
        )
        response = service.query("? ?")
        assert "partial" not in response
        stats = service.stats()
        assert stats["admission"]["budgeted"] == 1  # budget applied...
        assert stats["cache_entries"] == 1  # ...but never bound


class TestTopkValidation:
    @pytest.mark.parametrize("n", [True, False, "3", 1.5, None])
    def test_non_integer_n_rejected(self, backend, n):
        service = QueryService(backend)
        with pytest.raises(InvalidParameterError, match="n must be"):
            service.topk(n)

    def test_small_n_still_rejected(self, backend):
        service = QueryService(backend)
        for n in (0, -1):
            with pytest.raises(InvalidParameterError, match="n must be"):
                service.topk(n)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------


class TestHttpAdmission:
    @pytest.fixture
    def server(self, backend):
        gate = _gate_between(backend, "a ?", "? ?")
        service = QueryService(backend, max_cost=gate)
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.server_port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()

    def test_rejected_query_is_429_with_costs(self, server):
        url = (
            f"http://127.0.0.1:{server.server_port}/query?q="
            + urllib.parse.quote("? ?")
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url, timeout=10)
        assert info.value.code == 429
        body = json.loads(info.value.read())
        assert body["estimated_cost"] > body["max_cost"] > 0
        assert "rejected" in body["error"]

    def test_metrics_expose_admission_counters(self, server):
        status, _ = self._get(
            server, "/query?q=" + urllib.parse.quote("a ?")
        )
        assert status == 200
        with pytest.raises(urllib.error.HTTPError):
            self._get(server, "/query?q=" + urllib.parse.quote("? ?"))
        _, raw = self._get(server, "/metrics")
        text = raw.decode()
        assert "lash_rejected_queries_total 1" in text
        assert "lash_budgeted_queries_total 0" in text
        assert "lash_cache_evictions_total 0" in text
        # both queries were priced (the rejection too) → 2 observations
        assert 'lash_query_cost_units_bucket{le="+Inf"} 2' in text
        assert "lash_query_cost_units_count 2" in text

    def test_stats_expose_admission_block(self, server):
        _, raw = self._get(server, "/stats")
        admission = json.loads(raw)["admission"]
        assert admission["max_cost"] > 0
        assert admission["rejected"] == 0


# ----------------------------------------------------------------------
# distributed estimate op + router-side gate plumbing
# ----------------------------------------------------------------------


NUM_SHARDS = 4


@pytest.fixture
def shard_store_path(fig1_database, fig1_hierarchy, tmp_path):
    mined = Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        fig1_database, fig1_hierarchy
    )
    path = tmp_path / "patterns.shards"
    mined.to_store(path, shards=NUM_SHARDS)
    return path


class TestDistributedEstimate:
    def test_estimate_op_round_trip(self, shard_store_path):
        with ShardServer(
            shard_store_path, http_port=None
        ) as server, open_store(shard_store_path) as store:
            host, port = server.address
            client = ShardClient(host, port)
            try:
                wire = client.request(
                    {
                        "v": PROTOCOL_VERSION,
                        "op": "estimate",
                        "tokens": encode_tokens(parse_query("a ?")),
                    },
                    5.0,
                )["estimate"]
            finally:
                client.close()
            local = store.estimate_cost("a ?").to_wire()
            assert wire == local
            assert isinstance(wire["cost"], int)
            assert wire["shards"] == NUM_SHARDS

    def test_router_scales_a_slice_estimate(self, shard_store_path):
        with ShardServer(
            shard_store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            shard_store_path, shard_subset=[2, 3], http_port=None
        ) as s2:
            cluster = _cluster_for(
                [(s1, [0, 1]), (s2, [2, 3])], num_shards=NUM_SHARDS
            )
            router = RouterBackend(cluster)
            try:
                tokens = parse_query("? ?")
                estimate = router.estimate_cost(tokens)
                assert estimate.cost > 0
                # a 2-shard slice answered: extrapolated to 4 shards
                assert estimate.shards == NUM_SHARDS
                # priced per call, and the same every time
                assert router.estimate_cost(tokens) == estimate

                # query errors are the search's to raise, not the
                # estimator's: the gate steps aside with None
                assert router.estimate_cost(parse_query("!a")) is None
            finally:
                router.close()
