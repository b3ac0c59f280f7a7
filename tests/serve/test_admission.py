"""Admission control: the ``max_cost`` gate and the 429 path.

The estimator runs only inside cache-miss compute, so two properties
fall out by construction and are pinned here: cache hits never pay the
gate, and rejections are never cached (a raised estimate can't reach
the cache).
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
from repro.serve.distributed import POLL_INTERVAL, ShardServer
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
            target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
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
        """A server prices every shard it is asked for, exactly: added
        in shard order, its prices are the in-process store's estimate
        float for float."""
        tokens = encode_tokens(parse_query("a ?"))
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
                        "tokens": tokens,
                    },
                    5.0,
                )["estimates"]
                slice_ = client.request(
                    {
                        "v": PROTOCOL_VERSION,
                        "op": "estimate",
                        "tokens": tokens,
                        "shards": [2, 0],
                    },
                    5.0,
                )["estimates"]
            finally:
                client.close()
            local = store.estimate_cost("a ?")
        assert sorted(wire) == [str(shard) for shard in range(NUM_SHARDS)]
        assert sum(
            wire[str(shard)]["cost"] for shard in range(NUM_SHARDS)
        ) == local.cost
        assert sorted(slice_) == ["0", "2"]
        assert slice_["2"] == wire["2"]

    def test_router_sums_the_per_shard_estimates(self, shard_store_path):
        with ShardServer(
            shard_store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            shard_store_path, shard_subset=[2, 3], http_port=None
        ) as s2, open_store(shard_store_path) as store:
            cluster = _cluster_for(
                [(s1, [0, 1]), (s2, [2, 3])], num_shards=NUM_SHARDS
            )
            router = RouterBackend(cluster)
            try:
                for query in ADMISSION_QUERIES:
                    tokens = parse_query(query)
                    # not a slice extrapolated: the in-process estimate,
                    # strategy, counts and nodes included
                    assert router.estimate_cost(tokens) == (
                        store.estimate_cost(tokens)
                    ), query
                    assert router.describe()["partial_results"] == 0

                # query errors are the search's to raise, not the
                # estimator's: the gate steps aside with None
                assert router.estimate_cost(parse_query("!a")) is None
                assert router.estimate_cost(parse_query("zzz ?")) is None
                # and so does a price that is missing shards
                s2.stop()
                assert router.estimate_cost(parse_query("a ?")) is None
            finally:
                router.close()


# ----------------------------------------------------------------------
# a query is priced in advance only when a ceiling needs the price
# ----------------------------------------------------------------------


#: queries over the fig-1 store: chains, wildcards, a hierarchy token
ADMISSION_QUERIES = ["a ?", "? ?", "^B ?", "a * c", "? c", "B ?"]


class CountingShardServer(ShardServer):
    """Counts the request frames it answers, by op."""

    def start(self):
        self.ops: dict[str, int] = {}
        self.ops_lock = threading.Lock()
        return super().start()

    def dispatch(self, request):
        if isinstance(request, dict):
            with self.ops_lock:  # workers dispatch concurrently
                op = request.get("op")
                self.ops[op] = self.ops.get(op, 0) + 1
        return super().dispatch(request)


def _http_server(service):
    server = create_server(service, port=0)
    threading.Thread(
        target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
    ).start()
    return server


def _fetch(server, path, body=None):
    """``(status, raw body bytes)`` of one request, errors included."""
    url = f"http://127.0.0.1:{server.server_port}{path}"
    data = None if body is None else json.dumps(body).encode("utf-8")
    try:
        with urllib.request.urlopen(url, data=data, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestPricedOnlyWhenACeilingNeedsIt:
    @pytest.fixture
    def cluster(self, shard_store_path):
        """A router over two half-cluster counting servers."""
        with CountingShardServer(
            shard_store_path, shard_subset=[0, 1], http_port=None
        ) as s1, CountingShardServer(
            shard_store_path, shard_subset=[2, 3], http_port=None
        ) as s2:
            router = RouterBackend(
                _cluster_for(
                    [(s1, [0, 1]), (s2, [2, 3])], num_shards=NUM_SHARDS
                )
            )
            try:
                yield router, (s1, s2)
            finally:
                router.close()

    def test_a_routed_miss_is_one_search_frame_per_server(
        self, cluster, shard_store_path
    ):
        router, servers = cluster
        service = QueryService(router, cache_size=0)
        with open_store(shard_store_path) as store:
            mono = QueryService(store, cache_size=0)
            for query in ADMISSION_QUERIES:
                sent = router.describe()["wire"]["frames_sent"]
                # the echoed cost is the in-process one, byte for byte
                assert service.query(query) == mono.query(query)
                assert service.count(query) == mono.count(query)
                # two misses, each N frames: no estimate pre-flight
                assert router.describe()["wire"]["frames_sent"] == (
                    sent + 2 * len(servers)
                )
        for server in servers:
            assert server.ops == {"search": 2 * len(ADMISSION_QUERIES)}
        cost = service.stats()["admission"]["cost"]
        assert cost["count"] == 2 * len(ADMISSION_QUERIES)

    def test_a_batch_of_misses_is_one_search_frame_per_server(
        self, cluster, shard_store_path
    ):
        router, servers = cluster
        service = QueryService(router, cache_size=0)
        with open_store(shard_store_path) as store:
            want = QueryService(store, cache_size=0).batch(ADMISSION_QUERIES)
        sent = router.describe()["wire"]["frames_sent"]
        assert service.batch(ADMISSION_QUERIES) == want
        assert router.describe()["wire"]["frames_sent"] == sent + len(servers)
        for server in servers:
            assert server.ops == {"search": 1}

    def test_a_ceiling_prices_each_miss_once_before_it_runs(self, cluster):
        router, servers = cluster
        service = QueryService(router, cache_size=0, max_cost=1e12)
        for query in ADMISSION_QUERIES:
            service.query(query)
        for server in servers:
            assert server.ops == {
                "estimate": len(ADMISSION_QUERIES),
                "search": len(ADMISSION_QUERIES),
            }
        cost = service.stats()["admission"]["cost"]
        assert cost["count"] == len(ADMISSION_QUERIES)

    def test_router_rejects_exactly_what_serve_rejects(
        self, cluster, shard_store_path
    ):
        """``lash route --max-cost C`` and ``lash serve --max-cost C``
        over one manifest: the same statuses and the same bytes, 429
        bodies included, for every endpoint that prices."""
        router, _ = cluster
        with open_store(shard_store_path) as store:
            gate = _gate_between(store, "a ?", "? ?")
            routed = _http_server(QueryService(router, max_cost=gate))
            local = _http_server(QueryService(store, max_cost=gate))
            try:
                statuses = set()
                paths = [
                    f"/{endpoint}?q={urllib.parse.quote(query)}"
                    for endpoint in ("query", "count")
                    for query in ADMISSION_QUERIES + ["zzz"]
                ]
                for path in paths:
                    got, want = _fetch(routed, path), _fetch(local, path)
                    assert got == want, path
                    statuses.add(got[0])
                assert statuses == {200, 400, 429}
                body = {"queries": ADMISSION_QUERIES, "limit": 3}
                assert _fetch(routed, "/batch", body) == (
                    _fetch(local, "/batch", body)
                )
            finally:
                for server in (routed, local):
                    server.shutdown()
                    server.server_close()
