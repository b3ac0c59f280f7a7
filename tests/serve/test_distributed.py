"""The distributed serving tier: protocol, shard servers, router.

The tentpole invariant mirrors the sharded-store one a level up: a
router fanning a query out over shard-server processes and k-way
merging the rank-ordered partial answers is **byte-identical** to a
single-process :class:`ShardedPatternStore` over the same manifest —
including with one replica down per shard, where failover (not the
answer) absorbs the failure.  Degradation is explicit: only when a
shard's whole replica set is gone does the answer shrink, and then it
is flagged partial and kept out of the service cache.
"""

from __future__ import annotations

import random
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import Lash, MiningParams
from repro.errors import (
    InvalidParameterError,
    ReproError,
    UnknownItemError,
)
from repro.hierarchy import Hierarchy
from repro.query import parse_query
from repro.query.base import PLUS
from repro.query.tokens import ItemToken, NotToken
from repro.sequence import SequenceDatabase
from repro.serve import QueryService, open_store
from repro.serve.advisor import (
    advise_shards,
    group_weights,
    simulate_placement,
)
from repro.serve.distributed import (
    POLL_INTERVAL,
    ShardServer,
    parse_shard_list,
    partial_search,
)
from repro.serve.format import HEADER_SIZE, SECTIONS_STRUCT
from repro.serve.protocol import (
    decode_error,
    decode_tokens,
    decode_value,
    encode_error,
    encode_tokens,
    encode_value,
)
from repro.serve.router import (
    ClusterMap,
    RouterBackend,
    ServerSpec,
    ShardClient,
    plan_placement,
)

NUM_SHARDS = 4

QUERIES = [
    "? ?",
    "a ?",
    "^B +",
    "a * c",
    "(a|^B) ?",
    "!a ^B",
    "!a@2 ?",
    "? *{0,2} ?",
    "?@2",
]


@pytest.fixture(scope="module")
def mined():
    hierarchy = Hierarchy()
    for name, parent in [
        ("A", None), ("B", None), ("a", "A"), ("b", "B"),
        ("c", "A"), ("d", "B"), ("e", None),
    ]:
        hierarchy.add_item(name, parent)
    rng = random.Random(20260807)
    leaves = ["a", "b", "c", "d", "e"]
    database = SequenceDatabase(
        [
            [rng.choice(leaves) for _ in range(rng.randint(1, 6))]
            for _ in range(40)
        ]
    )
    return Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        database, hierarchy
    )


@pytest.fixture(scope="module")
def store_path(mined, tmp_path_factory):
    path = tmp_path_factory.mktemp("dist") / "patterns.shards"
    mined.to_store(path, shards=NUM_SHARDS)
    return path


def _cluster_for(servers, num_shards=NUM_SHARDS, full_replica=None):
    """Pinned placement: each (server, shards) pair plus an optional
    trailing full replica, so the replica is always the failover pick."""
    specs, placement = [], {}
    entries = list(servers)
    if full_replica is not None:
        entries.append((full_replica, range(num_shards)))
    for server, shards in entries:
        host, port = server.address
        spec = ServerSpec(host, port)
        specs.append(spec)
        for shard in shards:
            placement.setdefault(shard, []).append(spec.key)
    return ClusterMap(specs, num_shards=num_shards, placement=placement)


def _pairs(matches):
    return [(m.pattern, m.frequency) for m in matches]


def _matches(backend, query, **kwargs):
    return _pairs(backend.search(query, **kwargs))


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------


class TestProtocolValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            127,
            -128,
            1 << 40,
            -(1 << 40),
            "",
            "héllo ∅",
            b"",
            b"\x00\xff raw",
            [],
            [1, "two", None, [True]],
            {},
            {"op": "search", "shards": [0, 2], "limit": None},
            {"nested": {"deep": [{"k": -7}]}},
            0.0,
            191.22000000000003,
            -1e-300,
        ],
    )
    def test_round_trip(self, value):
        encoded = bytes(encode_value(value))
        decoded, consumed = decode_value(encoded)
        assert decoded == value
        assert consumed == len(encoded)

    def test_rejects_unencodable(self):
        with pytest.raises(ReproError):
            encode_value(object())

    def test_truncated_payload_rejected(self):
        encoded = bytes(encode_value({"k": [1, 2, 3]}))
        with pytest.raises(ReproError):
            decode_value(encoded[:-1])


class TestProtocolTokens:
    @pytest.mark.parametrize(
        "query",
        [
            "a",
            "^B",
            "?",
            "+",
            "*",
            "*{1,3}",
            "*{2,}",
            "!a",
            "!^B",
            "(a|^B|c)",
            "a@3",
            "!a@2",
            "(a|b)@4",
            "a ^B ? + * !c *{0,1} (a|b)@2",
        ],
    )
    def test_round_trip(self, query):
        tokens = parse_query(query)
        assert decode_tokens(encode_tokens(tokens)) == tokens

    def test_malformed_rejected(self):
        for bad in [None, "a", ["item"], [["nope", "a"]], [["item"]]]:
            with pytest.raises(ReproError):
                decode_tokens(bad)


class TestProtocolErrors:
    def test_typed_round_trip(self):
        for exc in [
            InvalidParameterError("bad limit"),
            UnknownItemError("zzz"),
        ]:
            back = decode_error(encode_error(exc))
            assert type(back) is type(exc)
            assert str(back) == str(exc)
        assert decode_error(encode_error(UnknownItemError("zzz"))).item == (
            "zzz"
        )

    def test_unknown_type_degrades_to_repro_error(self):
        back = decode_error({"type": "NoSuchError", "message": "boom"})
        assert type(back) is ReproError


# ----------------------------------------------------------------------
# partial (shard-slice) reads
# ----------------------------------------------------------------------


class TestPartialReads:
    def test_slices_merge_to_whole(self, store_path):
        with open_store(store_path) as store:
            for query in QUERIES:
                tokens = parse_query(query)
                whole, costs = partial_search(store, tokens)
                assert whole == [
                    (store.vocabulary.encode_sequence(m.pattern), m.frequency)
                    for m in store.search(tokens)
                ], query
                import heapq

                from repro.query.base import rank_key

                halves = [
                    partial_search(store, tokens, shard_ids=[0, 1]),
                    partial_search(store, tokens, shard_ids=[2, 3]),
                ]
                remerged = list(
                    heapq.merge(
                        *(records for records, _ in halves), key=rank_key
                    )
                )
                assert remerged == whole, query
                # each shard's price, whatever slice it ran in; summed
                # in shard order it is the whole store's, float for float
                assert {**halves[0][1], **halves[1][1]} == costs
                assert list(costs) == list(range(NUM_SHARDS))
                assert sum(costs.values()) == store.search_answer(tokens).cost

    def test_sigma_and_limit_push_down(self, store_path):
        with open_store(store_path) as store:
            tokens = parse_query("? ?")
            whole, costs = partial_search(store, tokens)
            floored = partial_search(store, tokens, min_freq=3)
            assert floored == ([r for r in whole if r[1] >= 3], costs)
            assert partial_search(store, tokens, limit=4) == (
                whole[:4], costs
            )

    def test_top_slices(self, store_path):
        """Top-k is the ``+`` search: a slice answers it like any query."""
        with open_store(store_path) as store:
            full, _ = partial_search(store, PLUS, limit=10)
            assert full == [
                (store.vocabulary.encode_sequence(m.pattern), m.frequency)
                for m in store.top(10)
            ]
            sliced, costs = partial_search(
                store, PLUS, shard_ids=[1], limit=3
            )
            assert len(sliced) <= 3
            assert list(costs) == [1]

    def test_parse_shard_list(self):
        assert parse_shard_list("0,2,5") == (0, 2, 5)
        assert parse_shard_list("3") == (3,)
        for bad in ["", ",", "a,b", "1;2"]:
            with pytest.raises(InvalidParameterError):
                parse_shard_list(bad)


# ----------------------------------------------------------------------
# one shard server over the socket protocol
# ----------------------------------------------------------------------


class TestShardServer:
    def test_ops_and_errors(self, store_path):
        with ShardServer(store_path, http_port=None) as server, open_store(
            store_path
        ) as store:
            host, port = server.address
            client = ShardClient(host, port)
            try:
                pong = client.request({"op": "ping"}, 5.0)
                assert pong == {"ok": True, "patterns": len(store)}

                status = client.request({"op": "status"}, 5.0)
                assert status["num_shards"] == NUM_SHARDS
                assert status["owned"] == list(range(NUM_SHARDS))
                assert sum(
                    status["patterns_by_shard"].values()
                ) == len(store)

                def search(*token_lists, shards=None):
                    return client.request(
                        {
                            "op": "search",
                            "shards": shards,
                            "queries": [
                                {
                                    "tokens": encode_tokens(tokens),
                                    "limit": None,
                                    "min_freq": None,
                                }
                                for tokens in token_lists
                            ],
                        },
                        5.0,
                    )["results"]

                (response,) = search(parse_query("? ?"), shards=[0, 2])
                records = response["records"]
                expected, costs = partial_search(
                    store, parse_query("? ?"), shard_ids=[0, 2]
                )
                assert [
                    (tuple(coded), freq) for coded, freq, _ in records
                ] == expected
                # the price of each shard's plan rides along, exact
                assert response["costs"] == {
                    str(shard): cost for shard, cost in costs.items()
                }
                # wire records carry names so the router stays data-free
                assert all(
                    tuple(names)
                    == store.vocabulary.decode_sequence(tuple(coded))
                    for coded, _freq, names in records
                )

                # a query's error is its own entry, with its original
                # type; the negation-only guard repeats server-side
                unknown, negated = search(
                    [ItemToken("zzz")], [NotToken(ItemToken("a"))]
                )
                assert isinstance(
                    decode_error(unknown["error"]), UnknownItemError
                )
                assert isinstance(
                    decode_error(negated["error"]), InvalidParameterError
                )
                # four ops after the hello, and no other
                for op in ("nope", "describe", "multi_search"):
                    with pytest.raises(InvalidParameterError, match="op"):
                        client.request({"op": op}, 5.0)
                # the connection survives all those error responses
                assert client.request({"op": "ping"}, 5.0)["ok"]
            finally:
                client.close()

    def test_subset_server_owns_its_slice_only(self, store_path):
        with ShardServer(
            store_path, shard_subset=[1, 3], http_port=None
        ) as server:
            host, port = server.address
            client = ShardClient(host, port)
            try:
                status = client.request({"op": "status"}, 5.0)
                assert status["owned"] == [1, 3]
                (entry,) = client.request(
                    {
                        "op": "search",
                        "shards": [0],
                        "queries": [
                            {
                                "tokens": encode_tokens(PLUS),
                                "limit": 5,
                                "min_freq": None,
                            }
                        ],
                    },
                    5.0,
                )["results"]
                assert isinstance(
                    decode_error(entry["error"]), InvalidParameterError
                )
            finally:
                client.close()


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------


class TestPlacement:
    def test_consistent_hash_properties(self):
        keys = [f"h{i}:70{i}" for i in range(4)]
        placement = plan_placement(keys, 16, replication=2)
        assert set(placement) == set(range(16))
        for replicas in placement.values():
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
        # determinism, and stability: dropping one server only moves
        # shards that lived on it
        assert placement == plan_placement(keys, 16, replication=2)
        smaller = plan_placement(keys[:-1], 16, replication=2)
        for shard in range(16):
            kept = [k for k in placement[shard] if k != keys[-1]]
            assert smaller[shard][: len(kept)] == kept or set(
                kept
            ) <= set(smaller[shard])

    def test_cluster_map_validation(self):
        spec = ServerSpec("127.0.0.1", 7601)
        with pytest.raises(InvalidParameterError):
            ClusterMap([], num_shards=2)
        with pytest.raises(InvalidParameterError):
            ClusterMap([spec, spec], num_shards=2)
        with pytest.raises(InvalidParameterError):
            ClusterMap([spec], num_shards=2, placement={0: ["x:1"]})
        with pytest.raises(InvalidParameterError):
            ClusterMap([spec], num_shards=2, placement={0: [spec.key]})
        with pytest.raises(InvalidParameterError):
            ClusterMap.from_config(
                {
                    "num_shards": 2,
                    "servers": [
                        {"host": "a", "port": 1, "shards": [0, 1]},
                        {"host": "b", "port": 2},
                    ],
                }
            )

    def test_from_config_pinned(self):
        cluster = ClusterMap.from_config(
            {
                "num_shards": 2,
                "servers": [
                    {"host": "a", "port": 1, "shards": [0]},
                    # keys the router does not read, such as the
                    # retired "http_port", load unchanged
                    {"host": "b", "port": 2, "shards": [1, 0],
                     "http_port": 12},
                ],
            }
        )
        assert cluster.replicas(0) == ("a:1", "b:2")
        assert cluster.servers["b:2"] == ServerSpec("b", 2)
        assert cluster.replicas(1) == ("b:2",)


class TestRouterSettings:
    """Health settings fail typed at construction, not as a socket
    error at the first ping or a probe loop without pause."""

    CLUSTER = ClusterMap([ServerSpec("127.0.0.1", 7601)], num_shards=1)

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_health_timeout_must_be_positive(self, timeout):
        with pytest.raises(InvalidParameterError, match="health_timeout"):
            RouterBackend(self.CLUSTER, health_timeout=timeout)

    @pytest.mark.parametrize("interval", [0, -2.0])
    def test_health_interval_must_be_positive(self, interval):
        router = RouterBackend(self.CLUSTER)
        try:
            with pytest.raises(InvalidParameterError, match="interval"):
                router.start_health_loop(interval)
            assert router._health_thread is None
        finally:
            router.close()


# ----------------------------------------------------------------------
# router: byte-identity and failover
# ----------------------------------------------------------------------


class TestRouterByteIdentity:
    def test_matches_single_process_store(self, store_path):
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, shard_subset=[2, 3], http_port=None
        ) as s2, open_store(store_path) as mono:
            cluster = _cluster_for([(s1, [0, 1]), (s2, [2, 3])])
            router = RouterBackend(cluster)
            try:
                assert len(router) == len(mono)
                for query in QUERIES:
                    tokens = parse_query(query)
                    assert _matches(router, tokens) == _matches(
                        mono, tokens
                    ), query
                    assert _matches(router, tokens, limit=3) == _matches(
                        mono, tokens, limit=3
                    ), query
                    floored = router.search_answer(tokens, min_freq=3)
                    assert _pairs(floored.matches) == _matches(
                        mono, tokens, min_freq=3
                    ), query
                    assert floored.partial is None
                for n in (1, 5, 100):
                    assert [
                        (m.pattern, m.frequency)
                        for m in router.search(PLUS, limit=n)
                    ] == [(m.pattern, m.frequency) for m in mono.top(n)]
                with pytest.raises(UnknownItemError):
                    router.search((ItemToken("zzz"),))
            finally:
                router.close()

    def test_identical_with_one_replica_down_per_shard(self, store_path):
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, http_port=None
        ) as replica, open_store(store_path) as mono:
            cluster = _cluster_for([(s1, [0, 1])], full_replica=replica)
            router = RouterBackend(cluster)
            try:
                # warm up so the dead server's sockets sit in the pool
                assert _matches(router, parse_query("? ?")) == _matches(
                    mono, parse_query("? ?")
                )
                s1.stop()
                for query in QUERIES:
                    tokens = parse_query(query)
                    answer = router.search_answer(tokens)
                    assert _pairs(answer.matches) == _matches(
                        mono, tokens
                    ), query
                    # failover absorbed the failure: no degradation
                    assert answer.partial is None, query
                info = router.describe()
                assert info["fanout_retries"] >= 1
                assert info["server_failures"] >= 1
                assert info["partial_results"] == 0
            finally:
                router.close()


class TestRouterFailover:
    def test_kill_mid_stream_fails_over_transparently(self, store_path):
        """Queries keep flowing byte-identically while a shard server
        is killed under them — the replica absorbs every request that
        the dying server drops."""
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, shard_subset=[2, 3], http_port=None
        ) as s2, ShardServer(
            store_path, http_port=None
        ) as replica, open_store(store_path) as mono:
            cluster = _cluster_for(
                [(s1, [0, 1]), (s2, [2, 3])], full_replica=replica
            )
            router = RouterBackend(cluster)
            expected = {
                query: _matches(mono, parse_query(query))
                for query in QUERIES
            }
            killer = threading.Timer(0.05, s1.stop)
            try:
                killer.start()
                for round_ in range(12):
                    for query in QUERIES:
                        answer = router.search_answer(parse_query(query))
                        assert _pairs(answer.matches) == expected[query], (
                            f"round {round_} query {query!r}"
                        )
                        assert answer.partial is None
                info = router.describe()
                assert info["server_failures"] >= 1
                assert info["partial_results"] == 0
            finally:
                killer.cancel()
                router.close()

    def test_exhausted_replicas_degrade_to_flagged_partial(
        self, store_path
    ):
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, shard_subset=[2, 3], http_port=None
        ) as s2, open_store(store_path) as mono:
            cluster = _cluster_for([(s1, [0, 1]), (s2, [2, 3])])
            router = RouterBackend(cluster)
            try:
                tokens = parse_query("? ?")
                s1.stop()
                answer = router.search_answer(tokens)
                got, partial = _pairs(answer.matches), answer.partial
                assert partial is not None
                assert partial["missing_shards"] == [0, 1]
                assert partial["failed_servers"]
                # the degraded answer is exactly the reachable slice
                reachable = [
                    (
                        mono.vocabulary.decode_sequence(coded),
                        freq,
                    )
                    for coded, freq in partial_search(
                        mono, tokens, shard_ids=[2, 3]
                    )[0]
                ]
                assert got == reachable
                assert router.describe()["partial_results"] >= 1
            finally:
                router.close()

    def test_ping_probe_drives_exclusion(self, store_path):
        """check_health marks a dead server down by a mux ping, after
        which fan-outs skip it (first-wave picks go straight to the
        replica — the retry counter stays put)."""
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(store_path, http_port=None) as replica:
            cluster = _cluster_for([(s1, [0, 1])], full_replica=replica)
            router = RouterBackend(cluster)
            try:
                key = f"{s1.address[0]}:{s1.address[1]}"
                assert router.check_health() == {
                    key: True,
                    f"{replica.address[0]}:{replica.address[1]}": True,
                }
                s1.stop()
                health = router.check_health()
                assert health[key] is False
                assert router.healthy_servers()[key] is False

                retries_before = router.describe()["fanout_retries"]
                answer = router.search_answer(parse_query("? ?"))
                assert answer.matches and answer.partial is None
                assert (
                    router.describe()["fanout_retries"] == retries_before
                )
            finally:
                router.close()

    def test_a_non_http_answer_reads_as_that_server_down(self, store_path):
        """A server entry that reaches a listener answering neither HTTP
        nor this protocol (here a line of garbage) is that one server
        down: the ping does not raise, and the other servers are still
        probed — a downed replica is revived by the same sweep."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(POLL_INTERVAL)
        done = threading.Event()

        def answer_http() -> None:
            while not done.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue
                with conn:
                    conn.sendall(b"garbage, not a frame\n")

        thread = threading.Thread(target=answer_http, daemon=True)
        thread.start()
        with ShardServer(store_path, http_port=None) as replica:
            confused = ServerSpec(*listener.getsockname()[:2])
            healthy = ServerSpec(*replica.address)
            cluster = ClusterMap(
                [confused, healthy],
                num_shards=NUM_SHARDS,
                placement={
                    shard: [confused.key, healthy.key] if shard < 2
                    else [healthy.key]
                    for shard in range(NUM_SHARDS)
                },
            )
            router = RouterBackend(cluster)
            try:
                router._mark_down(healthy.key)
                assert router.check_health() == {
                    confused.key: False,
                    healthy.key: True,
                }
                assert router.healthy_servers() == {
                    confused.key: False,
                    healthy.key: True,
                }
            finally:
                router.close()
                done.set()
                thread.join(timeout=5)
                listener.close()


# ----------------------------------------------------------------------
# the service layer and HTTP over a router
# ----------------------------------------------------------------------


class TestServiceOverRouter:
    def test_partial_answers_flagged_and_never_cached(self, store_path):
        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, shard_subset=[2, 3], http_port=None
        ) as s2:
            cluster = _cluster_for([(s1, [0, 1]), (s2, [2, 3])])
            router = RouterBackend(cluster)
            service = QueryService(router)
            try:
                full = service.query("? ?")
                assert "partial" not in full
                # healthy answers cache normally
                assert service.query("? ?") == full
                assert service.stats()["cache_hits"] == 1

                s1.stop()
                degraded = service.query("a ?")
                assert degraded["partial"]["missing_shards"] == [0, 1]
                hits = service.stats()["cache_hits"]
                again = service.query("a ?")
                assert again["partial"]["missing_shards"] == [0, 1]
                assert service.stats()["cache_hits"] == hits, (
                    "a degraded answer must not be served from cache"
                )
                assert service.count("a ?")["partial"]
                assert service.topk(5)["partial"]
            finally:
                router.close()

    def test_http_metrics_and_degraded_query(self, store_path):
        from repro.serve.http import create_server

        with ShardServer(
            store_path, shard_subset=[0, 1], http_port=None
        ) as s1, ShardServer(
            store_path, shard_subset=[2, 3], http_port=None
        ) as s2:
            cluster = _cluster_for([(s1, [0, 1]), (s2, [2, 3])])
            router = RouterBackend(cluster)
            service = QueryService(router)
            http = create_server(service, "127.0.0.1", 0, quiet=True)
            thread = threading.Thread(
                target=http.serve_forever, args=(POLL_INTERVAL,), daemon=True
            )
            thread.start()
            base = f"http://127.0.0.1:{http.server_address[1]}"
            try:
                with urllib.request.urlopen(f"{base}/healthz") as resp:
                    assert resp.status == 200
                s2.stop()
                import json

                with urllib.request.urlopen(
                    f"{base}/query?q=%3F+%3F"
                ) as resp:
                    answer = json.loads(resp.read())
                assert answer["partial"]["missing_shards"] == [2, 3]
                with urllib.request.urlopen(f"{base}/metrics") as resp:
                    metrics = resp.read().decode()
                assert "lash_router_fanouts_total" in metrics
                assert "lash_router_partial_results_total 1" in metrics
                assert 'lash_router_server_healthy{server="' in metrics
                assert (
                    "lash_router_fanout_latency_seconds_bucket" in metrics
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{base}/query?q=zzz")
                assert err.value.code == 400
            finally:
                http.shutdown()
                http.server_close()
                thread.join(timeout=5)
                router.close()


# ----------------------------------------------------------------------
# shard-count advisor
# ----------------------------------------------------------------------


class TestAdvisor:
    def test_weights_cover_the_store(self, mined, tmp_path):
        single = tmp_path / "adv.store"
        mined.to_store(single)
        with open_store(single) as store:
            weights = group_weights(store)
            assert weights
            # every group is a real first item; weights are positive
            assert all(w > 0 for w in weights.values())
            first_items = {
                m.pattern[0] for m in store.top(len(store))
            }
            assert set(weights) == first_items

    def test_sharded_and_single_agree_on_groups(
        self, mined, store_path, tmp_path
    ):
        single = tmp_path / "adv2.store"
        mined.to_store(single)
        with open_store(single) as a, open_store(store_path) as b:
            assert set(group_weights(a)) == set(group_weights(b))

    def test_weights_sum_to_the_non_vocabulary_bytes(self, mined, tmp_path):
        """Each group's share is floored, so the weights fall short of
        the shard files' non-vocabulary section bytes by less than one
        byte per group."""
        path = tmp_path / "adv.shards"
        mined.to_store(path, shards=2)
        expected = 0
        for shard in sorted(path.glob("shard-*.store")):
            data = shard.read_bytes()
            bounds = SECTIONS_STRUCT.unpack_from(
                data, HEADER_SIZE - SECTIONS_STRUCT.size
            )
            expected += bounds[-1] - bounds[1]  # lengths through postings
        with open_store(path) as store:
            weights = group_weights(store)
        total = sum(weights.values())
        assert expected - len(weights) < total <= expected

    def test_simulation_conserves_bytes(self, store_path):
        with open_store(store_path) as store:
            weights = group_weights(store)
            for n in (1, 2, 4, 8):
                shards = simulate_placement(weights, n)
                assert len(shards) == n
                assert sum(shards) == sum(weights.values())

    def test_advise_recommends_and_explains(self, store_path):
        with open_store(store_path) as store:
            report = advise_shards(store)
            assert report["recommended_shards"] >= 1
            assert report["reason"]
            assert report["groups"] == len(group_weights(store))
            assert 0 < report["skew"] <= 1
            counts = [c["shards"] for c in report["candidates"]]
            assert counts == sorted(counts)
            # a tiny target is unreachable: the heaviest group alone
            # exceeds it, and the advisor says so instead of upselling
            tight = advise_shards(store, target_bytes=1)
            assert "heaviest routing group" in tight["reason"]
            with pytest.raises(InvalidParameterError):
                advise_shards(store, target_bytes=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(InvalidParameterError):
            group_weights(object())
