"""HTTP server: live endpoint behavior and concurrent query traffic."""

import io
import json
import threading
import types
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import Lash, MiningParams
from repro.query import PatternIndex, PatternSearchBase
from repro.serve import QueryService, create_server, open_store
from repro.serve.distributed import POLL_INTERVAL
from repro.serve.http import METRICS_CONTENT_TYPE, PatternRequestHandler


@pytest.fixture
def mining_result(fig1_database, fig1_hierarchy):
    return Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        fig1_database, fig1_hierarchy
    )


@pytest.fixture(params=["single", "sharded"])
def server(mining_result, tmp_path, request):
    """A live server on an ephemeral port — backed by a single store
    file or a shard set; every endpoint must behave identically."""
    if request.param == "single":
        path = tmp_path / "patterns.store"
        mining_result.to_store(path)
    else:
        path = tmp_path / "patterns.shards"
        mining_result.to_store(path, shards=3)
    store = open_store(path)
    service = QueryService(store)
    server = create_server(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    store.close()
    thread.join(timeout=5)


def _get(server, path):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, server, mining_result):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["patterns"] == len(mining_result)
        assert body["store"]["items"] == len(mining_result.vocabulary)

    def test_query_matches_in_memory_index(self, server, mining_result):
        index = PatternIndex.from_result(mining_result)
        for query in ["a ?", "^B ?", "? ? ?", "a * c"]:
            status, body = _get(
                server, "/query?q=" + urllib.parse.quote(query)
            )
            assert status == 200
            expected = [
                {"pattern": m.render(), "frequency": m.frequency}
                for m in index.search(query, limit=10)
            ]
            assert body["matches"] == expected

    def test_count(self, server, mining_result):
        index = PatternIndex.from_result(mining_result)
        status, body = _get(server, "/count?q=%5EB+%3F")  # "^B ?"
        assert status == 200
        assert body["count"] == index.count("^B ?")
        assert body["total_frequency"] == index.total_frequency("^B ?")

    def test_topk(self, server, mining_result):
        index = PatternIndex.from_result(mining_result)
        status, body = _get(server, "/topk?n=3")
        assert status == 200
        assert [m["pattern"] for m in body["matches"]] == [
            m.render() for m in index.top(3)
        ]

    def test_batch_post(self, server):
        status, body = _post(
            server, "/batch", {"queries": ["a ?", "? ? ?"], "limit": 5}
        )
        assert status == 200
        assert [r["query"] for r in body["results"]] == ["a ?", "? ? ?"]

    def test_stats_counts_traffic(self, server):
        _get(server, "/query?q=a+%3F")
        _get(server, "/query?q=a+%3F")
        status, body = _get(server, "/stats")
        assert status == 200
        assert body["queries"] >= 2
        assert body["cache_hits"] >= 1

    def test_stats_expose_store_breakdown(self, server, mining_result):
        status, body = _get(server, "/stats")
        assert status == 200
        store = body["store"]
        assert store["patterns"] == len(mining_result)
        if "shard_stats" in store:  # sharded variant of the fixture
            assert store["shards"] == len(store["shard_stats"])
            assert sum(
                s["patterns"] for s in store["shard_stats"]
            ) == len(mining_result)

    def test_metrics_prometheus_text(self, server, mining_result):
        _get(server, "/query?q=a+%3F")
        url = f"http://127.0.0.1:{server.server_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        lines = text.splitlines()
        assert f"lash_patterns {len(mining_result)}" in lines
        assert "# TYPE lash_queries_total counter" in lines
        samples = {
            line.split(" ")[0]: line.split(" ")[1]
            for line in lines
            if line and not line.startswith("#")
        }
        assert int(samples["lash_queries_total"]) >= 1
        assert int(samples["lash_errors_total"]) == 0
        if any(line.startswith("lash_store_shards") for line in lines):
            assert 'lash_shard_patterns{shard="0"}' in samples


class TestErrors:
    def _get_error(self, server, path):
        try:
            _get(server, path)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        pytest.fail(f"expected an HTTP error for {path}")

    def test_missing_query_param(self, server):
        code, body = self._get_error(server, "/query")
        assert code == 400
        assert "missing query parameter" in body["error"]

    def test_unknown_item_is_400(self, server):
        code, body = self._get_error(server, "/query?q=nosuchitem")
        assert code == 400
        assert "nosuchitem" in body["error"]

    def test_bad_limit(self, server):
        code, body = self._get_error(server, "/query?q=a&limit=ten")
        assert code == 400

    def test_unknown_path_is_404(self, server):
        code, _ = self._get_error(server, "/nope")
        assert code == 404

    def test_bad_batch_body(self, server):
        try:
            _post(server, "/batch", {"queries": "a ?"})
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        else:
            pytest.fail("expected 400 for non-list queries")

    def test_post_error_closes_connection(self, server):
        """An undrained POST body must not desync keep-alive reuse."""
        import socket

        sock = socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=10
        )
        try:
            body = b'{"queries": ["a ?"]}'
            sock.sendall(
                b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            response = sock.recv(65536)
            assert response.startswith(b"HTTP/1.1 404")
            assert b"Connection: close" in response
        finally:
            sock.close()


class TestQueryLanguageOverHTTP:
    """The expanded language — disjunctions and frequency floors —
    answers identically through the HTTP layer."""

    def test_matches_in_memory_index(self, server, mining_result):
        index = PatternIndex.from_result(mining_result)
        for query in [
            "(a|^B) ?", "(b1|b2)", "a ?@2", "^B@1 *", "(a|c)@2 +",
        ]:
            status, body = _get(
                server, "/query?q=" + urllib.parse.quote(query)
            )
            assert status == 200
            assert body["matches"] == [
                {"pattern": m.render(), "frequency": m.frequency}
                for m in index.search(query, limit=10)
            ], query
            assert body["count"] == index.count(query), query

    def test_equivalent_disjunction_orders_share_cache(self, server):
        _get(server, "/query?q=" + urllib.parse.quote("(a|^B) ?"))
        _, before = _get(server, "/stats")
        _get(server, "/query?q=" + urllib.parse.quote("(^B|a) ?"))
        _, after = _get(server, "/stats")
        assert after["cache_hits"] == before["cache_hits"] + 1


class TestErrorPaths:
    """Error surfaces: syntax, unknown items, oversized batches, and a
    corrupt store answering 503 instead of blaming the client."""

    def _get_error(self, server, path):
        try:
            _get(server, path)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        pytest.fail(f"expected an HTTP error for {path}")

    def _post_error(self, server, path, payload):
        try:
            _post(server, path, payload)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        pytest.fail(f"expected an HTTP error for {path}")

    def test_malformed_syntax_is_400(self, server):
        for bad in ["(a|", "(a||b)", "()", "^", "@3", "*@3", "a@1@2"]:
            code, body = self._get_error(
                server, "/query?q=" + urllib.parse.quote(bad)
            )
            assert code == 400, bad
            assert "error" in body, bad

    def test_unknown_item_is_400(self, server):
        for bad in ["(a|nosuchitem)", "^nosuchitem@2", "nosuchitem ?"]:
            code, body = self._get_error(
                server, "/query?q=" + urllib.parse.quote(bad)
            )
            assert code == 400, bad
            assert "nosuchitem" in body["error"], bad

    def test_empty_query_is_400(self, server):
        for q in ("/query?q=", "/query?q=%20%20", "/count?q="):
            code, body = self._get_error(server, q)
            assert code == 400, q

    def test_batch_over_query_limit_is_400(self, server):
        from repro.serve.http import MAX_BATCH

        code, body = self._post_error(
            server, "/batch", {"queries": ["a"] * (MAX_BATCH + 1)}
        )
        assert code == 400
        assert "exceeds limit" in body["error"]

    def test_batch_over_body_limit_is_400(self, server):
        """A Content-Length past the 1 MiB cap is refused up front —
        before the body is read — so the client sees the 400 instead of
        a broken pipe mid-upload."""
        import socket

        sock = socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=10
        )
        try:
            sock.sendall(
                b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 2097152\r\n\r\n"
            )
            response = b""
            while b"exceeds" not in response:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
            assert response.startswith(b"HTTP/1.1 400")
            assert b"exceeds" in response
        finally:
            sock.close()

    def test_batch_bad_query_is_isolated_not_fatal(self, server):
        status, body = _post(
            server, "/batch", {"queries": ["a ?", "(a|", "nosuchitem"]}
        )
        assert status == 200
        results = body["results"]
        assert "matches" in results[0]
        assert "error" in results[1] and "error" in results[2]


class _CorruptBackend(PatternSearchBase):
    """Backend stub whose every search trips integrity validation, the
    way a store with rotten postings would."""

    def __len__(self):
        return 0

    def estimate_cost(self, query):
        return None  # nothing readable to price

    def search_answer(self, query, limit=None, min_freq=None, cost=None):
        from repro.errors import StoreCorruptError
        from repro.query.tokens import normalize_query

        normalize_query(query)  # syntax errors must still win a 400
        raise StoreCorruptError("checksum mismatch in postings section")

    def top(self, n):
        from repro.errors import StoreCorruptError

        raise StoreCorruptError("checksum mismatch in patterns section")


class TestCorruptStoreIs503:
    @pytest.fixture
    def corrupt_server(self):
        service = QueryService(_CorruptBackend())
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def _expect(self, code, fn):
        try:
            fn()
        except urllib.error.HTTPError as exc:
            assert exc.code == code
            return json.loads(exc.read())
        pytest.fail(f"expected HTTP {code}")

    def test_query_is_503(self, corrupt_server):
        body = self._expect(
            503, lambda: _get(corrupt_server, "/query?q=a")
        )
        assert "checksum mismatch" in body["error"]

    def test_topk_is_503(self, corrupt_server):
        self._expect(503, lambda: _get(corrupt_server, "/topk?n=3"))

    def test_batch_is_503_not_per_query_error(self, corrupt_server):
        self._expect(
            503,
            lambda: _post(
                corrupt_server, "/batch", {"queries": ["a", "b"]}
            ),
        )

    def test_malformed_query_still_400(self, corrupt_server):
        # client errors keep their status even on a corrupt replica
        self._expect(
            400, lambda: _get(corrupt_server, "/query?q=%28a%7C")
        )


class TestConcurrency:
    def test_parallel_clients_get_identical_answers(
        self, server, mining_result
    ):
        """Many threads hammer the server; every response is exact."""
        index = PatternIndex.from_result(mining_result)
        queries = ["a ?", "^B ?", "? ? ?", "a * c", "+"]
        expected = {
            q: [
                {"pattern": m.render(), "frequency": m.frequency}
                for m in index.search(q, limit=10)
            ]
            for q in queries
        }
        failures: list[str] = []

        def client(worker: int) -> None:
            for i in range(10):
                query = queries[(worker + i) % len(queries)]
                try:
                    status, body = _get(
                        server, "/query?q=" + urllib.parse.quote(query)
                    )
                    if status != 200 or body["matches"] != expected[query]:
                        failures.append(f"{query}: {body}")
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(f"{query}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures[:3]

        status, stats = _get(server, "/stats")
        assert stats["queries"] >= 80
        assert stats["errors"] == 0


class TestLatencyHistogramExposition:
    def test_metrics_histogram_per_endpoint(self, server):
        """Every tracked endpoint grows a labeled latency histogram
        (bucket/sum/count triplet with cumulative le buckets)."""
        _get(server, "/query?q=a+%3F")
        _get(server, "/count?q=a+%3F")
        status, _ = _get(server, "/stats")
        assert status == 200
        url = f"http://127.0.0.1:{server.server_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        lines = text.splitlines()
        assert "# TYPE lash_request_latency_seconds histogram" in lines
        samples = {}
        for line in lines:
            if line.startswith("lash_request_latency_seconds"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        for endpoint in ("query", "count", "stats"):
            label = f'endpoint="{endpoint}"'
            inf = samples[
                f'lash_request_latency_seconds_bucket{{{label},le="+Inf"}}'
            ]
            count = samples[f"lash_request_latency_seconds_count{{{label}}}"]
            assert inf == count >= 1
            assert samples[
                f"lash_request_latency_seconds_sum{{{label}}}"
            ] >= 0.0
        # buckets are cumulative in increasing le order
        prefix = 'lash_request_latency_seconds_bucket{endpoint="query",le="'
        by_bound = {}
        for name, value in samples.items():
            if name.startswith(prefix):
                bound = name[len(prefix):].rstrip('"}')
                by_bound[
                    float("inf") if bound == "+Inf" else float(bound)
                ] = value
        ordered = [by_bound[bound] for bound in sorted(by_bound)]
        assert ordered == sorted(ordered)

    @pytest.mark.parametrize("client_gone", [False, True])
    def test_latency_is_observed_before_the_first_response_byte(
        self, mining_result, client_gone
    ):
        """A client that has read its answer must find it counted by
        whatever it asks next (``/metrics`` right after ``/stats``), so
        the observation precedes the first write — and a client that
        hung up before any response still gets its request counted."""
        events: list[str] = []

        class Recording(QueryService):
            def observe_latency(self, endpoint, seconds):
                events.append(f"observe {endpoint}")
                super().observe_latency(endpoint, seconds)

        class FakeSocket:
            def settimeout(self, timeout):
                pass

            def makefile(self, mode, buffering):
                return io.BytesIO(
                    b"GET /query?q=a+%3F HTTP/1.1\r\n"
                    b"Host: test\r\nConnection: close\r\n\r\n"
                )

            def sendall(self, data):
                if client_gone:
                    raise BrokenPipeError
                events.append("write")

        service = Recording(PatternIndex.from_result(mining_result))
        PatternRequestHandler(
            FakeSocket(),
            ("127.0.0.1", 0),
            types.SimpleNamespace(service=service),
        )
        assert events[0] == "observe query"
        assert events.count("observe query") == 1
        assert ("write" in events) is not client_gone
        assert service.stats()["request_latency"]["query"]["count"] == 1

    def test_errors_are_observed_too(self, server):
        with pytest.raises(urllib.error.HTTPError):
            _get(server, "/query?q=%28broken")
        status, stats = _get(server, "/stats")
        assert status == 200
        assert stats["request_latency"]["query"]["count"] >= 1

    def test_unknown_paths_not_labeled(self, server):
        with pytest.raises(urllib.error.HTTPError):
            _get(server, "/nope")
        _, stats = _get(server, "/stats")
        assert "nope" not in stats.get("request_latency", {})

    def test_generation_gauge_for_sharded_store(self, server):
        url = f"http://127.0.0.1:{server.server_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        lines = text.splitlines()
        if any(line.startswith("lash_store_shards") for line in lines):
            assert any(
                line.startswith("lash_store_generation ") for line in lines
            )


@pytest.mark.parametrize("server", ["single", "sharded"], indirect=True)
class TestMinFreqAndNegationOverHTTP:
    """Phase-2 query-language features at the HTTP surface: the σ
    override as a request parameter, negation served when positive
    tokens anchor it and refused when the query is all-negative."""

    def test_min_freq_filters_server_side(self, server):
        _, full = _get(server, "/query?q=%2B&limit=100")
        frequencies = sorted(
            (m["frequency"] for m in full["matches"]), reverse=True
        )
        threshold = frequencies[len(frequencies) // 2]
        _, floored = _get(
            server, f"/query?q=%2B&limit=100&min_freq={threshold}"
        )
        assert floored["matches"] == [
            m for m in full["matches"] if m["frequency"] >= threshold
        ]
        assert floored["count"] == len(floored["matches"])
        assert floored["min_freq"] == threshold

    def test_count_accepts_min_freq(self, server):
        _, full = _get(server, "/count?q=%2B")
        _, floored = _get(server, "/count?q=%2B&min_freq=1000000")
        assert floored["count"] == 0 < full["count"]
        assert floored["min_freq"] == 1000000

    def test_batch_body_min_freq(self, server):
        _, body = _post(
            server,
            "/batch",
            {"queries": ["+", "a *"], "limit": 100, "min_freq": 2},
        )
        for result in body["results"]:
            assert result["min_freq"] == 2
            assert all(m["frequency"] >= 2 for m in result["matches"])

    def test_negation_and_gap_queries_answer(self, server):
        query = urllib.parse.quote("a !c *{0,1}")
        status, body = _get(server, f"/query?q={query}")
        assert status == 200
        assert all("c" not in m["pattern"].split()[1:2] for m in body["matches"])

    def _expect_400(self, server, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, path)
        assert err.value.code == 400
        return json.loads(err.value.read())

    def test_all_negative_query_is_400(self, server):
        body = self._expect_400(
            server, "/query?q=" + urllib.parse.quote("!a ?")
        )
        assert "all-negative" in body["error"]

    def test_bad_min_freq_is_400(self, server):
        body = self._expect_400(server, "/query?q=a&min_freq=-1")
        assert "min_freq" in body["error"]
        body = self._expect_400(server, "/query?q=a&min_freq=many")
        assert "min_freq" in body["error"]

    def test_batch_bad_min_freq_is_400(self, server):
        for bad in (-1, "3", True):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server, "/batch", {"queries": ["a"], "min_freq": bad})
            assert err.value.code == 400

    def test_batch_isolates_all_negative_query(self, server):
        _, body = _post(
            server, "/batch", {"queries": ["a *", "!a"]}
        )
        results = body["results"]
        assert "error" not in results[0]
        assert "all-negative" in results[1]["error"]
