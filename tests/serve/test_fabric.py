"""Failure surface of the pipelined, compressed serving fabric.

The multiplexed wire path must be invisible when everything works —
byte-identical answers, same error types — and must fail cleanly when
it breaks: a connection dying mid-pipeline fails over every in-flight
request through the replica path, a peer that does not open with this
protocol version's hello gets one typed error and a closed connection,
and a saturated front end answers a typed, retryable busy signal
instead of queueing without bound.
"""

from __future__ import annotations

import contextlib
import gzip
import http.client
import json
import random
import re
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
import zlib

import pytest

from repro.core import Lash, MiningParams
from repro.errors import (
    EncodingError,
    ReproError,
    ServerBusyError,
)
from repro.io.codec import write_uvarint
from repro.hierarchy import Hierarchy
from repro.query import parse_query
from repro.sequence import SequenceDatabase
from repro.serve import QueryService, create_server, open_store
from repro.serve.distributed import POLL_INTERVAL, ShardServer
from repro.serve import protocol
from repro.serve import router as router_module
from repro.serve.protocol import (
    DEFAULT_COMPRESS_THRESHOLD,
    FLAG_COMPRESSED,
    PROTOCOL_VERSION,
    WireStats,
    check_hello,
    hello_request,
    hello_response,
    read_hello_response,
    recv_message,
    recv_mux,
    send_message,
    send_mux,
)
from repro.serve.router import ClusterMap, RouterBackend, ServerSpec, ShardClient

NUM_SHARDS = 4

QUERIES = ["? ?", "a ?", "^B +", "a * c", "(a|^B) ?", "!a ^B", "?@2"]


@pytest.fixture(scope="module")
def mined():
    hierarchy = Hierarchy()
    for name, parent in [
        ("A", None), ("B", None), ("a", "A"), ("b", "B"),
        ("c", "A"), ("d", "B"), ("e", None),
    ]:
        hierarchy.add_item(name, parent)
    rng = random.Random(20260808)
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
    path = tmp_path_factory.mktemp("fabric") / "patterns.shards"
    mined.to_store(path, shards=NUM_SHARDS)
    return path


@pytest.fixture(scope="module")
def expected(mined, store_path):
    """Single-process ground truth per query."""
    with open_store(store_path) as mono:
        return {
            query: [
                (m.pattern, m.frequency)
                for m in mono.search(parse_query(query))
            ]
            for query in QUERIES
        }


def _cluster_for(servers, num_shards=NUM_SHARDS, full_replica=None):
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


def _search_frame(*entries, shards=None) -> dict:
    """A ``search`` frame of one unbounded entry per wire token list
    (an entry given as a dict goes in as it is)."""
    return {
        "op": "search",
        "shards": shards,
        "queries": [
            entry if isinstance(entry, dict)
            else {"tokens": entry, "limit": None, "min_freq": None}
            for entry in entries
        ],
    }


def _entry_pairs(entry):
    return [(tuple(names), freq) for _, freq, names in entry["records"]]


# ----------------------------------------------------------------------
# mux framing + compression (protocol level)
# ----------------------------------------------------------------------


def _raw_frame(flags: int, request_id: int, payload: bytes) -> bytes:
    """A mux frame assembled by hand, so tests can send what
    :func:`send_mux` never would."""
    body = bytearray((flags,))
    write_uvarint(body, request_id)
    body += payload
    frame = bytearray()
    write_uvarint(frame, len(body))
    return bytes(frame + body)


def _deflated_frame(request_id: int, raw: bytes) -> bytes:
    return _raw_frame(FLAG_COMPRESSED, request_id, zlib.compress(raw, 6))


#: 16 MiB of zeros deflating to ~16 KiB: a legal frame on the wire that
#: must not be allowed to allocate its inflated size
_BOMB = _deflated_frame(1, b"\x00" * (1 << 24))


class TestMuxFraming:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5)
        right.settimeout(5)
        return left, right

    def test_round_trip_out_of_order_ids(self):
        left, right = self._pair()
        try:
            send_mux(left, 7, {"op": "ping"})
            send_mux(left, 3, ["second"])
            rid, value = recv_mux(right)
            assert (rid, value) == (7, {"op": "ping"})
            rid, value = recv_mux(right)
            assert (rid, value) == (3, ["second"])
        finally:
            left.close()
            right.close()

    def test_compresses_above_threshold_only(self):
        big = {"payload": "x" * (4 * DEFAULT_COMPRESS_THRESHOLD)}
        small = {"payload": "y"}
        for value, want_compressed in ((big, True), (small, False)):
            left, right = self._pair()
            try:
                from repro.serve.protocol import WireStats

                sent, received = WireStats(), WireStats()
                send_mux(
                    left, 1, value, DEFAULT_COMPRESS_THRESHOLD, sent
                )
                rid, decoded = recv_mux(right, received)
                assert rid == 1 and decoded == value
                snap = sent.snapshot()
                assert (
                    snap["compressed_frames_sent"] == int(want_compressed)
                )
                if want_compressed:
                    assert snap["wire_bytes_sent"] < snap["raw_bytes_sent"]
                assert (
                    received.snapshot()["compressed_frames_received"]
                    == int(want_compressed)
                )
            finally:
                left.close()
                right.close()

    def test_exactly_threshold_is_not_compressed(self):
        # the contract is strictly-greater-than: a payload of exactly
        # threshold bytes ships raw
        left, right = self._pair()
        try:
            from repro.serve.protocol import WireStats

            value = {"p": "z" * 100}
            # thresholds compare against the payload as encoded for the
            # wire — compact JSON for JSON-representable values
            threshold = len(
                json.dumps(value, separators=(",", ":")).encode("utf-8")
            )
            stats = WireStats()
            send_mux(left, 1, value, threshold, stats)
            _, decoded = recv_mux(right)
            assert decoded == value
            assert stats.snapshot()["compressed_frames_sent"] == 0
        finally:
            left.close()
            right.close()

    def test_unencodable_value_raises_at_the_sender(self):
        # mux payloads are JSON only: bytes have no encoding, and
        # nothing may reach the peer
        left, right = self._pair()
        try:
            with pytest.raises(EncodingError):
                send_mux(left, 7, {"blob": b"\x00\xff" * 10}, None)
            send_mux(left, 8, {"op": "ping"})
            assert recv_mux(right) == (8, {"op": "ping"})
        finally:
            left.close()
            right.close()

    def test_unknown_flag_bit_is_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(_raw_frame(0x02, 1, b"{}"))
            with pytest.raises(EncodingError, match="flags"):
                recv_mux(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "frame",
        [
            b"\x00",  # empty body
            _raw_frame(0, 1, b"{not json"),
            _raw_frame(FLAG_COMPRESSED, 1, b"not a deflate stream"),
        ],
    )
    def test_garbage_frames_are_typed_errors(self, frame):
        left, right = self._pair()
        try:
            left.sendall(frame)
            with pytest.raises(EncodingError):
                recv_mux(right)
        finally:
            left.close()
            right.close()

    #: MAX_FRAME_BYTES the inflation tests patch in
    LIMIT = 1 << 16

    def test_bomb_is_rejected_without_inflating_it(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", self.LIMIT)
        left, right = self._pair()
        try:
            left.sendall(_BOMB)
            tracemalloc.start()
            try:
                with pytest.raises(EncodingError, match="exceeds limit"):
                    recv_mux(right)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 22, f"inflated {peak} bytes past the limit"
        finally:
            left.close()
            right.close()

    def test_frame_at_the_limit_still_decodes(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", self.LIMIT)
        text = "x" * (self.LIMIT - 2)  # the JSON quotes make it LIMIT
        left, right = self._pair()
        try:
            left.sendall(_deflated_frame(5, f'"{text}"'.encode()))
            assert recv_mux(right) == (5, text)
            left.sendall(_deflated_frame(6, f'"{text}y"'.encode()))
            with pytest.raises(EncodingError, match="exceeds limit"):
                recv_mux(right)
        finally:
            left.close()
            right.close()

    def test_truncated_deflate_stream_is_rejected(self):
        left, right = self._pair()
        try:
            deflated = zlib.compress(b'"' + b"v" * 4096 + b'"')
            left.sendall(_raw_frame(FLAG_COMPRESSED, 1, deflated[:-8]))
            with pytest.raises(EncodingError, match="corrupt compressed"):
                recv_mux(right)
        finally:
            left.close()
            right.close()

    def test_server_drops_a_connection_that_sends_a_bomb(
        self, store_path, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", self.LIMIT)
        with ShardServer(store_path, http_port=None) as server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                send_message(sock, hello_request())
                assert recv_message(sock)["ok"] is True
                sock.sendall(_BOMB)
                assert sock.recv(1) == b""  # hung up, no answer
            finally:
                sock.close()
            # the server itself is unharmed
            client = ShardClient(*server.address)
            try:
                assert client.request({"op": "ping"}, timeout=5)["ok"]
            finally:
                client.close()


# ----------------------------------------------------------------------
# mixed versions: a cluster is single-version, anything else is refused
# ----------------------------------------------------------------------


class _RefusingServer:
    """A peer that answers every connection's first frame with one
    typed error frame and hangs up — what a shard server of another
    protocol version looks like to this build's client."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                recv_message(conn)
                send_message(
                    conn,
                    {
                        "error": {
                            "type": "EncodingError",
                            "message": "unsupported protocol version 1",
                        }
                    },
                )

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class _DecliningServer:
    """A peer that accepts the hello but declines zlib, then answers
    every mux frame with ``{"ok": True}`` — how a shard server that
    does not compress looks to this build's client."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.offers: list = []
        self.stats = WireStats()
        self._conn: socket.socket | None = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._conn = conn
            with conn:
                self.offers.append(check_hello(recv_message(conn)))
                send_message(conn, hello_response(None))
                while True:
                    try:
                        request_id, _ = recv_mux(conn, self.stats)
                    except (EOFError, OSError):
                        break
                    send_mux(conn, request_id, {"ok": True})

    def close(self) -> None:
        if self._conn is not None:
            # wakes the frame loop: a client's close() alone does not
            # interrupt its own reader, so no EOF may have arrived
            with contextlib.suppress(OSError):
                self._conn.shutdown(socket.SHUT_RDWR)
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestMixedVersions:
    def _first_frame_is_refused(self, server, frame, match):
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_message(sock, frame)
            answer = recv_message(sock)
            assert answer["error"]["type"] == "EncodingError"
            assert match in answer["error"]["message"]
            assert sock.recv(1) == b""  # one error frame, then EOF
        finally:
            sock.close()

    def test_old_client_against_new_server(self, store_path):
        with ShardServer(store_path, http_port=None) as server:
            client = ShardClient(*server.address)
            try:
                client.request({"op": "ping"}, timeout=5)
                # a peer that skips the hello — the retired
                # one-request-at-a-time framing did exactly this
                self._first_frame_is_refused(
                    server, {"v": PROTOCOL_VERSION, "op": "ping"}, "hello"
                )
                self._first_frame_is_refused(server, ["not", "a", "dict"], "hello")
                # connections made before and after keep being served
                assert client.request({"op": "ping"}, timeout=5)["ok"]
                fresh = ShardClient(*server.address)
                try:
                    assert fresh.request({"op": "ping"}, timeout=5)["ok"]
                finally:
                    fresh.close()
            finally:
                client.close()

    def test_undecodable_first_frame_gets_one_error_then_eof(
        self, store_path
    ):
        with ShardServer(store_path, http_port=None) as server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                sock.sendall(bytes((2, 0xEE, 0xEE)))  # unknown type tag
                assert recv_message(sock)["error"]["type"] == "EncodingError"
                assert sock.recv(1) == b""
            finally:
                sock.close()

    def test_wrong_version_hello_is_refused(self, store_path):
        with ShardServer(store_path, http_port=None) as server:
            self._first_frame_is_refused(
                server,
                {**hello_request(), "v": PROTOCOL_VERSION + 1},
                "unsupported protocol version",
            )
            # revision 2 still had a ``top`` op: refused before it can
            # send one
            self._first_frame_is_refused(
                server,
                {**hello_request(), "v": 2},
                f"unsupported protocol version 2 (expected {PROTOCOL_VERSION})",
            )
            self._first_frame_is_refused(
                server, {"op": "hello", "zlib": True}, "version"
            )
            self._first_frame_is_refused(
                server,
                {"v": PROTOCOL_VERSION, "op": "hello", "features": ["mux"]},
                "zlib",
            )

    def test_new_client_against_old_server(self):
        peer = _RefusingServer()
        try:
            client = ShardClient(*peer.address)
            try:
                with pytest.raises(EncodingError, match="protocol version"):
                    client.request({"op": "ping"}, timeout=5)
                # no downgrade state: the next request dials and is
                # refused again, it does not hang or change framing
                with pytest.raises(EncodingError):
                    client.request({"op": "ping"}, timeout=5)
            finally:
                client.close()
            # the router surfaces it as the answer instead of a hang
            cluster = ClusterMap(
                [ServerSpec(*peer.address)], num_shards=1
            )
            router = RouterBackend(cluster, deadline=5)
            try:
                with pytest.raises(ReproError, match="protocol version"):
                    router.search(parse_query("a ?"))
            finally:
                router.close()
        finally:
            peer.close()

    def test_unencodable_request_leaves_the_connection_usable(
        self, store_path
    ):
        with ShardServer(store_path, http_port=None) as server:
            client = ShardClient(*server.address)
            try:
                with pytest.raises(EncodingError):
                    client.request({"op": "ping", "blob": b"x"}, timeout=5)
                assert client.request({"op": "ping"}, timeout=5)["ok"]
                assert client.stats()["in_flight"] == 0
                assert not client._mux.pending
            finally:
                client.close()

    def test_mux_negotiated_and_identical(self, store_path, expected):
        with ShardServer(store_path, http_port=None) as server:
            cluster = _cluster_for([(server, range(NUM_SHARDS))])
            router = RouterBackend(cluster, deadline=5)
            try:
                for query in QUERIES:
                    assert (
                        _matches(router, parse_query(query))
                        == expected[query]
                    ), query
                wire = router.describe()["wire"]
                assert wire["frames_sent"] > 0
                assert wire["frames_received"] > 0
            finally:
                router.close()

    @pytest.mark.parametrize(
        "response",
        [["ok"], {"ok": False}, {"ok": True, "threshold": "512"}],
    )
    def test_malformed_hello_response_is_a_typed_error(self, response):
        with pytest.raises(EncodingError, match="malformed hello"):
            read_hello_response(response)

    def test_hello_settles_compression(self, store_path):
        """This build's client offers zlib and its server accepts; a
        server that declines (a peer from outside the process) gets
        plain frames from the client."""
        with ShardServer(store_path, http_port=None) as server:
            client = ShardClient(*server.address)
            try:
                assert client.compress_threshold is None  # not dialed
                client.request({"op": "ping"}, timeout=5)
                assert client.compress_threshold == DEFAULT_COMPRESS_THRESHOLD
            finally:
                client.close()
        peer = _DecliningServer()
        try:
            client = ShardClient(*peer.address)
            try:
                big = {
                    "op": "ping",
                    "pad": "x" * (4 * DEFAULT_COMPRESS_THRESHOLD),
                }
                assert client.request(big, timeout=5)["ok"] is True
                assert client.compress_threshold is None
                assert peer.offers == [True]
                snap = peer.stats.snapshot()
                assert snap["frames_received"] == 1
                assert snap["compressed_frames_received"] == 0
                assert (
                    snap["wire_bytes_received"]
                    >= snap["raw_bytes_received"]
                )
            finally:
                client.close()
        finally:
            peer.close()


# ----------------------------------------------------------------------
# end-to-end compression
# ----------------------------------------------------------------------


class TestWireCompression:
    def test_large_responses_compress_small_ones_dont(
        self, store_path, expected
    ):
        with ShardServer(store_path, http_port=None) as server:
            host, port = server.address
            client = ShardClient(host, port)
            try:
                # ping answers are tiny: never compressed
                client.request({"op": "ping"}, timeout=5)
                assert (
                    client.compress_threshold == DEFAULT_COMPRESS_THRESHOLD
                )
                baseline = client.wire_stats.snapshot()
                assert baseline["compressed_frames_received"] == 0
                # the full "? ?" result set is well past the threshold
                response = client.request(
                    _search_frame([["any"], ["any"]]), timeout=5
                )
                (entry,) = response["results"]
                assert _entry_pairs(entry) == expected["? ?"]
                snap = client.wire_stats.snapshot()
                assert snap["compressed_frames_received"] >= 1
                assert (
                    snap["wire_bytes_received"] < snap["raw_bytes_received"]
                )
                assert server.wire_stats.snapshot()[
                    "compressed_frames_sent"
                ] >= 1
            finally:
                client.close()

    def test_compression_off_still_muxes(self, store_path, expected):
        """A client that does not offer zlib (a raw-socket peer here)
        gets the same answers in plain frames."""
        with ShardServer(store_path, http_port=None) as server:
            sock = socket.create_connection(server.address, timeout=5)
            try:
                send_message(sock, {**hello_request(), "zlib": False})
                assert read_hello_response(recv_message(sock)) is None
                send_mux(sock, 1, _search_frame([["any"], ["any"]]))
                stats = WireStats()
                request_id, response = recv_mux(sock, stats)
                assert request_id == 1
                (entry,) = response["results"]
                assert _entry_pairs(entry) == expected["? ?"]
                snap = stats.snapshot()
                assert snap["compressed_frames_received"] == 0
                assert (
                    snap["wire_bytes_received"]
                    >= snap["raw_bytes_received"]
                )
                assert server.wire_stats.snapshot()[
                    "compressed_frames_sent"
                ] == 0
            finally:
                sock.close()


# ----------------------------------------------------------------------
# kill mid-pipeline
# ----------------------------------------------------------------------


class TestKillMidPipeline:
    def test_all_in_flight_requests_fail_promptly(self, store_path):
        """Killing the server fails every request parked in the
        pipeline's in-flight table — no waiter is left hanging for its
        timeout."""
        with ShardServer(store_path, http_port=None) as server:
            host, port = server.address
        # server stopped: now race many requests against a client whose
        # connection just died
        client = ShardClient(host, port)
        with pytest.raises((OSError, ConnectionError)):
            client.request({"op": "ping"}, timeout=2)
        client.close()

    def test_concurrent_queries_fail_over_to_replica(
        self, store_path, expected, monkeypatch
    ):
        """A primary killed with a full pipeline: every in-flight
        request fails over through the normal replica-retry path and
        the merged answers stay byte-identical."""
        primary = ShardServer(store_path, http_port=None).start()
        replica = ShardServer(store_path, http_port=None).start()
        cluster = _cluster_for(
            [(primary, range(NUM_SHARDS))], full_replica=replica
        )
        monkeypatch.setattr(router_module, "PIPELINE_DEPTH", 64)
        router = RouterBackend(cluster, deadline=10)
        results: dict[tuple, list] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            for round_ in range(6):
                query = QUERIES[(index + round_) % len(QUERIES)]
                try:
                    answer = router.search_answer(parse_query(query))
                    got, partial = _pairs(answer.matches), answer.partial
                except Exception as exc:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results[(index, round_, query)] = (got, partial)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        killer = threading.Timer(0.05, primary.stop)
        try:
            for thread in threads:
                thread.start()
            killer.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            assert len(results) == 8 * 6
            for (_, _, query), (got, partial) in results.items():
                assert got == expected[query], query
                # with a full replica alive, nothing may degrade
                assert partial is None
        finally:
            killer.cancel()
            router.close()
            primary.stop()
            replica.stop()


# ----------------------------------------------------------------------
# shutdown, seen from the peer
# ----------------------------------------------------------------------


class TestShutdown:
    def test_client_close_ends_the_connection_at_the_server(
        self, store_path
    ):
        """Closing one side while the other keeps running: after
        ``ShardClient.close()`` the server still up lists no connection
        and the client's reader thread has exited, both within 1 s."""
        with ShardServer(store_path, http_port=None) as server:
            host, port = server.address
            before = set(threading.enumerate())
            client = ShardClient(host, port)
            assert client.request({"op": "ping"}, timeout=5)["ok"]
            (reader,) = [
                thread
                for thread in set(threading.enumerate()) - before
                if thread.name == f"shard-client-{host}:{port}"
            ]
            assert server._tcp.connections
            client.close()
            deadline = time.monotonic() + 1.0
            reader.join(timeout=1.0)
            while server._tcp.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._tcp.connections
            assert not reader.is_alive()

    def test_router_close_ends_every_server_connection(self, store_path):
        """``RouterBackend.close()`` with both servers still up: within
        1 s neither server lists a connection and no reader thread of
        the router's clients is alive."""
        with ShardServer(store_path, http_port=None) as first, ShardServer(
            store_path, http_port=None
        ) as second:
            servers = (first, second)
            before = set(threading.enumerate())
            router = RouterBackend(
                _cluster_for([(first, range(2)), (second, range(2, 4))]),
                deadline=5,
            )
            assert all(router.check_health().values())
            readers = [
                thread
                for thread in set(threading.enumerate()) - before
                if thread.name.startswith("shard-client-")
            ]
            assert len(readers) == 2
            assert all(server._tcp.connections for server in servers)
            router.close()
            deadline = time.monotonic() + 1.0
            for reader in readers:
                reader.join(timeout=max(0.0, deadline - time.monotonic()))
            while time.monotonic() < deadline and any(
                server._tcp.connections for server in servers
            ):
                time.sleep(0.01)
            assert not any(server._tcp.connections for server in servers)
            assert not any(reader.is_alive() for reader in readers)

    def test_keep_alive_client_close_ends_its_handler(self, store_path):
        """A keep-alive HTTP/1.1 client of ``PatternHTTPServer`` closes
        its socket: within 1 s the handler thread that held the
        connection has ended and the front end counts nothing in
        flight."""
        with open_store(store_path) as store:
            server = create_server(QueryService(store), port=0)
            loop = threading.Thread(
                target=server.serve_forever, args=(POLL_INTERVAL,),
                daemon=True,
            )
            loop.start()
            try:
                before = set(threading.enumerate())
                client = http.client.HTTPConnection(
                    "127.0.0.1", server.server_port, timeout=5
                )
                for _ in range(2):  # one connection, two requests
                    client.request("GET", "/healthz")
                    response = client.getresponse()
                    assert response.status == 200
                    response.read()
                (handler,) = [
                    thread
                    for thread in set(threading.enumerate()) - before
                    if "process_request_thread" in thread.name
                ]
                assert server.frontend_stats()["in_flight"] == 1
                client.close()
                deadline = time.monotonic() + 1.0
                handler.join(timeout=1.0)
                while (
                    server.frontend_stats()["in_flight"]
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert not handler.is_alive()
                assert server.frontend_stats()["in_flight"] == 0
            finally:
                server.shutdown()
                server.server_close()
                loop.join(timeout=5)

    def test_server_stop_fails_every_in_flight_request(self, store_path):
        """``ShardServer.stop()`` while one ``ShardClient`` has several
        requests in flight: within 1 s every waiter has a
        ``ConnectionError`` and no ``shard-client-*`` thread is alive."""
        in_flight = 3
        entered = threading.Semaphore(0)
        release = threading.Event()

        class HeldShardServer(ShardServer):
            """Holds every request in ``dispatch`` until released."""

            def dispatch(self, request):
                entered.release()
                release.wait(timeout=10)
                return super().dispatch(request)

        server = HeldShardServer(store_path, http_port=None).start()
        client = ShardClient(*server.address)
        errors: list[BaseException] = []

        def wait_for_answer() -> None:
            try:
                client.request({"op": "ping"}, timeout=10)
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        try:
            before = set(threading.enumerate())
            waiters = [
                threading.Thread(target=wait_for_answer, daemon=True)
                for _ in range(in_flight)
            ]
            for waiter in waiters:
                waiter.start()
            for _ in range(in_flight):
                assert entered.acquire(timeout=5)
            server.stop()
            deadline = time.monotonic() + 1.0
            for waiter in waiters:
                waiter.join(timeout=max(0.0, deadline - time.monotonic()))
            while time.monotonic() < deadline and any(
                thread.name.startswith("shard-client-")
                for thread in set(threading.enumerate()) - before
            ):
                time.sleep(0.01)
            assert not any(waiter.is_alive() for waiter in waiters)
            assert len(errors) == in_flight
            assert all(isinstance(exc, ConnectionError) for exc in errors), (
                errors
            )
            assert not [
                thread.name
                for thread in set(threading.enumerate()) - before
                if thread.name.startswith("shard-client-")
            ]
        finally:
            release.set()
            server.stop()
            client.close()


# ----------------------------------------------------------------------
# batched scatter (one search frame per server + service prefetch)
# ----------------------------------------------------------------------


class TestBatchedScatter:
    def test_search_op_answers_each_entry(self, store_path, expected):
        with ShardServer(store_path, http_port=None) as server:
            host, port = server.address
            client = ShardClient(host, port)
            try:
                response = client.request(
                    _search_frame([["any"], ["any"]], [["item", "zzz"]]),
                    timeout=5,
                )
                results = response["results"]
                assert len(results) == 2
                assert _entry_pairs(results[0]) == expected["? ?"]
                # the bad query fails alone, with its original type
                assert results[1]["error"]["type"] == "UnknownItemError"
            finally:
                client.close()

    @pytest.mark.parametrize("field", ["limit", "min_freq"])
    def test_bad_bound_fails_only_its_own_entry(
        self, store_path, expected, field
    ):
        """A non-integer ``limit`` or ``min_freq`` is a typed error for
        its own ``search`` entry, alone in its frame or not: the
        batchmates are answered and the connection stays usable."""
        good = {"tokens": [["any"], ["any"]], "limit": None, "min_freq": None}
        bad = {**good, field: "x"}

        with ShardServer(store_path, http_port=None) as server:
            client = ShardClient(*server.address)
            try:
                response = client.request(
                    _search_frame(good, bad, good), timeout=5
                )
                first, failed, last = response["results"]
                assert failed["error"]["type"] == "InvalidParameterError"
                assert field in failed["error"]["message"]
                assert (
                    _entry_pairs(first) == _entry_pairs(last)
                    == expected["? ?"]
                )
                (alone,) = client.request(
                    _search_frame(bad), timeout=5
                )["results"]
                assert alone == failed
                (answer,) = client.request(
                    _search_frame(good), timeout=5
                )["results"]
                assert _entry_pairs(answer) == expected["? ?"]
            finally:
                client.close()

    def test_service_batch_identical_to_mono(self, store_path):
        queries = QUERIES + ["zzz not-a-query ((", "a ?"]
        with open_store(store_path) as mono:
            mono_service = QueryService(mono)
            want = mono_service.batch(queries, limit=5)
        with ShardServer(store_path, http_port=None) as server:
            cluster = _cluster_for([(server, range(NUM_SHARDS))])
            router = RouterBackend(cluster, deadline=5)
            try:
                service = QueryService(router)
                # estimated_cost included: the servers' plan prices,
                # summed in shard order, are the local store's
                assert service.batch(queries, limit=5) == want
                # the whole batch was one search scatter
                assert router.describe()["fanouts"] == 1
            finally:
                router.close()

    def test_failed_batch_search_does_not_disable_batching(
        self, store_path
    ):
        class FlakyShardServer(ShardServer):
            """Fails the first ``search`` frame carrying more than one
            query, counts batch and one-query frames apart."""

            batch_frames = 0
            single_frames = 0

            def dispatch(self, request):
                queries = (
                    request.get("queries")
                    if isinstance(request, dict)
                    and request.get("op") == "search"
                    else None
                )
                if isinstance(queries, list) and len(queries) == 1:
                    self.single_frames += 1
                elif isinstance(queries, list):
                    self.batch_frames += 1
                    if self.batch_frames == 1:
                        return {
                            "error": {
                                "type": "ReproError",
                                "message": "internal error: KeyError",
                            }
                        }
                return super().dispatch(request)

        first, second = QUERIES[:4], QUERIES[3:]
        with open_store(store_path) as mono:
            mono_service = QueryService(mono)
            want_first = mono_service.batch(first, limit=5)
            want_second = mono_service.batch(second, limit=5)
        with FlakyShardServer(store_path, http_port=None) as server:
            cluster = _cluster_for([(server, range(NUM_SHARDS))])
            router = RouterBackend(cluster, deadline=5)
            try:
                service = QueryService(router, cache_size=0)
                # the failed scatter costs this batch its batching only:
                # every query falls back to its own fan-out
                assert service.batch(first, limit=5) == want_first
                assert server.batch_frames == 1
                assert server.single_frames == len(first)
                # the next batch is one search frame again
                assert service.batch(second, limit=5) == want_second
                assert server.batch_frames == 2
                assert server.single_frames == len(first)
            finally:
                router.close()


# ----------------------------------------------------------------------
# saturation / backpressure
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_shard_server_sheds_with_busy_error(self, store_path):
        with ShardServer(store_path, http_port=None, workers=1) as server:
            host, port = server.address
            client = ShardClient(host, port)
            try:
                # pin both slots of one worker's cap (2 x workers)
                assert server._acquire_slot() and server._acquire_slot()
                try:
                    with pytest.raises(ServerBusyError) as err:
                        client.request({"op": "ping"}, timeout=5)
                    assert err.value.retry_after >= 1
                finally:
                    server._release_slot()
                    server._release_slot()
                # slot free again: the same connection keeps working
                answer = client.request({"op": "ping"}, timeout=5)
                assert answer["ok"] is True
                status = client.request({"op": "status"}, timeout=5)
                assert status["frontend"]["rejected"] >= 1
                assert status["frontend"]["workers"] == 1
            finally:
                client.close()

    def test_router_retries_busy_server_on_replica(
        self, store_path, expected
    ):
        primary = ShardServer(store_path, http_port=None, workers=1).start()
        replica = ShardServer(store_path, http_port=None).start()
        try:
            cluster = _cluster_for(
                [(primary, range(NUM_SHARDS))], full_replica=replica
            )
            router = RouterBackend(cluster, deadline=5)
            try:
                # saturate the primary: both slots of its cap
                assert primary._acquire_slot() and primary._acquire_slot()
                try:
                    answer = router.search_answer(parse_query("? ?"))
                finally:
                    primary._release_slot()
                    primary._release_slot()
                assert _pairs(answer.matches) == expected["? ?"]
                assert answer.partial is None
                info = router.describe()
                assert info["busy_sheds"] >= 1
                # busy is not dead: the primary stays in the rotation
                primary_key = cluster.replicas(0)[0]
                assert router.healthy_servers()[primary_key] is True
            finally:
                router.close()
        finally:
            primary.stop()
            replica.stop()

    @staticmethod
    def _get(url, timeout=5):
        """Fetch honoring 503 + Retry-After, like a real client: the
        slot is only released after the previous response's bytes hit
        the wire, so back-to-back requests can legitimately be shed."""
        for _ in range(20):
            try:
                with urllib.request.urlopen(url, timeout=timeout) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                if exc.code != 503:
                    raise
                time.sleep(0.05)
        raise AssertionError(f"{url} still busy after retries")

    def test_http_saturation_answers_503_with_retry_after(
        self, store_path
    ):
        with open_store(store_path) as store:
            service = QueryService(store)
            server = create_server(service, port=0, workers=1)
            thread = threading.Thread(
                target=server.serve_forever, args=(POLL_INTERVAL,),
                daemon=True,
            )
            thread.start()
            base = "http://{}:{}".format(*server.server_address[:2])
            try:
                # pin both slots of one worker's cap (2 x workers)
                assert server._acquire_slot() and server._acquire_slot()
                try:
                    with pytest.raises(urllib.error.HTTPError) as err:
                        urllib.request.urlopen(f"{base}/healthz", timeout=5)
                    assert err.value.code == 503
                    assert err.value.headers["Retry-After"] == "1"
                    # the exact count is read in-process, while the slot
                    # is still pinned: nothing else can have been shed
                    assert server.frontend_stats()["rejected"] == 1
                finally:
                    server._release_slot()
                    server._release_slot()
                # drained: served again, and the shed shows on /metrics.
                # A request's slot is released only after its response
                # is on the wire, so each GET below may itself be shed
                # once and retried by _get — the HTTP views are lower
                # bounds, not the exact count
                metrics = self._get(f"{base}/metrics").decode()
                shed = re.search(
                    r"^lash_http_rejected_total (\d+)$", metrics, re.M
                )
                assert shed is not None and int(shed.group(1)) >= 1
                assert "lash_http_in_flight 1" in metrics  # this request
                assert "lash_http_max_in_flight 2" in metrics
                stats = json.loads(self._get(f"{base}/stats"))
                assert stats["frontend"]["rejected"] >= int(shed.group(1))
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)

    def test_http_gzip_round_trip(self, store_path):
        with open_store(store_path) as store:
            service = QueryService(store)
            server = create_server(service, port=0)
            thread = threading.Thread(
                target=server.serve_forever, args=(POLL_INTERVAL,),
                daemon=True,
            )
            thread.start()
            base = "http://{}:{}".format(*server.server_address[:2])
            try:
                url = f"{base}/query?q=%3F+%3F&limit=100"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    plain = resp.read()
                    assert resp.headers.get("Content-Encoding") is None
                request = urllib.request.Request(
                    url, headers={"Accept-Encoding": "gzip"}
                )
                with urllib.request.urlopen(request, timeout=5) as resp:
                    assert resp.headers["Content-Encoding"] == "gzip"
                    body = resp.read()
                assert len(body) < len(plain)
                assert gzip.decompress(body) == plain
                assert server.frontend_stats()["gzipped_responses"] == 1
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)


# ----------------------------------------------------------------------
# pipelining under concurrency (healthy path)
# ----------------------------------------------------------------------


class TestPipelining:
    def test_interleaved_responses_route_to_their_requests(
        self, store_path, expected, monkeypatch
    ):
        """Many threads share one mux connection; every answer must
        come back to the thread that asked."""
        with ShardServer(store_path, http_port=None) as server:
            host, port = server.address
            monkeypatch.setattr(router_module, "PIPELINE_DEPTH", 16)
            client = ShardClient(host, port)
            failures: list = []

            def worker(index: int) -> None:
                query = QUERIES[index % len(QUERIES)]
                tokens = parse_query(query)
                from repro.serve.protocol import encode_tokens

                for _ in range(5):
                    try:
                        response = client.request(
                            _search_frame(encode_tokens(tokens)),
                            timeout=10,
                        )
                        (entry,) = response["results"]
                        if _entry_pairs(entry) != expected[query]:
                            failures.append((query, "mismatch"))
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append((query, exc))

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(12)
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not failures, failures[:3]
                snap = client.wire_stats.snapshot()
                assert snap["frames_sent"] == 12 * 5
                assert snap["frames_received"] == 12 * 5
            finally:
                client.close()
