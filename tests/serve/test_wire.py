"""The router-to-shard-server wire: one hello, four ops, one rule each.

A routed miss and a routed ``/batch`` travel as the same ``search``
frame, so a damaged replica fails over on both paths alike; health is
a mux ``ping`` that reads a busy server as alive; and a raw client gets
a typed error — not a pinned worker, not a dropped connection — for a
malformed ``search`` frame.  The version check happens once, in the
hello.
"""

from __future__ import annotations

import json
import shutil
import socket
import struct
import threading

import pytest

from repro.core import Lash, MiningParams
from repro.errors import (
    EncodingError,
    InvalidParameterError,
    ServerBusyError,
    StoreCorruptError,
)
from repro.query import parse_query
from repro.serve import QueryService, open_store
from repro.serve.distributed import ShardServer
from repro.serve.format import HEADER_SIZE, MANIFEST_NAME, SECTIONS_STRUCT
from repro.serve.protocol import (
    MAX_BATCH,
    PROTOCOL_VERSION,
    decode_error,
    hello_request,
    recv_message,
    send_message,
)
from repro.serve.router import ClusterMap, RouterBackend, ServerSpec, ShardClient
from tests.conftest import paper_database, paper_hierarchy
from tests.serve.test_fabric import _search_frame

PATTERN_OFFSETS = 2  # section index of the pattern-offset table


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """The paper example (σ=2, γ=1, λ=3) as a 2-shard store."""
    result = Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        paper_database(), paper_hierarchy()
    )
    path = tmp_path_factory.mktemp("wire") / "patterns.shards"
    result.to_store(path, shards=2)
    return path


@pytest.fixture(scope="module")
def damaged_path(store_path, tmp_path_factory):
    """A copy whose shard-0 pattern-offset entry 1 is one byte off.
    Shards open lazily, so a server mounts it and the damage surfaces
    when a query first touches shard 0: as a checksum mismatch on a
    verifying open, in the decoders without the sweep."""
    path = tmp_path_factory.mktemp("wire-damaged") / "patterns.shards"
    shutil.copytree(store_path, path)
    manifest = json.loads((path / MANIFEST_NAME).read_text("utf-8"))
    shard = path / manifest["shard_files"][0]
    data = bytearray(shard.read_bytes())
    bounds = SECTIONS_STRUCT.unpack_from(
        data, HEADER_SIZE - SECTIONS_STRUCT.size
    )
    entry = bounds[PATTERN_OFFSETS] + 4
    (offset,) = struct.unpack_from("<I", data, entry)
    struct.pack_into("<I", data, entry, offset + 1)
    shard.write_bytes(bytes(data))
    return path


def _cluster(*servers) -> ClusterMap:
    """Every server holds every shard; pins follow argument order."""
    specs = [ServerSpec(*server.address) for server in servers]
    return ClusterMap(
        specs,
        num_shards=2,
        placement={shard: [spec.key for spec in specs] for shard in (0, 1)},
    )


# ----------------------------------------------------------------------
# a damaged replica fails over on every path
# ----------------------------------------------------------------------


QUERIES = ["? ?", "a ?"]


def test_damaged_replica_fails_over_on_query_count_and_batch(
    store_path, damaged_path
):
    with open_store(store_path) as mono:
        service = QueryService(mono)
        want_query = [service.query(q) for q in QUERIES]
        want_count = [service.count(q) for q in QUERIES]
        want_batch = service.batch(QUERIES)
    # the damage is real: the damaged copy cannot answer either query
    with open_store(damaged_path, verify_checksums=False) as damaged:
        for query in QUERIES:
            with pytest.raises(StoreCorruptError):
                damaged.search(query)
    for path in ("batch", "query", "count"):
        with ShardServer(
            damaged_path, http_port=None
        ) as damaged, ShardServer(store_path, http_port=None) as replica:
            router = RouterBackend(_cluster(damaged, replica))
            try:
                service = QueryService(router, cache_size=0)
                if path == "batch":
                    assert service.batch(QUERIES) == want_batch
                elif path == "query":
                    assert [service.query(q) for q in QUERIES] == want_query
                else:
                    assert [service.count(q) for q in QUERIES] == want_count
                assert router.describe()["server_failures"] >= 1
            finally:
                router.close()


# ----------------------------------------------------------------------
# health is a ping; busy is alive
# ----------------------------------------------------------------------


class BlockingShardServer(ShardServer):
    """Holds every ``status`` request until ``release`` is set."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def dispatch(self, request):
        if isinstance(request, dict) and request.get("op") == "status":
            self.entered.set()
            self.release.wait(10)
        return super().dispatch(request)


def test_busy_server_pings_healthy_and_sheds_searches(store_path):
    with BlockingShardServer(
        store_path, http_port=None, workers=1
    ) as busy, ShardServer(store_path, http_port=None) as replica:
        holder = ShardClient(*busy.address)
        blocked = threading.Thread(
            target=holder.request, args=({"op": "status"}, 10)
        )
        router = RouterBackend(_cluster(busy, replica))
        try:
            blocked.start()
            assert busy.entered.wait(5)  # the one worker is taken
            # ... and so is the rest of the cap (2 x workers)
            assert busy._acquire_slot()
            pinger = ShardClient(*busy.address)
            try:
                with pytest.raises(ServerBusyError):
                    pinger.request({"op": "ping"}, 5)
            finally:
                pinger.close()
            busy_key = ServerSpec(*busy.address).key
            assert router.check_health() == {
                busy_key: True,
                ServerSpec(*replica.address).key: True,
            }
            with open_store(store_path) as mono:
                want = mono.search(parse_query("? ?"))
            answer = router.search_answer(parse_query("? ?"))
            assert answer.matches == want and answer.partial is None
            info = router.describe()
            assert info["busy_sheds"] >= 1
            assert info["server_failures"] == 0
            assert router.healthy_servers()[busy_key] is True
        finally:
            busy._release_slot()
            busy.release.set()
            blocked.join(timeout=10)
            holder.close()
            router.close()
        assert not blocked.is_alive()


# ----------------------------------------------------------------------
# hostile frames from a raw client
# ----------------------------------------------------------------------


GOOD = {"tokens": [["any"], ["any"]], "limit": None, "min_freq": None}


class TestHostileSearchFrames:
    @pytest.fixture
    def served(self, store_path):
        with ShardServer(store_path, http_port=None) as server:
            client = ShardClient(*server.address)
            try:
                yield server, client
            finally:
                client.close()

    @staticmethod
    def _still_answers(client) -> None:
        assert client.request({"op": "ping"}, 5)["ok"] is True

    def test_queries_not_a_list(self, served):
        _, client = served
        with pytest.raises(InvalidParameterError, match="'queries'"):
            client.request({**_search_frame(), "queries": GOOD}, 5)
        self._still_answers(client)

    def test_entry_not_a_dict(self, served):
        _, client = served
        frame = {**_search_frame(), "queries": [["any"], GOOD]}
        bad, good = client.request(frame, 5)["results"]
        error = decode_error(bad["error"])
        assert isinstance(error, InvalidParameterError)
        assert "dict" in str(error)
        assert good["records"]
        self._still_answers(client)

    def test_entry_with_malformed_tokens(self, served):
        _, client = served
        for tokens in ("? ?", [["nope"]], [[]], [["gap", "x"]]):
            (bad,) = client.request(
                _search_frame({**GOOD, "tokens": tokens}), 5
            )["results"]
            assert isinstance(decode_error(bad["error"]), EncodingError)
        self._still_answers(client)

    def test_oversized_frame_is_refused_before_any_entry_runs(self, served):
        server, client = served
        ran = []
        search_one = server._search_one

        def counted(entry, shards):
            ran.append(entry)
            return search_one(entry, shards)

        server._search_one = counted
        with pytest.raises(InvalidParameterError, match=str(MAX_BATCH)):
            client.request(_search_frame(*[GOOD] * (MAX_BATCH + 1)), 30)
        assert ran == []
        # the bound is inclusive
        frame = _search_frame(*[GOOD] * MAX_BATCH)
        results = client.request(frame, 30)["results"]
        assert len(results) == len(ran) == MAX_BATCH
        self._still_answers(client)

    def _hello_is_refused(self, served, version: int) -> None:
        server, client = served
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_message(sock, {**hello_request(), "v": version})
            error = decode_error(recv_message(sock)["error"])
            assert isinstance(error, EncodingError)
            assert (
                f"version {version} (expected {PROTOCOL_VERSION})"
                in str(error)
            )
            assert PROTOCOL_VERSION != version
            assert sock.recv(1) == b""  # refused, then closed
        finally:
            sock.close()
        self._still_answers(client)

    def test_old_version_hello_is_refused_naming_both(self, served):
        self._hello_is_refused(served, 1)

    def test_revision_2_hello_is_refused(self, served):
        """Revision 2 still had a ``top`` op; a peer of it is turned
        away at the hello, typed, before it can send one."""
        self._hello_is_refused(served, 2)

    def test_top_op_is_unknown(self, served):
        """Top-k is a ``search`` of ``+``: the retired op is refused
        like any unknown one, and the connection keeps serving."""
        _, client = served
        with pytest.raises(InvalidParameterError, match="unknown op 'top'"):
            client.request({"op": "top", "n": 1}, 5)
        self._still_answers(client)
