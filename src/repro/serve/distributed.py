"""Shard servers: one process serving a slice of a sharded store.

One :class:`ShardServer` mounts a subset of the shards named by a
:class:`~repro.serve.sharded.ShardedPatternStore` manifest and answers
**rank-ordered partial results** over the socket protocol of
:mod:`repro.serve.protocol`.  The records it returns carry the *coded*
pattern alongside the decoded names, so the router can k-way merge
partial streams from many servers with the exact
:func:`~repro.query.base.rank_key` order a single-process store uses —
the distributed answer is byte-identical to the in-process one.

A shard server remembers no answers: every ``search`` compiles, plans
and executes against the mounted store (which keeps decoded bytes and
store statistics, nothing per query).  Repeats are absorbed in front of
the fan-out, by the :class:`~repro.serve.service.QueryService` the
router serves through.

The socket protocol is request/response over a persistent connection:
one ``hello`` exchange — the version check and the zlib offer — then
multiplexed frames: many requests in flight, out-of-order responses,
optional zlib (see :mod:`repro.serve.protocol`).  After the hello a
request is one of four ops:

=============  =========================================================
op             answer
=============  =========================================================
``ping``       ``{"ok": True, "patterns": N}`` — liveness; the router's
               health check
``status``     generation + per-shard pattern counts + front-end gauges
               (workers, in-flight, rejected) + wire stats
``search``     one entry per query of ``queries`` (each ``{"tokens",
               "limit", "min_freq"}``, at most
               :data:`~repro.serve.protocol.MAX_BATCH`) under
               ``"results"``: the rank-ordered ``records`` over the
               requested ``shards`` (default: all mounted), cut at
               ``min_freq`` (σ prefix) and ``limit``, plus the ``costs``
               of the plans they ran — or that query's ``{"error"}``.
               A routed miss is a one-entry search, a routed ``/batch``
               one search per server.  Every read of the router is a
               search: ``/topk`` is the ``+`` query cut at ``n``
``estimate``   per-shard planner ``estimates`` for ``tokens`` (the
               router's pre-flight when a ceiling is set)
=============  =========================================================

Every record is ``[coded_ids, frequency, names]``; ``costs`` and
``estimates`` map shard index to exact float work units, which added in
shard order give the in-process store's sum bit for bit.  Errors come
back as ``{"error": {"type", "message"}}`` and re-raise client-side
with their original :mod:`repro.errors` type.

Each server can also run the HTTP layer (:mod:`repro.serve.http`) on a
second port, scoped to its shard slice, for per-server ``/stats`` and
``/metrics``.  The router does not use it: its health checks are
``ping`` frames on the socket above.

Request execution is bounded by a sized worker pool: past the
in-flight cap the server answers :class:`ServerBusyError` immediately
instead of queueing without bound — the router fails the request over
to a replica, and a direct client sees a typed, retryable error.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

from repro.errors import InvalidParameterError, ReproError, ServerBusyError
from repro.query.base import ranked_prefix
from repro.query.cost import combine_estimates
from repro.query.tokens import is_negation_only, normalize_query
from repro.serve.protocol import (
    DEFAULT_COMPRESS_THRESHOLD,
    MAX_BATCH,
    WireStats,
    check_hello,
    decode_tokens,
    encode_error,
    hello_response,
    recv_message,
    recv_mux,
    send_message,
    send_mux,
)
from repro.serve.sharded import ShardedPatternStore

#: seconds between a listener's checks for ``shutdown()``: ``stop()``
#: waits up to this long per listener (socketserver's default is 0.5)
POLL_INTERVAL = 0.05


def parse_shard_list(raw: str) -> tuple[int, ...]:
    """``"0,2,5"`` → ``(0, 2, 5)`` (the CLI's ``--shards`` argument)."""
    try:
        shards = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise InvalidParameterError(
            f"shard list {raw!r} must be comma-separated integers"
        ) from None
    if not shards:
        raise InvalidParameterError(f"shard list {raw!r} names no shards")
    return shards


# ----------------------------------------------------------------------
# partial (per-shard-slice) reads — ShardedPatternStore's own ranked
# streams, restricted to an explicit shard set
# ----------------------------------------------------------------------


def partial_search(
    store: ShardedPatternStore,
    tokens,
    shard_ids: Sequence[int] | None = None,
    limit: int | None = None,
    min_freq: int | None = None,
) -> tuple[list[tuple[tuple[int, ...], int]], dict[int, float]]:
    """Rank-ordered ``(coded, frequency)`` matches over a shard slice:
    the store's own merged search stream narrowed to ``shard_ids``, cut
    at σ and ``limit`` exactly as :meth:`PatternSearchBase.search` cuts
    it — so merging slices reproduces the whole store's answer byte for
    byte.  Returned with the price of the plan each shard ran, by shard.
    """
    compiled = store._compile(normalize_query(tokens))
    priced = _price_slice(store, compiled, shard_ids)
    stream = store._iter_search(
        combine_estimates(priced.values()).plans, shard_ids
    )
    costs = {index: estimate.cost for index, estimate in priced.items()}
    return list(ranked_prefix(stream, limit, min_freq)), costs


def _price_slice(store, compiled, shard_ids) -> dict:
    """One priced plan per shard of the slice (default: every mounted
    one), by shard index."""
    ids = store.owned_shards if shard_ids is None else shard_ids
    return {index: store._shard(index)._price(compiled) for index in ids}


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------


class _ShardTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # a burst of concurrent dials (every router redialing after a
    # restart) can park far more than socketserver's default backlog of
    # 5 in the SYN queue — refused dials there read as server failures,
    # not backpressure
    request_queue_size = 128

    def __init__(self, address, owner: "ShardServer") -> None:
        super().__init__(address, _ShardRequestHandler)
        self.owner = owner
        # open connections, tracked so stop() can break their blocked
        # recv()s: clients must see a *transport* failure from a killed
        # server (and fail over), never a served error response
        self.connections: set = set()
        self.connections_lock = threading.Lock()

    def abort_connections(self) -> None:
        with self.connections_lock:
            conns = list(self.connections)
        for conn in conns:
            try:
                conn.shutdown(2)  # SHUT_RDWR
            except OSError:
                pass


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    """One connection: the ``hello`` exchange, then a multiplexed loop
    where frames are executed on the owner's worker pool and answered
    out of order under a per-connection send lock."""

    def setup(self) -> None:
        # response frames can be small (errors, pings); don't let
        # Nagle delay them behind the previous large frame's ACK
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.connections_lock:
            self.server.connections.add(self.request)

    def finish(self) -> None:
        with self.server.connections_lock:
            self.server.connections.discard(self.request)

    def handle(self) -> None:
        owner = self.server.owner
        sock = self.request
        try:
            try:
                offered = check_hello(recv_message(sock))
            except ReproError as exc:
                # not a peer of this protocol version: say so once, in
                # the hello framing, and hang up
                send_message(sock, {"error": encode_error(exc)})
                return
            # a peer that does not offer zlib gets plain frames
            threshold = DEFAULT_COMPRESS_THRESHOLD if offered else None
            send_message(sock, hello_response(threshold))
        except (EOFError, ConnectionError, OSError):
            return  # client hung up or died before the exchange finished
        send_lock = threading.Lock()
        stats = owner.wire_stats

        def reply(request_id: int, response: dict) -> None:
            try:
                with send_lock:
                    send_mux(sock, request_id, response, threshold, stats)
            except OSError:
                pass  # client went away; the read loop will notice

        while True:
            try:
                request_id, request = recv_mux(sock, stats)
            except EOFError:
                return  # orderly close between frames
            except (ConnectionError, OSError, ReproError):
                return  # client died or sent garbage; drop the link
            if not owner.submit(request_id, request, reply):
                return  # server stopping: hang up mid-pipeline


class ShardServer:
    """Serve a shard slice of one manifest over sockets (plus HTTP).

    Parameters
    ----------
    store_path:
        Sharded-store directory (the manifest names the shard files).
    shard_subset:
        Shard indexes to mount; ``None`` mounts all of them (a fully
        replicated server).
    port / http_port:
        ``0`` binds an ephemeral port; ``http_port=None`` disables the
        HTTP sidecar (per-server ``/stats`` and ``/metrics``; the router
        never needs it).
    workers:
        Size of the request-execution worker pool.  Past ``2 * workers``
        requests in flight (a bounded queue's worth of headroom)
        requests answer :class:`ServerBusyError` instead of queueing
        silently.

    A client's zlib offer in the hello is always accepted: frames above
    :data:`~repro.serve.protocol.DEFAULT_COMPRESS_THRESHOLD` bytes are
    then deflated.  The store opens with its checksums verified.
    """

    def __init__(
        self,
        store_path: str | Path,
        shard_subset: Sequence[int] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: int | None = 0,
        quiet: bool = True,
        workers: int = 8,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {workers}"
            )
        self._store_path = Path(store_path)
        self._subset = (
            None if shard_subset is None else tuple(sorted(set(shard_subset)))
        )
        self._host = host
        self._port = port
        self._http_port = http_port
        self._quiet = quiet
        self._workers = workers
        self._max_in_flight = 2 * workers
        self.wire_stats = WireStats()
        self._store: ShardedPatternStore | None = None
        self._tcp: _ShardTCPServer | None = None
        self._http = None
        self._pool: ThreadPoolExecutor | None = None
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._in_flight = 0
        self._rejected = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def store(self) -> ShardedPatternStore:
        if self._store is None:
            raise RuntimeError("shard server is not started")
        return self._store

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` of the socket endpoint (after :meth:`start`)."""
        assert self._tcp is not None, "shard server is not started"
        return self._tcp.server_address[:2]

    @property
    def http_address(self) -> tuple[str, int] | None:
        if self._http is None:
            return None
        return self._http.server_address[:2]

    def start(self) -> "ShardServer":
        """Mount the shard slice and serve both endpoints from
        background threads; returns self for chaining."""
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="shard-worker"
        )
        self._store = ShardedPatternStore(
            self._store_path, shard_subset=self._subset
        )
        self._tcp = _ShardTCPServer((self._host, self._port), self)
        thread = threading.Thread(
            target=self._tcp.serve_forever,
            args=(POLL_INTERVAL,),
            name="shard-serve-tcp",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)
        if self._http_port is not None:
            from repro.serve.http import create_server
            from repro.serve.service import QueryService

            # answers are remembered in front of the fan-out only
            self._service = QueryService(self._store, cache_size=0)
            self._http = create_server(
                self._service, self._host, self._http_port, quiet=self._quiet
            )
            thread = threading.Thread(
                target=self._http.serve_forever,
                args=(POLL_INTERVAL,),
                name="shard-serve-http",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop serving and release the store (idempotent, and safe to
        call from several threads at once — each resource is claimed
        atomically so racing stops never double-close).

        Open connections are aborted, not drained: a client mid-query
        sees the connection die (and fails over to a replica), which is
        exactly what a crashed server would look like."""
        self._stopping = True
        with self._lock:
            tcp, self._tcp = self._tcp, None
            http, self._http = self._http, None
            pool, self._pool = self._pool, None
            threads, self._threads = self._threads, []
            store, self._store = self._store, None
        if tcp is not None:
            tcp.abort_connections()
            tcp.shutdown()
            tcp.server_close()
        if http is not None:
            http.shutdown()
            http.server_close()
        if pool is not None:
            pool.shutdown(wait=False)
        for thread in threads:
            thread.join(timeout=5)
        if store is not None:
            store.close()

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # front end: bounded-concurrency execution
    # ------------------------------------------------------------------

    def _acquire_slot(self) -> bool:
        with self._lock:
            if self._in_flight >= self._max_in_flight:
                self._rejected += 1
                return False
            self._in_flight += 1
            return True

    def _release_slot(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def _busy_response(self) -> dict:
        return {
            "error": encode_error(
                ServerBusyError(
                    f"server at in-flight capacity ({self._max_in_flight})"
                )
            )
        }

    def submit(self, request_id: int, request, reply) -> bool:
        """Queue one multiplexed request onto the worker pool; ``reply``
        is called with ``(request_id, response)`` from the worker.
        Returns ``False`` when the server is stopping — the caller then
        hangs the connection up so clients fail over."""
        pool = self._pool
        if self._stopping or pool is None:
            return False
        if not self._acquire_slot():
            reply(request_id, self._busy_response())
            return True

        def run() -> None:
            try:
                response = self.dispatch(request)
            finally:
                self._release_slot()
            if response is not None:
                reply(request_id, response)

        try:
            pool.submit(run)
        except RuntimeError:  # pool shut down under us
            self._release_slot()
            return False
        return True

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request) -> dict | None:
        """Answer one decoded request frame (never raises: errors become
        ``{"error": ...}`` responses so the connection survives a bad
        query).  Returns ``None`` while stopping — the handler then
        hangs up so the client fails over instead of reading an
        in-teardown error."""
        if self._stopping or self._store is None:
            return None
        with self._lock:
            self._requests += 1
        try:
            if not isinstance(request, dict):
                raise InvalidParameterError(
                    f"request must be a dict, got {type(request).__name__}"
                )
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "patterns": len(self.store)}
            if op == "status":
                return self._status()
            if op == "search":
                return {"results": self._search(request)}
            if op == "estimate":
                return {"estimates": self._estimate(request)}
            raise InvalidParameterError(f"unknown op {op!r}")
        except ReproError as exc:
            if self._stopping:
                return None  # failure caused by teardown, not the query
            with self._lock:
                self._errors += 1
            return {"error": encode_error(exc)}
        except Exception as exc:  # noqa: BLE001 - keep the link alive
            if self._stopping:
                return None  # failure caused by teardown, not the query
            with self._lock:
                self._errors += 1
            return {
                "error": {
                    "type": "ReproError",
                    "message": f"internal error: {type(exc).__name__}",
                }
            }

    def _status(self) -> dict:
        store = self.store
        counts = {}
        for index in store.owned_shards:
            counts[str(index)] = store._shard(index)._num_patterns()
        with self._lock:
            requests, errors = self._requests, self._errors
            in_flight, rejected = self._in_flight, self._rejected
        return {
            "generation": store.generation,
            "num_shards": store.num_shards,
            "owned": list(store.owned_shards),
            "patterns_by_shard": counts,
            "requests": requests,
            "errors": errors,
            "frontend": {
                "workers": self._workers,
                "max_in_flight": self._max_in_flight,
                "in_flight": in_flight,
                "rejected": rejected,
            },
            "wire": self.wire_stats.snapshot(),
        }

    def _shard_ids(self, request) -> list[int] | None:
        shards = request.get("shards")
        if shards is None:
            return None
        if not isinstance(shards, list) or not all(
            isinstance(s, int) for s in shards
        ):
            raise InvalidParameterError(
                f"'shards' must be a list of shard indexes, got {shards!r}"
            )
        return shards

    @staticmethod
    def _tokens(request) -> tuple:
        tokens = decode_tokens(request.get("tokens"))
        if is_negation_only(tokens):
            # the router's service layer rejects these before fan-out;
            # repeat the guard so a raw client cannot trigger the
            # unbounded length-group scan either
            raise InvalidParameterError(
                "all-negative queries are not served"
            )
        return tokens

    def _estimate(self, request) -> dict:
        store = self.store
        priced = _price_slice(
            store, store._compile(self._tokens(request)),
            self._shard_ids(request),
        )
        # the exact float, not to_dict()'s display rounding
        return {
            str(index): {**estimate.to_dict(), "cost": estimate.cost}
            for index, estimate in priced.items()
        }

    def _search(self, request) -> list:
        """One entry per query of the frame.  A query's failure is its
        own entry's ``{"error"}`` — one bad query must not poison its
        batchmates — while a malformed frame fails as a whole, before
        any entry runs."""
        queries = request.get("queries")
        if not isinstance(queries, list):
            raise InvalidParameterError(
                f"'queries' must be a list, got {type(queries).__name__}"
            )
        if len(queries) > MAX_BATCH:
            raise InvalidParameterError(
                f"search of {len(queries)} queries exceeds limit {MAX_BATCH}"
            )
        shards = self._shard_ids(request)
        results: list[dict] = []
        for entry in queries:
            try:
                results.append(self._search_one(entry, shards))
            except ReproError as exc:
                if self._stopping:
                    raise  # teardown, not the query: dispatch hangs up
                with self._lock:
                    self._errors += 1
                results.append({"error": encode_error(exc)})
        return results

    def _search_one(self, entry, shards) -> dict:
        if not isinstance(entry, dict):
            raise InvalidParameterError(
                f"each query must be a dict, got {type(entry).__name__}"
            )
        records, costs = partial_search(
            self.store,
            self._tokens(entry),
            shard_ids=shards,
            limit=entry.get("limit"),
            min_freq=entry.get("min_freq"),
        )
        return {
            "records": self._render(records),
            "costs": {str(index): cost for index, cost in costs.items()},
        }

    def _render(self, records) -> list:
        vocabulary = self.store.vocabulary
        return [
            [list(coded), frequency, list(vocabulary.decode_sequence(coded))]
            for coded, frequency in records
        ]


__all__ = [
    "POLL_INTERVAL",
    "ShardServer",
    "partial_search",
    "parse_shard_list",
]
