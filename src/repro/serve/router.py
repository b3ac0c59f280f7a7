"""Query router: fan-out over shard servers, merge, failover.

The router is the distributed tier's front end.  It owns the **cluster
map** — which shard lives on which servers — fans each query out to one
server per shard group, and k-way heap-merges the rank-ordered partial
answers with the same ``(-frequency, coded_pattern)`` key every backend
uses, so the merged answer is byte-identical to a single-process
:class:`~repro.serve.sharded.ShardedPatternStore` over the same
manifest.

:class:`RouterBackend` implements the backend surface
:class:`~repro.serve.service.QueryService` consumes (``search_answer``,
``prefetch``, ``estimate_cost``, ``__len__``, ``describe``, ``close``),
which means the whole existing HTTP layer — endpoints, error mapping,
metrics — serves a cluster unchanged.  Every read is a ``search``
scatter (``/topk`` is the ``+`` query cut at ``n``); the only other
fan-outs are the ``estimate`` pre-flight and the ``status``/``ping``
bookkeeping.

Placement and failover:

* :func:`plan_placement` assigns each shard ``replication`` servers via
  a consistent-hash ring (virtual nodes over the repo's FNV
  :func:`~repro.io.codec.stable_hash`), so adding a server
  moves few shards; explicit per-server shard lists in the cluster
  config override it.
* Each fan-out has one **deadline budget**: every socket operation gets
  the time remaining, not a fresh timeout, so retries cannot stretch a
  request beyond the budget.
* A shard whose chosen server fails is retried **once** on its next
  untried replica; servers that fail are marked unhealthy and excluded
  from later plans until a health check — a ``ping`` on the server's
  own mux connection — revives them.  A busy answer to that ping reads
  as alive.
* If a shard's replica set is exhausted the query **degrades**: the
  answer covers the reachable shards and says so in its
  :attr:`~repro.query.base.Answer.partial` instead of failing — and
  partial answers are never cached upstream.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import (
    EncodingError,
    InvalidParameterError,
    ReproError,
    ServerBusyError,
    StoreCorruptError,
)
from repro.io.codec import stable_hash
from repro.query.base import Answer, QueryMatch
from repro.query.cost import CostEstimate, combine_estimates
from repro.query.tokens import normalize_query
from repro.serve.protocol import (
    WireStats,
    decode_error,
    encode_tokens,
    hello_request,
    merge_wire_snapshots,
    read_hello_response,
    recv_message,
    recv_mux,
    send_message,
    send_mux,
)
from repro.serve.service import LatencyHistogram

#: virtual nodes per server on the placement ring — enough to spread
#: shards evenly across a handful of servers
_VNODES = 64

#: concurrent requests one shard-server connection carries
PIPELINE_DEPTH = 32

#: scatter threads shared by every fan-out of a router: group calls
#: spend their life blocked on a socket, so the pool covers many
#: *concurrent* scatters — a full pipeline's worth
FANOUT_WORKERS = 32

#: floor for any single socket operation's timeout: once the deadline
#: budget is nearly spent, fail fast instead of waiting 0 seconds
_MIN_TIMEOUT = 0.05


# ----------------------------------------------------------------------
# cluster map
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServerSpec:
    """One shard server endpoint."""

    host: str
    port: int

    @property
    def key(self) -> str:
        return f"{self.host}:{self.port}"


def plan_placement(
    server_keys: Sequence[str], num_shards: int, replication: int = 1
) -> dict[int, list[str]]:
    """Consistent-hash shard→replica placement.

    Each server contributes ``_VNODES`` ring points; shard ``i`` hashes
    onto the ring and takes the next ``replication`` *distinct* servers
    clockwise.  Deterministic for a given server set, and adding or
    removing one server relocates only the shards whose arcs it
    touches.
    """
    if not server_keys:
        raise InvalidParameterError("placement needs at least one server")
    replication = max(1, min(replication, len(set(server_keys))))
    ring = sorted(
        (stable_hash(f"{key}#{vnode}"), key)
        for key in set(server_keys)
        for vnode in range(_VNODES)
    )
    placement: dict[int, list[str]] = {}
    for shard in range(num_shards):
        point = stable_hash(f"shard:{shard}")
        start = bisect.bisect_right(ring, (point, "￿"))
        replicas: list[str] = []
        for index in range(start, start + len(ring)):
            key = ring[index % len(ring)][1]
            if key not in replicas:
                replicas.append(key)
                if len(replicas) == replication:
                    break
        placement[shard] = replicas
    return placement


class ClusterMap:
    """Shard→replica placement over a set of :class:`ServerSpec`.

    Built from a config dict (usually a JSON file)::

        {
          "num_shards": 4,
          "replication": 2,
          "servers": [
            {"host": "127.0.0.1", "port": 7601},
            {"host": "127.0.0.1", "port": 7602}
          ]
        }

    Placement is consistent-hash by default; a server may instead pin
    its shards explicitly with ``"shards": [0, 2]`` (then every server
    must pin, and each shard needs at least one owner).  Every server
    is expected to mount at least the shards placed on it.  Other keys
    of a server entry are ignored.
    """

    def __init__(
        self,
        servers: Sequence[ServerSpec],
        num_shards: int,
        replication: int = 1,
        placement: dict[int, list[str]] | None = None,
    ) -> None:
        if num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if not servers:
            raise InvalidParameterError("cluster has no servers")
        self.servers: dict[str, ServerSpec] = {}
        for spec in servers:
            if spec.key in self.servers:
                raise InvalidParameterError(
                    f"duplicate server {spec.key} in cluster map"
                )
            self.servers[spec.key] = spec
        self.num_shards = num_shards
        self.replication = replication
        if placement is None:
            placement = plan_placement(
                list(self.servers), num_shards, replication
            )
        self.placement: dict[int, tuple[str, ...]] = {}
        for shard in range(num_shards):
            replicas = tuple(placement.get(shard, ()))
            if not replicas:
                raise InvalidParameterError(
                    f"shard {shard} has no replicas in the cluster map"
                )
            unknown = [key for key in replicas if key not in self.servers]
            if unknown:
                raise InvalidParameterError(
                    f"shard {shard} placed on unknown servers {unknown}"
                )
            self.placement[shard] = replicas

    @classmethod
    def from_config(cls, config: dict) -> "ClusterMap":
        try:
            num_shards = config["num_shards"]
            raw_servers = config["servers"]
        except (TypeError, KeyError) as exc:
            raise InvalidParameterError(
                f"cluster config must define {exc} "
                "(required: num_shards, servers)"
            ) from None
        specs: list[ServerSpec] = []
        pinned: dict[int, list[str]] = {}
        explicit = 0
        for entry in raw_servers:
            try:
                spec = ServerSpec(host=entry["host"], port=entry["port"])
            except (TypeError, KeyError) as exc:
                raise InvalidParameterError(
                    f"server entry {entry!r} must define {exc}"
                ) from None
            specs.append(spec)
            shards = entry.get("shards")
            if shards is not None:
                explicit += 1
                for shard in shards:
                    pinned.setdefault(shard, []).append(spec.key)
        if explicit and explicit != len(specs):
            raise InvalidParameterError(
                "either every server pins its shards or none does"
            )
        return cls(
            specs,
            num_shards=num_shards,
            replication=config.get("replication", 1),
            placement=pinned if explicit else None,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ClusterMap":
        try:
            config = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(
                f"cannot read cluster map {path}: {exc}"
            ) from None
        return cls.from_config(config)

    def replicas(self, shard: int) -> tuple[str, ...]:
        try:
            return self.placement[shard]
        except KeyError:
            raise InvalidParameterError(
                f"shard {shard} is outside the cluster map "
                f"(num_shards={self.num_shards})"
            ) from None

    def describe(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "replication": self.replication,
            "servers": sorted(self.servers),
            "placement": {
                str(shard): list(replicas)
                for shard, replicas in sorted(self.placement.items())
            },
        }


# ----------------------------------------------------------------------
# shard client (one pipelined mux connection per server)
# ----------------------------------------------------------------------


class _PendingSlot:
    """One in-flight mux request: the waiter's event and response box."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response = None


class _MuxConnection:
    """One multiplexed socket: its in-flight table, per-connection
    request-id counter, and the send lock serializing frame writes."""

    __slots__ = ("sock", "pending", "lock", "send_lock", "ids", "dead")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.pending: dict[int, _PendingSlot] = {}
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.ids = itertools.count(1)
        self.dead = False


class ShardClient:
    """Framed request/response to one shard server.

    **One** multiplexed connection carries up to :data:`PIPELINE_DEPTH`
    concurrent requests with out-of-order responses; it opens with the
    ``hello`` exchange of :mod:`repro.serve.protocol`, which checks the
    protocol version and offers zlib.  A server that declines zlib gets
    plain frames; one that refuses the hello makes :meth:`request`
    raise the typed error it answered.

    A connection that fails before the request went out may simply have
    idled past the server's patience and is retried once on a fresh
    connection; a *fresh* connection failing is the server being down
    and propagates.  A connection dying mid-pipeline fails **every**
    in-flight request with :class:`ConnectionError`, so each caller's
    replica-retry path fails its request over independently.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._pipeline_depth = PIPELINE_DEPTH
        self._lock = threading.Lock()
        self._closed = False
        self._mux: _MuxConnection | None = None
        self._conn_lock = threading.Lock()
        self._depth = threading.Semaphore(self._pipeline_depth)
        #: compression threshold the server agreed to in the latest
        #: hello; ``None`` until connected or when zlib was declined
        self.compress_threshold: int | None = None
        self._in_flight = 0
        self.wire_stats = WireStats()

    def _connect(self, timeout: float) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), timeout=timeout
        )
        # request frames are small; never let Nagle hold one back
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _ensure_mux(self, timeout: float) -> _MuxConnection:
        """Current live connection, dialing one and exchanging hellos
        if needed."""
        with self._conn_lock:
            if self._closed:
                raise ConnectionError("shard client is closed")
            mux = self._mux
            if mux is not None and not mux.dead:
                return mux
            sock = self._connect(timeout)
            try:
                sock.settimeout(timeout)
                send_message(sock, hello_request())
                threshold = read_hello_response(recv_message(sock))
            except (OSError, EOFError, ConnectionError, ReproError):
                sock.close()
                raise
            self.compress_threshold = threshold
            sock.settimeout(None)  # the reader blocks; waiters time out
            mux = _MuxConnection(sock)
            self._mux = mux
            threading.Thread(
                target=self._read_loop,
                args=(mux,),
                name=f"shard-client-{self._host}:{self._port}",
                daemon=True,
            ).start()
            return mux

    def _read_loop(self, mux: _MuxConnection) -> None:
        while True:
            try:
                request_id, value = recv_mux(mux.sock, self.wire_stats)
            except Exception:  # noqa: BLE001 - any failure kills the link
                break
            with mux.lock:
                slot = mux.pending.pop(request_id, None)
            if slot is not None:
                slot.response = value
                slot.event.set()
        self._drop_mux(mux)

    def _drop_mux(self, mux: _MuxConnection, exc: Exception | None = None) -> None:
        """Retire a mux connection and fail every request still in its
        in-flight table — each waiter then fails over independently."""
        with mux.lock:
            mux.dead = True
            pending, mux.pending = dict(mux.pending), {}
        with self._conn_lock:
            if self._mux is mux:
                self._mux = None
        try:
            # close() alone neither wakes this client's reader, blocked in
            # recv() on the socket, nor sends the server a FIN
            mux.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already shut down, or closed by an earlier call
        mux.sock.close()
        error = exc or ConnectionError(
            f"connection to {self._host}:{self._port} lost mid-pipeline"
        )
        for slot in pending.values():
            slot.response = error
            slot.event.set()

    def _mux_request(self, payload: dict, timeout: float):
        if not self._depth.acquire(timeout=timeout):
            raise socket.timeout(
                f"pipeline to {self._host}:{self._port} is full "
                f"(depth {self._pipeline_depth})"
            )
        try:
            response = None
            for attempt in (0, 1):
                mux = self._ensure_mux(timeout)
                slot = _PendingSlot()
                with mux.lock:
                    if mux.dead:
                        continue  # died under us; dial a fresh one
                    request_id = next(mux.ids)
                    mux.pending[request_id] = slot
                try:
                    with mux.send_lock:
                        send_mux(
                            mux.sock,
                            request_id,
                            payload,
                            self.compress_threshold,
                            self.wire_stats,
                        )
                except (OSError, EncodingError) as exc:
                    with mux.lock:
                        mux.pending.pop(request_id, None)
                    if isinstance(exc, EncodingError):
                        # unencodable payload: nothing was written, the
                        # connection is fine — only the slot goes
                        raise
                    self._drop_mux(mux, exc)
                    if attempt:
                        raise
                    continue  # request never left: retry on fresh conn
                if not slot.event.wait(timeout):
                    with mux.lock:
                        mux.pending.pop(request_id, None)
                    raise socket.timeout(
                        f"no response from {self._host}:{self._port} "
                        f"within {timeout:.2f}s"
                    )
                response = slot.response
                break
            else:
                raise ConnectionError(
                    f"connection to {self._host}:{self._port} kept dying "
                    "before the request was sent"
                )
        finally:
            self._depth.release()
        if isinstance(response, BaseException):
            raise response
        if isinstance(response, dict) and "error" in response:
            raise decode_error(response["error"])
        return response

    def request(self, payload: dict, timeout: float):
        """One request/response; raises the remote :mod:`repro.errors`
        type on an error response (or a refused hello),
        ``OSError``/``ConnectionError`` on transport failure (including
        the connection dying while this request was in flight)."""
        with self._lock:
            self._in_flight += 1
        try:
            return self._mux_request(payload, timeout)
        finally:
            with self._lock:
                self._in_flight -= 1

    def stats(self) -> dict:
        with self._lock:
            in_flight = self._in_flight
        return {
            "in_flight": in_flight,
            "wire": self.wire_stats.snapshot(),
        }

    def close(self) -> None:
        with self._conn_lock:
            self._closed = True
            mux, self._mux = self._mux, None
        if mux is not None:
            self._drop_mux(mux, ConnectionError("shard client closed"))


# ----------------------------------------------------------------------
# the fan-out backend
# ----------------------------------------------------------------------


def _record_key(record) -> tuple[int, tuple[int, ...]]:
    # the wire record is (coded, frequency, names); rank order is the
    # shared (-frequency, coded) so merged streams interleave exactly
    # like ShardedPatternStore's in-process heap
    return (-record[1], record[0])


def _parse_entry(entry, key: str):
    """One entry of a server's ``search`` answer: its record list and
    the price each of its shards ran at — or the error that query
    earned there.  A corrupt store is the server's failure, not the
    query's, so it is raised: the scatter then fails the server over."""
    if isinstance(entry, dict) and "error" in entry:
        error = decode_error(entry["error"])
        if isinstance(error, StoreCorruptError):
            raise error
        return error
    records = [
        (tuple(coded), frequency, tuple(names))
        for coded, frequency, names in entry["records"]
    ]
    return records, {int(s): c for s, c in entry["costs"].items()}


def _by_shard(groups) -> list:
    """The per-shard values of every server that answered, in shard
    order — the order a :class:`~repro.serve.sharded.ShardedPatternStore`
    combines its shards in, so sums come out bit-identical to its own."""
    merged: dict[int, object] = {}
    for group in groups:
        merged.update(group)
    return [merged[shard] for shard in sorted(merged)]


def _merged_answer(groups, partial, limit: int | None) -> Answer:
    """One search's per-server ``(records, costs)`` as one answer:
    records k-way merged and cut at ``limit``, the prices of the shards
    that answered summed."""
    merged = heapq.merge(*(records for records, _ in groups), key=_record_key)
    if limit is not None:
        merged = itertools.islice(merged, limit)
    return Answer(
        [QueryMatch(names, frequency) for _, frequency, names in merged],
        partial,
        cost=sum(_by_shard(costs for _, costs in groups)),
    )


class RouterBackend:
    """Fan-out search backend over a cluster of shard servers.

    Duck-types the slice of the backend surface ``QueryService`` uses:
    ``search_answer`` (an :class:`~repro.query.base.Answer`:
    :class:`QueryMatch` lists in the canonical rank order, plus whether
    that very fan-out degraded), ``prefetch``, ``estimate_cost``,
    ``__len__``, ``describe`` and ``close``.  ``search`` is the same
    read for embedded callers who only want the list; top-k is the
    ``+`` query with a limit.  Nothing about a request is kept on the
    router between calls: what a fan-out needs comes in as arguments,
    what it learned goes out on the answer — degradation and the price
    of the plans the servers ran.

    Not a :class:`~repro.query.base.PatternSearchBase`: the router
    holds no vocabulary and no postings, only sockets.
    """

    def __init__(
        self,
        cluster: ClusterMap,
        deadline: float = 5.0,
        health_timeout: float = 1.0,
    ) -> None:
        if deadline <= 0:
            raise InvalidParameterError(
                f"deadline must be > 0 seconds, got {deadline}"
            )
        if health_timeout <= 0:
            # a socket timeout of 0 is non-blocking: every ping would
            # fail and mark every server down
            raise InvalidParameterError(
                f"health_timeout must be > 0 seconds, got {health_timeout}"
            )
        self._cluster = cluster
        self._deadline = deadline
        self._health_timeout = health_timeout
        self._clients = {
            key: ShardClient(spec.host, spec.port)
            for key, spec in cluster.servers.items()
        }
        self._healthy = {key: True for key in cluster.servers}
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=FANOUT_WORKERS,
            thread_name_prefix="router-fanout",
        )
        self._shard_hists: dict[int, LatencyHistogram] = {
            shard: LatencyHistogram() for shard in range(cluster.num_shards)
        }
        self._fanouts = 0
        self._retries = 0
        self._server_failures = 0
        self._busy_sheds = 0
        self._partials = 0
        self._patterns_total: int | None = None
        self._health_stop: threading.Event | None = None
        self._health_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def _probe(self, key: str) -> bool:
        try:
            answer = self._clients[key].request(
                {"op": "ping"}, self._health_timeout
            )
        except ServerBusyError:
            # at capacity is alive: the scatter fails it over without
            # marking it down, and the probe agrees
            return True
        except (OSError, EOFError, ConnectionError, ReproError):
            # refused, timed out, or no peer of this protocol: this one
            # server reads as down, and the other probes still run
            return False
        return bool(isinstance(answer, dict) and answer.get("ok"))

    def check_health(self) -> dict[str, bool]:
        """Ping every server once and update the health map.

        A server marked down is excluded from fan-out plans; a later
        ping revives it.
        """
        status = {key: self._probe(key) for key in self._cluster.servers}
        with self._lock:
            self._healthy.update(status)
        return status

    def start_health_loop(self, interval: float = 2.0) -> None:
        """Re-probe every ``interval`` seconds from a daemon thread."""
        if interval <= 0:
            # a zero wait would re-probe in a busy loop
            raise InvalidParameterError(
                f"health interval must be > 0 seconds, got {interval}"
            )
        if self._health_thread is not None:
            return
        self._health_stop = threading.Event()

        def loop() -> None:
            while not self._health_stop.wait(interval):
                try:
                    self.check_health()
                except Exception:  # pragma: no cover - defensive
                    pass

        self._health_thread = threading.Thread(
            target=loop, name="router-health", daemon=True
        )
        self._health_thread.start()

    def _mark_down(self, key: str) -> None:
        with self._lock:
            if self._healthy.get(key, True):
                self._healthy[key] = False
            self._server_failures += 1

    def healthy_servers(self) -> dict[str, bool]:
        with self._lock:
            return dict(self._healthy)

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------

    def _pick(self, shard: int, tried: set[str]) -> str | None:
        """Next replica to try for ``shard``: untried healthy ones in
        placement order, then untried unhealthy ones (a shard whose
        whole replica set is marked down is still *attempted* — health
        data may be stale, and connection-refused fails in
        microseconds)."""
        replicas = self._cluster.replicas(shard)
        with self._lock:
            healthy = [
                key
                for key in replicas
                if key not in tried and self._healthy.get(key, True)
            ]
            if healthy:
                return healthy[0]
        for key in replicas:
            if key not in tried:
                return key
        return None

    def _scatter(
        self,
        make_payload: Callable[[list[int]], dict],
        parse: Callable,
    ) -> tuple[list[list], dict | None]:
        """Fan one request out across the cluster.

        Returns ``(group_records, partial)`` where each element of
        ``group_records`` is one server's answer as ``parse(response,
        key)`` extracted it, ordered by the lowest shard it covers, and
        ``partial`` is ``None`` when every shard answered, else
        ``{"missing_shards": [...], "failed_servers": [...]}``.

        Each shard gets at most two attempts (primary pick + one
        failover replica), all under the configured deadline budget.
        """
        deadline = time.monotonic() + self._deadline
        with self._lock:
            self._fanouts += 1
        tried: dict[int, set[str]] = {
            shard: set() for shard in range(self._cluster.num_shards)
        }
        pending = list(range(self._cluster.num_shards))
        group_records: list[list] = []
        failed_servers: set[str] = set()
        retried: set[int] = set()
        for attempt in (0, 1):
            if not pending:
                break
            # group this wave's shards by their chosen server so one
            # request per server covers all its shards
            groups: dict[str, list[int]] = {}
            unservable: list[int] = []
            for shard in pending:
                key = self._pick(shard, tried[shard])
                if key is None:
                    unservable.append(shard)
                    continue
                tried[shard].add(key)
                groups.setdefault(key, []).append(shard)
            if attempt:
                retried.update(
                    shard for shards in groups.values() for shard in shards
                )
                with self._lock:
                    self._retries += len(groups)
            futures = {
                self._executor.submit(
                    self._call_group, key, shards, make_payload, deadline,
                    parse,
                ): (key, shards)
                for key, shards in groups.items()
            }
            pending = unservable
            error: ReproError | None = None
            for future, (key, shards) in futures.items():
                records, failure = future.result()
                if failure is None:
                    group_records.append((min(shards), records))
                elif isinstance(failure, ServerBusyError):
                    # overloaded, not dead: fail over to a replica but
                    # leave the server in the rotation — the next probe
                    # would only revive it anyway
                    failed_servers.add(key)
                    with self._lock:
                        self._busy_sheds += 1
                    pending.extend(shards)
                elif isinstance(failure, ReproError) and not isinstance(
                    failure, StoreCorruptError
                ):
                    # a query error (unknown item, bad parameter…) is
                    # the *answer*, not a server failure — remember it,
                    # but keep draining futures first
                    error = failure
                else:
                    failed_servers.add(key)
                    self._mark_down(key)
                    pending.extend(shards)
            if error is not None:
                raise error
        partial: dict | None = None
        if pending:
            with self._lock:
                self._partials += 1
            partial = {
                "missing_shards": sorted(pending),
                "failed_servers": sorted(failed_servers),
            }
            if retried:
                partial["retried_shards"] = sorted(retried)
        group_records.sort(key=lambda group: group[0])
        return [records for _, records in group_records], partial

    def _call_group(
        self,
        key: str,
        shards: list[int],
        make_payload: Callable[[list[int]], dict],
        deadline: float,
        parse: Callable,
    ):
        """One server request covering ``shards``; returns
        ``(records, failure)`` with exactly one of the two set."""
        timeout = max(_MIN_TIMEOUT, deadline - time.monotonic())
        start = time.monotonic()
        try:
            response = self._clients[key].request(
                make_payload(shards), timeout
            )
            records = parse(response, key)
        except Exception as exc:  # noqa: BLE001 - sorted by the caller
            return None, exc
        finally:
            elapsed = time.monotonic() - start
            with self._lock:
                for shard in shards:
                    self._shard_hists[shard].observe(elapsed)
        return records, None

    # ------------------------------------------------------------------
    # backend surface
    # ------------------------------------------------------------------

    def estimate_cost(self, query) -> CostEstimate | None:
        """One ``estimate`` scatter, combined in shard order: the very
        estimate a :class:`~repro.serve.sharded.ShardedPatternStore`
        over the same manifest returns.  ``None`` when the cluster
        cannot price the query completely (a query error, or a shard no
        server answered for): admission then steps aside and the search
        reports what went wrong."""
        tokens = encode_tokens(normalize_query(query))

        def make_payload(shards: list[int]) -> dict:
            return {"op": "estimate", "tokens": tokens, "shards": shards}

        def parse(response, key: str) -> dict:
            # a malformed answer fails that server over, like any other
            return {
                int(shard): CostEstimate(**raw)
                for shard, raw in response["estimates"].items()
            }

        try:
            groups, partial = self._scatter(make_payload, parse)
        except ReproError:
            return None
        return None if partial else combine_estimates(_by_shard(groups))

    # ------------------------------------------------------------------
    # search: one scatter for one query or a whole batch
    # ------------------------------------------------------------------

    def _search(self, queries: list[tuple]) -> list:
        """One ``search`` scatter for ``queries``, ``(tokens, limit,
        min_freq)`` triples: per query, its merged
        :class:`~repro.query.base.Answer` or the
        :class:`~repro.errors.ReproError` it earned — from the lowest
        shard that reported one, so the outcome does not depend on
        which server answered first.

        Per-shard σ cuts compose (rank order makes ``min_freq`` a
        stream prefix) and ``limit`` pushes down as a per-server upper
        bound, re-applied globally after the merge.
        """
        wire = [
            {
                "tokens": encode_tokens(tokens),
                "limit": limit,
                "min_freq": min_freq,
            }
            for tokens, limit, min_freq in queries
        ]

        def make_payload(shards: list[int]) -> dict:
            return {"op": "search", "shards": shards, "queries": wire}

        def parse(response, key: str) -> list:
            results = (
                response.get("results")
                if isinstance(response, dict)
                else None
            )
            if not isinstance(results, list) or len(results) != len(wire):
                raise StoreCorruptError(
                    f"server {key} sent a malformed search response"
                )
            return [_parse_entry(entry, key) for entry in results]

        groups, partial = self._scatter(make_payload, parse)
        answers = []
        for index, (_, limit, _) in enumerate(queries):
            entries = [group[index] for group in groups]
            error = next(
                (e for e in entries if isinstance(e, ReproError)), None
            )
            answers.append(
                _merged_answer(entries, partial, limit)
                if error is None
                else error
            )
        return answers

    def prefetch(self, pairs) -> dict:
        """Fetch many queries in one ``search`` frame per server.

        ``pairs`` iterates ``(normalized_tokens, min_freq)``; the
        return value maps each pair to its unlimited
        :class:`~repro.query.base.Answer` — or to the
        :class:`~repro.errors.ReproError` that query earned — so a
        batch pays one scatter instead of one per query, with outcomes
        identical to the per-query path.  The caller owns the map.

        Best-effort by design: a scatter that fails as a whole returns
        nothing, and a pair missing from the map just goes through
        :meth:`search_answer`, which reports whatever went wrong.
        """
        unique = list(dict.fromkeys(pairs))
        if not unique:
            return {}
        try:
            answers = self._search(
                [(tokens, None, min_freq) for tokens, min_freq in unique]
            )
        except ReproError:
            return {}
        return dict(zip(unique, answers))

    def search_answer(
        self,
        query,
        limit: int | None = None,
        min_freq: int | None = None,
        cost: CostEstimate | None = None,
    ) -> Answer:
        """Fan the normalized query out as a one-entry ``search`` and
        merge the partial answers.  ``cost`` is unused: the plans live
        on the servers, which price them as they run."""
        (answer,) = self._search([(normalize_query(query), limit, min_freq)])
        if isinstance(answer, ReproError):
            raise answer
        return answer

    def search(
        self,
        query,
        limit: int | None = None,
        min_freq: int | None = None,
    ) -> list[QueryMatch]:
        return self.search_answer(query, limit, min_freq).matches

    def __len__(self) -> int:
        """Total patterns across the cluster's shards.

        Scatters one ``status`` per server until every shard is
        counted; the total is cached once complete (the distributed
        tier serves one store generation).  With servers down this
        returns the reachable shards' count, uncached.
        """
        with self._lock:
            if self._patterns_total is not None:
                return self._patterns_total
        counts: dict[int, int] = {}
        asked: set[str] = set()
        for shard in range(self._cluster.num_shards):
            if shard in counts:
                continue
            for key in self._cluster.replicas(shard):
                if key in asked:
                    continue
                asked.add(key)
                try:
                    status = self._clients[key].request(
                        {"op": "status"}, self._health_timeout
                    )
                except (OSError, EOFError, ConnectionError, ReproError):
                    continue
                for index, patterns in status["patterns_by_shard"].items():
                    counts[int(index)] = patterns
                if shard in counts:
                    break
        total = sum(counts.values())
        if len(counts) == self._cluster.num_shards:
            with self._lock:
                self._patterns_total = total
        return total

    def describe(self) -> dict:
        # cluster facts first: the per-server health map below must win
        # over ClusterMap.describe()'s plain server list
        info = self._cluster.describe()
        client_stats = {
            key: self._clients[key].stats()
            for key in sorted(self._clients)
        }
        with self._lock:
            info.update({
                "router": True,
                "fanouts": self._fanouts,
                "fanout_retries": self._retries,
                "server_failures": self._server_failures,
                "busy_sheds": self._busy_sheds,
                "partial_results": self._partials,
                "wire": merge_wire_snapshots(
                    stats["wire"] for stats in client_stats.values()
                ),
                "servers": {
                    key: {
                        "healthy": self._healthy[key],
                        "in_flight": client_stats[key]["in_flight"],
                    }
                    for key in sorted(self._cluster.servers)
                },
                "fanout_latency": {
                    str(shard): hist.snapshot()
                    for shard, hist in sorted(self._shard_hists.items())
                },
            })
        return info

    def close(self) -> None:
        if self._health_stop is not None:
            self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5)
            self._health_thread = None
        self._executor.shutdown(wait=False)
        for client in self._clients.values():
            client.close()


__all__ = [
    "ClusterMap",
    "RouterBackend",
    "ServerSpec",
    "ShardClient",
    "plan_placement",
]
