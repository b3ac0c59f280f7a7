"""Stdlib HTTP server exposing a :class:`QueryService` as JSON endpoints.

No framework, no dependencies: a :class:`ThreadingHTTPServer` running one
thread per request against the thread-safe service.  Endpoints::

    GET  /healthz                 liveness + store metadata
    GET  /stats                   service counters (cache hit-rate, latency)
    GET  /metrics                 the same counters, Prometheus text format
    GET  /query?q=a+%3F&limit=10  ranked matches for a wildcard query
    GET  /count?q=a+%3F           match count + frequency mass only
    GET  /topk?n=10               globally most frequent patterns
    POST /batch                   {"queries": [...], "limit": 10,
                                   "min_freq": 5}

Queries use the language of :mod:`repro.query.tokens` (``?``, ``+``,
``*``, ``*{m,n}`` bounded gaps, ``^name``, ``!token`` negations,
``(a|b|^C)`` disjunctions, ``token@N`` frequency floors), URL-encoded.
``/query`` and ``/count`` accept ``min_freq=N`` — the per-query σ
override: only patterns with mined frequency ≥ N are answered
(``/batch`` takes it as a body field covering the whole batch).
Malformed queries, unknown items and all-negative queries (a negation
with no positive token — rejected server-side, they cannot be pruned)
answer 400 with ``{"error": ...}`` instead of tearing down the
connection; a store that fails integrity validation mid-request
answers 503 so load balancers retry a healthy replica instead of
blaming the client.

>>> server = create_server(service, port=0)     # ephemeral port
>>> threading.Thread(target=server.serve_forever, daemon=True).start()
>>> urllib.request.urlopen(f"http://127.0.0.1:{server.server_port}/healthz")
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    InvalidParameterError,
    QueryRejectedError,
    ReproError,
    StoreCorruptError,
)
from repro.serve.protocol import DEFAULT_COMPRESS_THRESHOLD, MAX_BATCH
from repro.serve.service import DEFAULT_LIMIT, QueryService, error_message

_MAX_BODY = 1 << 20  # 1 MiB request bodies are plenty for query batches

#: exposition format version expected by Prometheus scrapers
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: endpoints whose wall time lands in the per-endpoint latency
#: histograms; unknown paths are excluded so scanners cannot explode
#: the label cardinality
TRACKED_ENDPOINTS = frozenset(
    {"/query", "/count", "/topk", "/batch", "/stats", "/metrics", "/healthz"}
)


def render_metrics(stats: dict) -> str:
    """Render :meth:`QueryService.stats` as Prometheus text format.

    Derived entirely from the existing counters — no extra bookkeeping
    in the service.  Rates and averages are left out deliberately:
    Prometheus computes those from the raw counters (``rate()``,
    latency sum / query count), and exporting precomputed ratios is an
    exposition-format antipattern.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, help_: str, value, labels: str = "") -> None:
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {value}")

    def emit_histogram(name: str, help_: str, series) -> None:
        """One histogram family: ``series`` yields ``(label, snapshot)``
        pairs, ``label`` being ``key="value"`` or ``""`` for an
        unlabeled family."""
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} histogram")
        for label, hist in series:
            prefix = f"{label}," if label else ""
            suffix = f"{{{label}}}" if label else ""
            for bound, cumulative in hist["buckets"]:
                lines.append(
                    f'{name}_bucket{{{prefix}le="{format(bound, "g")}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{name}_bucket{{{prefix}le="+Inf"}} {hist["count"]}'
            )
            lines.append(f'{name}_sum{suffix} {hist["sum_seconds"]}')
            lines.append(f'{name}_count{suffix} {hist["count"]}')

    emit(
        "lash_patterns", "gauge",
        "Patterns in the served store.", stats["patterns"],
    )
    emit(
        "lash_queries_total", "counter",
        "Queries served (including rejected ones).", stats["queries"],
    )
    emit(
        "lash_cache_hits_total", "counter",
        "Queries answered from the result cache.", stats["cache_hits"],
    )
    emit(
        "lash_errors_total", "counter",
        "Queries rejected or failed.", stats["errors"],
    )
    emit(
        "lash_query_latency_seconds_total", "counter",
        "Cumulative backend search time.",
        stats["total_latency_ms"] / 1000.0,
    )
    emit(
        "lash_cache_entries", "gauge",
        "Result-cache entries currently held.", stats["cache_entries"],
    )
    emit(
        "lash_cache_size", "gauge",
        "Result-cache capacity (0 = caching disabled).",
        stats["cache_size"],
    )
    emit(
        "lash_cache_evictions_total", "counter",
        "Result-cache entries dropped by LRU eviction.",
        stats.get("cache_evictions", 0),
    )
    admission = stats.get("admission")
    if admission:
        emit(
            "lash_rejected_queries_total", "counter",
            "Queries refused by admission control (HTTP 429).",
            admission["rejected"],
        )
        cost = admission.get("cost")
        if cost and cost["count"]:
            emit_histogram(
                "lash_query_cost_units",
                "Estimated query cost at admission time "
                "(planner work units, cache misses only).",
                [("", cost)],
            )
    store = stats.get("store")
    if store:
        # the router backend describes a cluster, not a local file set
        if "file_bytes" in store:
            emit(
                "lash_store_file_bytes", "gauge",
                "Total bytes of the store file(s).", store["file_bytes"],
            )
        if "generation" in store:
            emit(
                "lash_store_generation", "gauge",
                "Manifest generation of the served shard set "
                "(bumped by online compaction).",
                store["generation"],
            )
        shard_stats = store.get("shard_stats")
        if shard_stats is not None:
            emit(
                "lash_store_shards", "gauge",
                "Shard files behind the served store.", store["shards"],
            )
            lines.append(
                "# HELP lash_shard_patterns Patterns stored per shard."
            )
            lines.append("# TYPE lash_shard_patterns gauge")
            for i, shard in enumerate(shard_stats):
                lines.append(
                    f'lash_shard_patterns{{shard="{i}"}} '
                    f'{shard["patterns"]}'
                )
        if store.get("router"):
            emit(
                "lash_router_fanouts_total", "counter",
                "Queries fanned out across the cluster.",
                store["fanouts"],
            )
            emit(
                "lash_router_retries_total", "counter",
                "Failover retries issued to replica servers.",
                store["fanout_retries"],
            )
            emit(
                "lash_router_server_failures_total", "counter",
                "Shard-server requests that failed at transport level.",
                store["server_failures"],
            )
            emit(
                "lash_router_partial_results_total", "counter",
                "Queries answered without a fully-down shard set.",
                store["partial_results"],
            )
            servers = store.get("servers", {})
            if servers:
                lines.append(
                    "# HELP lash_router_server_healthy Last known health "
                    "per shard server (1 healthy, 0 down)."
                )
                lines.append("# TYPE lash_router_server_healthy gauge")
                for key, info in servers.items():
                    lines.append(
                        f'lash_router_server_healthy{{server="{key}"}} '
                        f'{1 if info.get("healthy") else 0}'
                    )
            fanout = store.get("fanout_latency")
            if fanout:
                emit_histogram(
                    "lash_router_fanout_latency_seconds",
                    "Shard-server round-trip time per shard (each fan-out "
                    "request observed for every shard it covered).",
                    (
                        (f'shard="{shard}"', hist)
                        for shard, hist in fanout.items()
                    ),
                )
    frontend = stats.get("frontend")
    if frontend:
        emit(
            "lash_http_workers", "gauge",
            "Configured HTTP worker count.", frontend["workers"],
        )
        emit(
            "lash_http_max_in_flight", "gauge",
            "In-flight request cap before 503 backpressure.",
            frontend["max_in_flight"],
        )
        emit(
            "lash_http_in_flight", "gauge",
            "HTTP requests currently being served.",
            frontend["in_flight"],
        )
        emit(
            "lash_http_rejected_total", "counter",
            "Requests shed with 503 at the in-flight cap.",
            frontend["rejected"],
        )
        emit(
            "lash_http_gzipped_total", "counter",
            "Responses compressed with gzip.",
            frontend.get("gzipped_responses", 0),
        )
    wire = (stats.get("store") or {}).get("wire")
    if wire and wire.get("frames_sent", 0) + wire.get("frames_received", 0):
        for direction in ("sent", "received"):
            emit(
                f"lash_wire_frames_{direction}_total", "counter",
                f"Shard-protocol frames {direction}.",
                wire.get(f"frames_{direction}", 0),
            )
            emit(
                f"lash_wire_raw_bytes_{direction}_total", "counter",
                f"Payload bytes {direction} before compression.",
                wire.get(f"raw_bytes_{direction}", 0),
            )
            emit(
                f"lash_wire_bytes_{direction}_total", "counter",
                f"Bytes {direction} on the wire (after compression).",
                wire.get(f"wire_bytes_{direction}", 0),
            )
            emit(
                f"lash_wire_compressed_frames_{direction}_total", "counter",
                f"Frames {direction} with a zlib-compressed payload.",
                wire.get(f"compressed_frames_{direction}", 0),
            )
    compaction = stats.get("compaction")
    if compaction:
        emit(
            "lash_compactions_total", "counter",
            "Background compactions folded into the served store.",
            compaction.get("compactions", 0),
        )
        ingest = compaction.get("ingest")
        if ingest:
            emit(
                "lash_ingest_applied_deltas_total", "counter",
                "Ingest deltas folded into the served store and archived.",
                ingest.get("applied_deltas", 0),
            )
            emit(
                "lash_ingest_pending_deltas", "gauge",
                "Deltas waiting in the compaction spool.",
                ingest.get("pending_deltas", 0),
            )
            emit(
                "lash_ingest_lag_seconds", "gauge",
                "Age of the oldest unapplied spool delta.",
                ingest.get("lag_seconds", 0.0),
            )
    freshness = stats.get("freshness")
    if freshness:
        emit(
            "lash_ingested_through", "gauge",
            "Freshness watermark: sequences folded into the served "
            "store (exclusive upper sequence number).",
            freshness.get("ingested_through", 0),
        )
        if freshness.get("retained_from") is not None:
            emit(
                "lash_retained_from", "gauge",
                "Retention horizon: first sequence number still "
                "contributing support.",
                freshness["retained_from"],
            )
    latency = stats.get("request_latency")
    if latency:
        emit_histogram(
            "lash_request_latency_seconds",
            "Request wall time by endpoint "
            "(tracked requests, errors included).",
            (
                (f'endpoint="{endpoint}"', hist)
                for endpoint, hist in latency.items()
            ),
        )
    return "\n".join(lines) + "\n"


class PatternHTTPServer(ThreadingHTTPServer):
    """Threaded server carrying the shared :class:`QueryService`.

    Request threads are non-daemon so ``server_close()`` drains them —
    the store's mmap is only closed after the last in-flight answer.
    The per-request socket timeout bounds how long a stalled client can
    pin a thread.

    Concurrency is **bounded**: at most ``2 * workers`` requests hold
    threads at once; past the cap the accept path answers ``503`` with
    ``Retry-After`` immediately instead of growing an unbounded thread
    herd — load balancers and the serving benchmark read that as
    backpressure, never as silence.
    Responses over ``DEFAULT_COMPRESS_THRESHOLD`` bytes are gzipped for
    clients that accept it.
    """

    daemon_threads = False

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        quiet: bool = True,
        workers: int = 8,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {workers}"
            )
        super().__init__(address, PatternRequestHandler)
        self.service = service
        self.quiet = quiet
        self.workers = workers
        self.max_in_flight = 2 * workers
        self._gate = threading.Lock()
        self._in_flight = 0
        self._rejected = 0
        self._gzipped = 0

    # -- bounded front end --------------------------------------------

    def _acquire_slot(self) -> bool:
        with self._gate:
            if self._in_flight >= self.max_in_flight:
                self._rejected += 1
                return False
            self._in_flight += 1
            return True

    def _release_slot(self) -> None:
        with self._gate:
            self._in_flight -= 1

    def note_gzipped(self) -> None:
        with self._gate:
            self._gzipped += 1

    def frontend_stats(self) -> dict:
        with self._gate:
            return {
                "workers": self.workers,
                "max_in_flight": self.max_in_flight,
                "in_flight": self._in_flight,
                "rejected": self._rejected,
                "gzipped_responses": self._gzipped,
            }

    def process_request(self, request, client_address) -> None:
        if not self._acquire_slot():
            self._reject_busy(request)
            return
        try:
            super().process_request(request, client_address)
        except Exception:
            self._release_slot()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._release_slot()

    def _reject_busy(self, request) -> None:
        # shed at the accept path, before a handler thread exists: a raw
        # minimal response keeps the rejection allocation-cheap
        body = b'{"error": "server at capacity, retry shortly"}'
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Retry-After: 1\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        try:
            request.sendall(head + body)
        except OSError:
            pass
        self.shutdown_request(request)


class PatternRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: socket timeout: a client that stalls mid-request (e.g. a body
    #: shorter than its Content-Length) frees its thread after this
    timeout = 30
    #: when the request being handled began; ``None`` once observed
    _started: float | None = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle(self._route_post)

    def _handle(self, route) -> None:
        self._started = time.perf_counter()
        try:
            try:
                route()
            except _BadRequest as exc:
                self._respond(400, {"error": str(exc)})
            except StoreCorruptError as exc:
                # the store, not the request, is broken: a 4xx would
                # tell the client to fix its query; 503 tells the load
                # balancer this replica needs a rebuilt store
                self._respond(503, {"error": error_message(exc)})
            except QueryRejectedError as exc:
                # admission control refused the work — 429, with the
                # numbers the client needs to narrow the query or back
                # off (must precede the generic ReproError → 400 map)
                self._respond(
                    429,
                    {
                        "error": error_message(exc),
                        "estimated_cost": round(exc.estimated_cost, 1),
                        "max_cost": round(exc.max_cost, 1),
                    },
                )
            except ReproError as exc:
                self._respond(400, {"error": error_message(exc)})
            except (BrokenPipeError, ConnectionResetError):
                raise
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                self._respond(
                    500, {"error": f"internal error: {type(exc).__name__}"}
                )
        except (BrokenPipeError, ConnectionResetError):
            # client went away mid-response — on the success path or
            # while we were writing an error; nothing left to tell it
            self.close_connection = True
        finally:
            # a request that never got as far as a response (client
            # gone) is still counted
            self._observe()

    def _observe(self) -> None:
        """Record this request's latency, once.  Runs before the first
        byte of the response is written: a client that has read its
        answer must find it counted by whatever it asks next."""
        started, self._started = self._started, None
        if started is None:
            return
        endpoint = urlsplit(self.path).path
        if endpoint in TRACKED_ENDPOINTS:
            self.server.service.observe_latency(
                endpoint.lstrip("/"), time.perf_counter() - started
            )

    def _route_get(self) -> None:
        url = urlsplit(self.path)
        params = parse_qs(url.query)
        if url.path == "/healthz":
            self._respond(200, self._healthz())
        elif url.path == "/stats":
            self._respond(200, self._stats())
        elif url.path == "/metrics":
            self._respond_text(
                200, render_metrics(self._stats()), METRICS_CONTENT_TYPE
            )
        elif url.path == "/query":
            query = self._require_query(params)
            limit = self._int_param(params, "limit", DEFAULT_LIMIT)
            min_freq = self._int_param(params, "min_freq", None)
            self._respond(
                200, self.server.service.query(query, limit, min_freq)
            )
        elif url.path == "/count":
            query = self._require_query(params)
            min_freq = self._int_param(params, "min_freq", None)
            self._respond(
                200, self.server.service.count(query, min_freq)
            )
        elif url.path == "/topk":
            n = self._int_param(params, "n", DEFAULT_LIMIT)
            self._respond(200, self.server.service.topk(n))
        else:
            self._respond(404, {"error": f"unknown path {url.path!r}"})

    def _route_post(self) -> None:
        url = urlsplit(self.path)
        if url.path != "/batch":
            self._respond(404, {"error": f"unknown path {url.path!r}"})
            return
        payload = self._read_json()
        queries = payload.get("queries")
        if not isinstance(queries, list) or not all(
            isinstance(q, str) for q in queries
        ):
            raise _BadRequest("'queries' must be a list of strings")
        if len(queries) > MAX_BATCH:
            raise _BadRequest(
                f"batch of {len(queries)} exceeds limit {MAX_BATCH}"
            )
        limit = payload.get("limit", DEFAULT_LIMIT)
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int)
        ):
            raise _BadRequest("'limit' must be an integer or null")
        if limit is not None and limit < 1:
            raise _BadRequest("'limit' must be >= 1 or null")
        min_freq = payload.get("min_freq")
        if min_freq is not None and (
            isinstance(min_freq, bool) or not isinstance(min_freq, int)
        ):
            raise _BadRequest("'min_freq' must be an integer or null")
        if min_freq is not None and min_freq < 0:
            raise _BadRequest("'min_freq' must be >= 0 or null")
        results = self.server.service.batch(queries, limit, min_freq)
        self._respond(200, {"results": results})

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _healthz(self) -> dict:
        with self.server.service.lease() as backend:
            info = {"status": "ok", "patterns": len(backend)}
            describe = getattr(backend, "describe", None)
            if describe is not None:
                info["store"] = describe()
        return info

    def _stats(self) -> dict:
        stats = self.server.service.stats()
        frontend = getattr(self.server, "frontend_stats", None)
        if frontend is not None:
            stats["frontend"] = frontend()
        return stats

    def _require_query(self, params: dict[str, list[str]]) -> str:
        values = params.get("q")
        if not values or not values[0].strip():
            raise _BadRequest("missing query parameter 'q'")
        return values[0]

    def _int_param(
        self,
        params: dict[str, list[str]],
        name: str,
        default: int | None,
    ) -> int | None:
        values = params.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            raise _BadRequest(
                f"parameter {name!r} must be an integer, got {values[0]!r}"
            ) from None

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise _BadRequest("invalid Content-Length") from None
        if length <= 0:
            raise _BadRequest("empty request body")
        if length > _MAX_BODY:
            raise _BadRequest(f"request body exceeds {_MAX_BODY} bytes")
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("JSON body must be an object")
        return payload

    def _respond(self, status: int, payload: dict) -> None:
        self._respond_bytes(
            status, json.dumps(payload).encode("utf-8"), "application/json"
        )

    def _respond_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        self._respond_bytes(status, text.encode("utf-8"), content_type)

    def _accepts_gzip(self) -> bool:
        accepted = self.headers.get("Accept-Encoding", "")
        return any(
            part.strip().split(";")[0] == "gzip"
            for part in accepted.split(",")
        )

    def _respond_bytes(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        encoding = None
        if (
            status < 400
            and len(body) > DEFAULT_COMPRESS_THRESHOLD
            and self._accepts_gzip()
        ):
            squeezed = gzip.compress(body, 6)
            if len(squeezed) < len(body):
                body = squeezed
                encoding = "gzip"
                self.server.note_gzipped()
        self._observe()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if encoding is not None:
            self.send_header("Content-Encoding", encoding)
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # a rejected POST may leave an undrained request body on the
            # socket; close so it cannot desync the next keep-alive request
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)


class _BadRequest(Exception):
    """Client error carrying the message for the 400 response."""


def create_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    workers: int = 8,
) -> PatternHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port) without
    serving.  ``quiet=False`` enables per-request access logging."""
    return PatternHTTPServer(
        (host, port), service, quiet=quiet, workers=workers
    )


def run_server(
    server: PatternHTTPServer,
) -> None:  # pragma: no cover - blocking loop, exercised manually
    """Serve until interrupted, then close the socket (``lash serve``
    builds the server itself so it can print the bound address first)."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


__all__ = [
    "PatternHTTPServer",
    "PatternRequestHandler",
    "create_server",
    "run_server",
    "render_metrics",
    "MAX_BATCH",
    "METRICS_CONTENT_TYPE",
    "TRACKED_ENDPOINTS",
]
