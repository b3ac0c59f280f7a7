"""The serving workloads: ``lash serve`` alone, and ``lash route`` over
two ``lash shard-serve`` processes, driven over HTTP keep-alive."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro import Lash, MiningParams
from repro.query import normalize_query
from repro.serve import QueryService, open_store
from repro.serve.protocol import decode_value, encode_value
from repro.serve.router import ClusterMap, RouterBackend, ShardClient

from lashbench import gen
from lashbench.load import HttpClient, Sample, closed_loop
from lashbench.mining import MAP_TASKS, REDUCE_TASKS, STORE_SHARDS, store_bytes
from lashbench.procs import Child, Children, HarnessError, proc_cpu_s
from lashbench.run_state import Run
from lashbench.stats import capped_percentile, percentile

CLIENTS = 2
#: the window is this many back-to-back repetitions; rates are the median
#: over them, latency percentiles are over their pooled samples
REPETITIONS = 3
#: cold starts timed after the window for ``fresh_s``: the median of
#: three, so that one hiccup in 0.4-1 s of interpreter start, imports and
#: store open is not the run's reading.  (Five read no steadier: what
#: moves a cold start is the hour, not the go.)  The set-up's own is not
#: among them: it follows a mining job in this process
COLD_STARTS = 3
STORE_SENTENCES = 5000
STORE_PARAMS = MiningParams(2, 0, 4)
TRACED_REQUESTS = 300
#: ... or as many as fit in this share of the window: while every HTTP
#: round trip costs ~44 ms, 300 of them would double the run
TRACED_SHARE = 0.4
#: ``tail_ms`` is p90.  A window holds about 500 ``GET /query`` samples
#: (200 on ``ingest_live``), of which 4 to 9 % are slow ones that wait a
#: second 40 ms timer, the share being the seeded stream's draw: p95 sits
#: on that step and read 76 or 100 ms by seed (spread 19-23 % over ten
#: seeds in four sets of runs, p90's 7-12 %).  p95 is still reported, as
#: ``bench.p95_ms``, where 200 samples support it.
TAIL_PERCENTILE = 90


@dataclass(frozen=True)
class ServingSpec:
    name: str
    router: bool
    pool_size: int
    #: Zipf exponent of the draw over the pool; None draws uniformly
    zipf_s: float | None
    warmup_requests: int


SPECS = {
    # drawn skewed: about two thirds of the requests repeat a query the
    # result cache (1024) holds
    "serve_mono": ServingSpec("serve_mono", False, 4000, 0.9, 100),
    # a pool several times what one window can ask, drawn uniformly: the
    # shard servers' result LRU (256) and plan cache (256) mostly miss
    "serve_router": ServingSpec("serve_router", True, 4000, None, 20),
}


def build_store(seed: int, path: Path, sentences: int, params: MiningParams) -> dict:
    corpus = gen.text_corpus(seed, sentences)
    result = Lash(
        params, num_map_tasks=MAP_TASKS, num_reduce_tasks=REDUCE_TASKS
    ).mine(corpus.database, corpus.hierarchy("CLP"))
    mined = time.perf_counter()
    result.to_store(path, shards=STORE_SHARDS)
    return {
        "build_s": time.perf_counter() - mined,
        "patterns": len(result),
        "bytes": store_bytes(path),
    }


# ----------------------------------------------------------------------
# the system under test, as deployed
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    address: tuple[str, int]
    front: Child  # the process answering HTTP: lash serve or lash route
    shard_servers: list[Child]
    shard_addresses: list[tuple[str, int]]
    sidecars: list[tuple[str, int]]
    cluster_path: Path | None
    ready_s: float

    @property
    def processes(self) -> list[Child]:
        return [self.front, *self.shard_servers]


def deploy(spec: ServingSpec, children: Children, store: Path, work: Path, probe: str) -> Deployment:
    """Start the processes and wait for the first correct HTTP answer."""
    start = time.perf_counter()
    shard_servers: list[Child] = []
    shard_addresses: list[tuple[str, int]] = []
    sidecars: list[tuple[str, int]] = []
    cluster_path = None
    if spec.router:
        slices = [(0, 1), (2, 3)]
        # one after the other: two starting side by side take as long as
        # the box's two vCPUs are worth two cores at that moment, or one
        for shards in slices:
            server = children.lash(
                "shard-serve", "shard-serve", "--store", store,
                "--shards", ",".join(map(str, shards)), "--port", 0,
            )
            shard_servers.append(server)
            shard_addresses.append(server.announced_address())
            sidecars.append(server.announced_address())
        cluster_path = work / f"cluster-{shard_servers[0].pid}.json"
        cluster_path.write_text(
            json.dumps(
                {
                    "num_shards": STORE_SHARDS,
                    "replication": 1,
                    "servers": [
                        {
                            "host": host, "port": port,
                            "http_port": sidecar[1], "shards": list(shards),
                        }
                        for (host, port), sidecar, shards in zip(
                            shard_addresses, sidecars, slices
                        )
                    ],
                }
            ),
            encoding="utf-8",
        )
        front = children.lash(
            "route", "route", "--cluster", cluster_path,
            "--cache-size", 0, "--port", 0,
        )
    else:
        front = children.lash("serve", "serve", "--store", store, "--port", 0)
    address = front.announced_address()
    with HttpClient(address) as client:
        status, payload, _ = client.send(gen.Request("query", (probe,), 10))
    if status != 200 or not isinstance(payload, dict):
        raise HarnessError(f"{spec.name}: first answer was {status}")
    return Deployment(
        address, front, shard_servers, shard_addresses, sidecars,
        cluster_path, time.perf_counter() - start,
    )


def stats_snapshot(deployment: Deployment) -> dict:
    """Every counter the processes already return, read over their own
    interfaces, plus ``/proc`` CPU time."""
    with HttpClient(deployment.address) as client:
        front = client.get_json("/stats")
    shard_stats = []
    for sidecar in deployment.sidecars:
        with HttpClient(sidecar) as client:
            shard_stats.append(client.get_json("/stats"))
    shard_status = []
    for host, port in deployment.shard_addresses:
        shard_client = ShardClient(host, port)
        try:
            shard_status.append(shard_client.request({"op": "status"}, 5.0))
        finally:
            shard_client.close()
    return {
        "front": front,
        "shard_stats": shard_stats,
        "shard_status": shard_status,
        "front_cpu_s": proc_cpu_s(deployment.front.pid),
        "shard_cpu_s": sum(proc_cpu_s(c.pid) for c in deployment.shard_servers),
    }


# ----------------------------------------------------------------------
# oracle and summaries
# ----------------------------------------------------------------------


class Oracle:
    """In-process ``QueryService(open_store(...), cache_size=0)`` answers,
    computed once per distinct request."""

    def __init__(self, store_path: Path) -> None:
        self._store = open_store(store_path)
        self._service = QueryService(self._store, cache_size=0)
        self._answers: dict[gen.Request, object] = {}

    def close(self) -> None:
        self._store.close()

    @staticmethod
    def _strip(answer):
        if isinstance(answer, dict):
            answer = {k: v for k, v in answer.items() if k != "estimated_cost"}
            if "results" in answer:
                answer["results"] = [Oracle._strip(r) for r in answer["results"]]
        return answer

    def expected(self, request: gen.Request):
        answer = self._answers.get(request)
        if answer is None:
            if request.kind == "batch":
                answer = {
                    "results": self._service.batch(
                        list(request.queries), request.limit
                    )
                }
            elif request.kind == "count":
                answer = self._service.count(request.queries[0])
            else:
                answer = self._service.query(request.queries[0], request.limit)
            answer = self._answers[request] = self._strip(answer)
        return answer

    def correct(self, sample: Sample) -> bool:
        return (
            sample.status == 200
            and self._strip(sample.payload) == self.expected(sample.request)
        )


def summarize_window(run: Run, samples: list[Sample], start: float, seconds: float, oracle: Oracle | None) -> None:
    """Check every response of the window ``[start, start + seconds)``,
    then the latency and throughput readings every serving workload
    shares."""
    for sample in samples:
        sample.correct = run.check(
            sample.status == 200 and (oracle is None or oracle.correct(sample)),
            f"{sample.request.kind} {sample.request.queries[0]!r} answered "
            f"{sample.status} or differs from the in-process answer",
        )
    queries = [1e3 * s.latency for s in samples if s.request.kind == "query"]
    if len(queries) < 20:
        raise HarnessError(f"only {len(queries)} GET /query samples")
    run.raw["query_ms"] = [round(q, 3) for q in queries]
    run.metric("op_ms", percentile(queries, 50), "ms", n=len(queries))
    run.metric("tail_ms", percentile(queries, TAIL_PERCENTILE), "ms", n=len(queries))
    if capped_percentile(queries, 95)[0] == 95:
        run.metric("bench.p95_ms", percentile(queries, 95), "ms", n=len(queries))
    # correct responses per second, per repetition
    length = seconds / REPETITIONS
    rates = [
        sum(
            s.correct for s in samples
            if start + rep * length <= s.end < start + (rep + 1) * length
        ) / length
        for rep in range(REPETITIONS)
    ]
    run.raw["qps_per_repetition"] = rates
    run.metric("ops_per_s", statistics.median(rates), "1/s", n=REPETITIONS)
    p, value = capped_percentile(queries, 99)
    run.metric("serve.http.p99_ms", value, "ms", n=len(queries))
    run.raw["p99_is_p"] = p
    for kind in ("count", "batch"):
        latencies = [1e3 * s.latency for s in samples if s.request.kind == kind]
        if latencies:
            run.metric(
                f"serve.http.{kind}_p50_ms", statistics.median(latencies), "ms",
                n=len(latencies),
            )
    run.metric(
        "serve.http.bytes_per_response",
        statistics.mean(s.wire_bytes for s in samples), "B", n=len(samples),
    )


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after = after.get(key, {}) if isinstance(after, dict) else {}
        before = before.get(key, {}) if isinstance(before, dict) else {}
    return (after or 0) - (before or 0)


def plan_reuse(compiles: float, executions: float) -> float:
    """Share of shard-level executions that found a plan an earlier
    execution compiled.  The program's own ``hits / (hits + compiles)``
    cannot say this: one request looks its plan up once to estimate and
    once to execute, so it reads 1/3 or 1/2 when no query ever repeats."""
    return max(0.0, 1.0 - compiles / executions) if executions else 0.0


def counter_metrics(run: Run, before: dict, after: dict, samples: list[Sample], router: bool) -> None:
    """Per-layer readings from the counters the processes return."""
    requests = max(1, len(samples))
    executions = sum(len(s.request.queries) for s in samples)
    front_before, front_after = before["front"], after["front"]
    served = _delta(front_after, front_before, "queries")
    run.metric(
        "serve.service.cache_hit_ratio",
        _delta(front_after, front_before, "cache_hits") / max(1, served), "ratio",
    )
    run.metric(
        "serve.service.cache_evictions",
        _delta(front_after, front_before, "cache_evictions"), "count",
    )
    run.metric(
        "serve.http.shed_503",
        _delta(front_after, front_before, "frontend", "rejected"), "count",
    )
    run.metric(
        "serve.http.gzip_share",
        _delta(front_after, front_before, "frontend", "gzipped_responses")
        / requests, "ratio",
    )
    run.metric(
        "serve.http.cpu_s_per_kreq",
        1e3 * (after["front_cpu_s"] - before["front_cpu_s"]) / requests, "s",
    )
    # plan cache and execution paths live where the matching happens
    if router:
        plans_before = [s.get("plan_cache", {}) for s in before["shard_stats"]]
        plans_after = [s.get("plan_cache", {}) for s in after["shard_stats"]]
    else:
        plans_before = [front_before.get("plan_cache", {})]
        plans_after = [front_after.get("plan_cache", {})]
    compiles = sum(
        _delta(a, b, "compiles") for a, b in zip(plans_after, plans_before)
    )
    paths = {
        path: sum(
            _delta(a, b, "paths", path) for a, b in zip(plans_after, plans_before)
        )
        for path in ("exact", "pruned", "scan", "wildcard", "legacy")
    }
    for path in ("exact", "pruned", "scan", "wildcard"):
        run.metric(f"query.base.path_{path}", paths[path], "count")
    run.metric(
        "query.plan.cache_hit_ratio",
        plan_reuse(compiles, sum(paths.values())), "ratio",
    )
    if not router:
        return
    store_before, store_after = front_before["store"], front_after["store"]
    run.metric(
        "serve.router.retries",
        _delta(store_after, store_before, "fanout_retries"), "count",
    )
    run.metric(
        "serve.router.server_failures",
        _delta(store_after, store_before, "server_failures"), "count",
    )
    run.metric(
        "serve.router.cpu_s_per_kreq",
        1e3 * (after["front_cpu_s"] - before["front_cpu_s"]) / requests, "s",
    )
    run.metric(
        "serve.distributed.cpu_s_per_kreq",
        1e3 * (after["shard_cpu_s"] - before["shard_cpu_s"]) / requests, "s",
    )
    sent_raw = _delta(store_after, store_before, "wire", "raw_bytes_sent")
    got_raw = _delta(store_after, store_before, "wire", "raw_bytes_received")
    sent_wire = _delta(store_after, store_before, "wire", "wire_bytes_sent")
    got_wire = _delta(store_after, store_before, "wire", "wire_bytes_received")
    run.metric(
        "serve.protocol.wire_over_raw",
        (sent_wire + got_wire) / max(1, sent_raw + got_raw), "ratio",
    )
    calls = seconds = 0.0
    for shard, hist in store_after.get("fanout_latency", {}).items():
        earlier = store_before.get("fanout_latency", {}).get(shard, {})
        calls += hist["count"] - earlier.get("count", 0)
        seconds += hist["sum_seconds"] - earlier.get("sum_seconds", 0.0)
    run.metric(
        "serve.distributed.partial_search_us", 1e6 * seconds / max(1, calls),
        "us", n=int(calls),
    )
    cache_hits = sum(
        _delta(a, b, "result_cache", "hits")
        for a, b in zip(after["shard_status"], before["shard_status"])
    )
    # every execution searches each shard server once
    run.metric(
        "serve.distributed.result_cache_hit_ratio",
        cache_hits / max(1, executions * len(after["shard_status"])), "ratio",
    )


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------


def traced_pass(run: Run, spec: ServingSpec, deployment: Deployment, store_path: Path, pool: list[str]) -> None:
    """Up to 300 requests of the workload's stream: the HTTP round trip
    plus in-process replays of each layer's public calls, all spanned."""
    recorder = run.recorder
    assert recorder is not None
    requests = []
    stream = gen.iter_requests(pool, run.seed * 1000 + 1, spec.zipf_s)
    while len(requests) < TRACED_REQUESTS:
        request = next(stream)
        if request.kind == "query":
            requests.append(request)

    store = open_store(store_path)
    cold = open_store(store_path)  # its plan cache only ever sees explain()
    mirror = QueryService(store, cache_size=0 if spec.router else 1024)
    client = HttpClient(deployment.address)
    backend = None
    shard_calls: dict[int, list[float]] = {}
    wire_payloads: list[dict] = []
    original_request = ShardClient.request
    if spec.router:
        assert deployment.cluster_path is not None
        backend = RouterBackend(ClusterMap.load(deployment.cluster_path))
        current = {"parent": None, "request": None}

        def spanned_request(self, payload, timeout):
            # one child span per shard-server call, parented explicitly:
            # the call runs on a fan-out worker thread
            with recorder.span(
                "serve.distributed.shard_call",
                request=current["request"], parent=current["parent"],
            ) as span_id:
                response = original_request(self, payload, timeout)
            if payload.get("op") == "search":
                span = recorder.spans[span_id]
                shard_calls.setdefault(current["request"], []).append(
                    span["end"] - span["start"]
                )
                if len(wire_payloads) < 100:
                    wire_payloads.append(response)
            return response

        ShardClient.request = spanned_request
    seen: set[tuple] = set()
    hits: list[float] = []
    misses: list[float] = []
    compiles: list[float] = []
    overheads: list[float] = []
    try:
        give_up = time.perf_counter() + TRACED_SHARE * run.seconds
        for index, request in enumerate(requests):
            if time.perf_counter() > give_up:
                break
            query, limit = request.queries[0], request.limit
            with recorder.span("serve.http.round_trip", request=index):
                status, _, _ = client.send(request)
            run.check(status == 200, f"traced request {index} answered {status}")
            with recorder.span("query.tokens.normalize_query", request=index):
                tokens = normalize_query(query)
            with recorder.span("serve.service.query", request=index) as span_id:
                mirror.query(query, limit)
            span = recorder.spans[span_id]
            (hits if tokens in seen else misses).append(span["end"] - span["start"])
            with recorder.span("query.plan.explain", request=index) as span_id:
                cold.explain(tokens)
            if tokens not in seen:
                span = recorder.spans[span_id]
                compiles.append(span["end"] - span["start"])
            seen.add(tokens)
            with recorder.span("query.base.search", request=index):
                store.search(tokens, limit=limit)
            if backend is not None:
                with recorder.span("serve.router.search", request=index) as span_id:
                    current["parent"], current["request"] = span_id, index
                    backend.search(tokens, limit=limit)
                span = recorder.spans[span_id]
                slowest = max(shard_calls.get(index, [0.0]))
                overheads.append(span["end"] - span["start"] - slowest)
    finally:
        ShardClient.request = original_request
        client.close()
        if backend is not None:
            backend.close()
        cold.close()
        store.close()

    def p50_us(name: str) -> float:
        return 1e6 * statistics.median(recorder.durations(name))

    http_us = p50_us("serve.http.round_trip")
    run.metric("query.tokens.parse_us", p50_us("query.tokens.normalize_query"), "us", n=len(requests))
    run.metric("query.plan.compile_us", 1e6 * statistics.median(compiles), "us", n=len(compiles))
    run.metric("query.base.search_us", p50_us("query.base.search"), "us", n=len(requests))
    run.metric("serve.http.overhead_us", http_us - p50_us("serve.service.query"), "us", n=len(requests))
    if misses:
        run.metric("serve.service.miss_us", 1e6 * statistics.median(misses), "us", n=len(misses))
    if hits and not spec.router:
        run.metric("serve.service.hit_us", 1e6 * statistics.median(hits), "us", n=len(hits))
    run.metric(
        "bench.trace_overhead",
        http_us / 1e3 / run.metrics["op_ms"]["value"], "ratio",
    )
    if backend is None:
        return
    run.metric("serve.router.search_us", p50_us("serve.router.search"), "us", n=len(requests))
    run.metric("serve.router.fanout_overhead_us", 1e6 * statistics.median(overheads), "us", n=len(overheads))
    run.metric(
        "serve.router.over_mono",
        p50_us("serve.router.search") / p50_us("query.base.search"), "ratio",
    )
    encode, decode = [], []
    for payload in wire_payloads:
        start = time.perf_counter()
        frame = bytes(encode_value(payload))
        middle = time.perf_counter()
        decode_value(frame)
        end = time.perf_counter()
        encode.append(middle - start)
        decode.append(end - middle)
    if encode:
        run.metric("serve.protocol.encode_us", 1e6 * statistics.median(encode), "us", n=len(encode))
        run.metric("serve.protocol.decode_us", 1e6 * statistics.median(decode), "us", n=len(decode))


# ----------------------------------------------------------------------


def run(run: Run) -> None:
    spec = SPECS[run.workload]
    children = Children(run.work)
    oracle = None
    try:
        start = time.perf_counter()
        store_path = run.work / "store.shards"
        built = build_store(run.seed, store_path, STORE_SENTENCES, STORE_PARAMS)
        with open_store(store_path) as store:
            patterns, parents = gen.store_patterns(store)
        pool = gen.query_pool(patterns, parents, run.seed, spec.pool_size)
        deployment = deploy(spec, children, store_path, run.work, pool[0])
        # warm-up, outside the window: connections, lazy shard opens, and
        # for the cached workload the head of the skewed stream
        closed_loop(
            deployment.address,
            [
                gen.iter_requests(pool, run.seed * 1000 + 500 + c, spec.zipf_s)
                for c in range(CLIENTS)
            ],
            seconds=30.0,
            max_requests=spec.warmup_requests // CLIENTS,
        )
        run.metric("setup_s", time.perf_counter() - start, "s")
        run.metric("store_bytes_per_pattern", built["bytes"] / built["patterns"], "B")
        run.metric("serve.writer.build_s", built["build_s"], "s")
        run.metric("serve.writer.store_bytes", built["bytes"], "B")

        before = stats_snapshot(deployment)
        samples = closed_loop(
            deployment.address,
            [
                gen.iter_requests(pool, run.seed * 1000 + c, spec.zipf_s)
                for c in range(CLIENTS)
            ],
            run.seconds,
        )
        after = stats_snapshot(deployment)

        oracle = Oracle(store_path)
        summarize_window(run, samples, 0.0, run.seconds, oracle)
        counter_metrics(run, before, after, samples, spec.router)
        if run.recorder is not None:
            traced_pass(run, spec, deployment, store_path, pool)
        # a read-only server has nothing to flush
        children.stop(kill=True)
        run.metric(
            "peak_rss_mb",
            sum(c.final_peak_rss_mb or 0.0 for c in deployment.processes), "MB",
        )
        readies = []
        for _ in range(COLD_STARTS):
            readies.append(
                deploy(spec, children, store_path, run.work, pool[0]).ready_s
            )
            children.stop(kill=True)
        run.metric("fresh_s", statistics.median(readies), "s", n=COLD_STARTS)
        run.raw["ready_s"] = readies
    finally:
        if oracle is not None:
            oracle.close()
        children.stop()
