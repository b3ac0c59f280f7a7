"""The live-ingest workload: ``lash serve --compact-spool`` folding
batches an ingester child process adds and retires, while one client
queries and dates each batch's visibility off the answers' watermarks."""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

from repro import MiningParams
from repro.core.lash import micro_mine
from repro.serve import Ingestor, StoreCompactor, open_store
from repro.serve.format import read_manifest

from lashbench import gen
from lashbench.load import HttpClient, Sample, closed_loop
from lashbench.mining import mine_to_store, store_bytes
from lashbench.procs import SUITE_DIR, Children, HarnessError, proc_peak_rss_mb
from lashbench.run_state import Run
from lashbench.serving import TAIL_PERCENTILE, plan_reuse, summarize_window
from lashbench.stats import capped_percentile

BASE_SENTENCES = 500
PARAMS = MiningParams(1, 0, 3)
#: share of the window that is quiet lead-in (queries only)
LEAD_IN_SHARE = 0.2
TICK_S = 0.25
BATCH = 6
#: ingested sequences kept before each tick starts retiring as many as
#: it adds, so the store's size stays level
LEVEL = 48
#: shorter than a tick and not a divisor of it, so the daemon's polls
#: drift across the ticks and a batch's wait for the next poll averages
#: out within a run instead of being that run's luck
COMPACT_INTERVAL_S = 0.2
POLL_S = 0.25
DRAIN_TIMEOUT_S = 30.0
#: with a few queries what a request costs, and what the server keeps
#: per generation, is a property of the seed's draw: with eight, resident
#: memory moved by a third either way; with thirty-two, p50 still read 48
#: ms on some seeds and 60 ms on others (spread 8-25 % over ten seeds in
#: four sets of runs; 6 % with 256)
SELECTIVE_QUERIES = 256
WARMUP_REQUESTS = 16
TRACED_REQUESTS = 48


# ----------------------------------------------------------------------
# the ingester child: `run.py --role ingester --plan plan.json`
# ----------------------------------------------------------------------


def ingester_main(plan_path: str) -> int:
    """Open loop: each tick fires at its due time whatever the previous
    one cost; one JSON line per tick on stdout.  Times are
    ``time.monotonic()``, one clock for every process of the machine."""
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    ingestor = Ingestor.open(plan["state"])
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    for tick in plan["ticks"]:
        due = plan["start_at"] + tick["due"]
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        add_start = time.monotonic()
        report = ingestor.add(tick["sequences"])
        add_end = time.monotonic()
        retired_from = None
        if tick["retire"]:
            retired_from = ingestor.retire(tick["retire"])["retained_from"]
        end = time.monotonic()
        print(
            json.dumps(
                {
                    "due": due,
                    "late_s": max(0.0, add_start - due),
                    "add_start": add_start,
                    "add_end": add_end,
                    "end": end,
                    "through_seq": report["through_seq"],
                    "retained_from": retired_from,
                }
            ),
            flush=True,
        )
    print(json.dumps({"peak_rss_mb": proc_peak_rss_mb()}), flush=True)
    return 0


# ----------------------------------------------------------------------


class StatsPoller(threading.Thread):
    """Reads ``/stats`` every :data:`POLL_S` seconds: the compaction
    daemon publishes only its *last* fold, so folds are collected by
    generation as they go by."""

    def __init__(self, address: tuple[str, int]) -> None:
        super().__init__(daemon=True)
        self._address = address
        self._halt = threading.Event()
        self.folds: dict[int, dict] = {}
        self.pending_max = 0
        self.latest: dict = {}

    def run(self) -> None:
        with HttpClient(self._address) as client:
            while not self._halt.is_set():
                self.poll(client)
                self._halt.wait(POLL_S)

    def poll(self, client: HttpClient) -> None:
        status, stats, _ = client.fetch("GET", "/stats")
        if status != 200 or not isinstance(stats, dict):
            return
        self.latest = stats
        compaction = stats.get("compaction") or {}
        ingest = compaction.get("ingest") or {}
        self.pending_max = max(self.pending_max, ingest.get("pending_deltas", 0))
        last = compaction.get("last")
        if last is not None and last["generation"] not in self.folds:
            self.folds[last["generation"]] = {
                **last,
                "file_bytes": (stats.get("store") or {}).get("file_bytes", 0),
            }

    def drained(self, through: int, retained: int) -> bool:
        compaction = self.latest.get("compaction") or {}
        ingest = compaction.get("ingest") or {}
        return (
            ingest.get("pending_deltas", 1) == 0
            and (ingest.get("ingested_through") or 0) >= through
            and (ingest.get("retained_from") or 0) >= retained
        )

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


def build_live(run: Run, corpus) -> dict:
    """A σ=1 sharded store of the base corpus with ingest state and an
    empty spool next to it."""
    root = run.work / "live"
    root.mkdir()
    base = list(corpus.database)[:BASE_SENTENCES]
    store = root / "live.shards"
    mine_to_store(PARAMS, base, corpus.hierarchy("CLP"), store)
    Ingestor.init(
        root / "state", store, root / "spool", gamma=PARAMS.gamma, lam=PARAMS.lam
    )
    return {"root": root, "store": store, "spool": root / "spool", "base": base}


def shards_identical(live: Path, reference: Path) -> list[bool]:
    """Pairwise byte comparison through each manifest's ``shard_files``
    (compacted files are generation-suffixed, so names differ)."""
    live_files = read_manifest(live)["shard_files"]
    reference_files = read_manifest(reference)["shard_files"]
    if len(live_files) != len(reference_files):
        return [False]
    return [
        (live / a).read_bytes() == (reference / b).read_bytes()
        for a, b in zip(live_files, reference_files)
    ]


def traced_round_trips(run: Run, address, queries: list[str]) -> None:
    """The read path with spans on, against the drained server."""
    recorder = run.recorder
    assert recorder is not None
    with HttpClient(address) as client:
        for index, query in enumerate(
            itertools.islice(itertools.cycle(queries), TRACED_REQUESTS)
        ):
            with recorder.span("serve.http.round_trip", request=index):
                status, _, _ = client.send(gen.Request("query", (query,), 10))
            run.check(status == 200, f"traced request {index} answered {status}")


def traced_pass(run: Run, live: dict, stream: list, corpus) -> None:
    """Spans around the write path's public calls, off to the side: a
    micro-mine of one batch, add/retire against a copy, one fold."""
    recorder = run.recorder
    assert recorder is not None
    hierarchy = corpus.hierarchy("CLP")
    for _ in range(3):
        with recorder.span("core.lash.micro_mine"):
            micro_mine(stream[:BATCH], hierarchy, PARAMS)
    run.metric(
        "core.lash.micro_mine_ms",
        1e3 * statistics.median(recorder.durations("core.lash.micro_mine")),
        "ms", n=3,
    )
    root = run.work / "traced"
    root.mkdir()
    store = root / "copy.shards"
    mine_to_store(PARAMS, live["base"], hierarchy, store)
    ingestor = Ingestor.init(
        root / "state", store, root / "spool", gamma=PARAMS.gamma, lam=PARAMS.lam
    )
    with recorder.span("serve.ingest.add"):
        ingestor.add(stream[:BATCH])
    with recorder.span("serve.ingest.retire"):
        ingestor.retire(BATCH // 2)
    deltas = sorted((root / "spool").glob("*.store"))
    with recorder.span("serve.compact.compact"):
        StoreCompactor(store).compact(deltas)
    # what keeping every pattern (σ=1) costs against a σ-mined store
    sigma_store = root / "sigma20.shards"
    mine_to_store(
        MiningParams(20, PARAMS.gamma, PARAMS.lam), live["base"], hierarchy,
        sigma_store,
    )
    run.metric(
        "serve.store.sigma1_blowup",
        run.raw["base_store_bytes"] / store_bytes(sigma_store), "ratio",
    )


def run(run: Run) -> None:
    lead_in = LEAD_IN_SHARE * run.seconds
    schedule = gen.ingest_schedule(run.seconds - lead_in, TICK_S, BATCH, LEVEL)
    needed = BASE_SENTENCES + schedule[-1].last
    children = Children(run.work)
    poller = None
    try:
        start = time.monotonic()
        corpus = gen.text_corpus(run.seed, needed)
        live = build_live(run, corpus)
        with open_store(live["store"]) as store:
            patterns, parents = gen.store_patterns(store)
            base_patterns = len(store)
        queries = gen.query_pool(patterns, parents, run.seed, SELECTIVE_QUERIES)
        server = children.lash(
            "serve", "serve", "--store", live["store"],
            "--compact-spool", live["spool"],
            "--compact-interval", COMPACT_INTERVAL_S, "--port", 0,
        )
        address = server.announced_address()
        closed_loop(
            address, [gen.iter_requests(queries, run.seed, None)],
            seconds=30.0, max_requests=WARMUP_REQUESTS,
        )
        run.metric("setup_s", time.monotonic() - start, "s")
        run.raw["base_store_bytes"] = store_bytes(live["store"])
        run.raw["base_patterns"] = base_patterns
        stream = [list(seq) for seq in list(corpus.database)[BASE_SENTENCES:needed]]

        # the ingester imports and attaches during the lead-in and then
        # sleeps until the first tick is due
        origin = time.monotonic()
        start_at = origin + lead_in
        plan_path = run.work / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "state": str(live["root"] / "state"),
                    "start_at": start_at,
                    "ticks": [
                        {
                            "due": tick.due,
                            "sequences": stream[tick.first:tick.last],
                            "retire": tick.retire,
                        }
                        for tick in schedule
                    ],
                }
            ),
            encoding="utf-8",
        )
        ingester = children.spawn(
            "ingester",
            [
                sys.executable, str(SUITE_DIR / "run.py"),
                "--role", "ingester", "--plan", str(plan_path),
            ],
        )
        poller = StatsPoller(address)
        poller.start()
        stop = threading.Event()
        box: dict = {}

        def query_client() -> None:
            # only query and count requests carry the watermark fields
            requests = (
                r for r in gen.iter_requests(queries, run.seed + 1, None)
                if r.kind == "query"
            )
            box["samples"] = closed_loop(
                address, [requests], seconds=run.seconds + DRAIN_TIMEOUT_S + 30.0,
                stop=stop, origin=origin,
            )

        client_thread = threading.Thread(target=query_client, daemon=True)
        client_thread.start()

        ticks = []
        child_rss = 0.0
        try:
            if "ready" not in json.loads(ingester.read_line(30.0)):
                raise HarnessError("ingester did not report ready")
            for _ in schedule:
                ticks.append(json.loads(ingester.read_line(60.0)))
            child_rss = json.loads(ingester.read_line(30.0))["peak_rss_mb"]
            through = ticks[-1]["through_seq"]
            retained = max((t["retained_from"] or 0) for t in ticks)
            give_up = time.monotonic() + DRAIN_TIMEOUT_S
            while not poller.drained(through, retained):
                if time.monotonic() > give_up:
                    break
                time.sleep(0.05)
            # one more answer after the daemon reports the spool empty
            time.sleep(0.1)
        finally:
            stop.set()
            client_thread.join(timeout=60.0)
            poller.halt()
        samples: list[Sample] = box.get("samples", [])
        final_stats = poller.latest
        if run.recorder is not None:
            traced_round_trips(run, address, queries)
        children.stop()
    finally:
        if poller is not None and poller.is_alive():
            poller.halt()
        children.stop()

    phase_end = ticks[-1]["end"] - origin
    phase = [s for s in samples if lead_in <= s.end < phase_end]
    quiet = [s for s in samples if s.end < lead_in]
    summarize_window(run, phase, lead_in, phase_end - lead_in, oracle=None)
    for sample in quiet:
        run.check(sample.status == 200, f"lead-in query answered {sample.status}")
    quiet_queries = [1e3 * s.latency for s in quiet if s.request.kind == "query"]
    if quiet_queries:
        run.metric(
            "serve.service.quiet_p95_ms",
            capped_percentile(quiet_queries, TAIL_PERCENTILE)[1],
            "ms", n=len(quiet_queries),
        )

    # watermarks never regress
    marks = [
        (s.payload.get("ingested_through", 0), s.payload.get("retained_from", 0))
        for s in samples
        if s.status == 200 and isinstance(s.payload, dict)
        and "ingested_through" in s.payload
    ]
    run.check(
        all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(marks, marks[1:]))
        and len(marks) > 0,
        "a watermark moved backwards",
    )

    # batch due -> first answer whose watermark covers it
    def first_covering(through_seq: int, retained_from: int = 0) -> float | None:
        for sample in samples:
            payload = sample.payload if isinstance(sample.payload, dict) else {}
            if (
                payload.get("ingested_through", 0) >= through_seq
                and payload.get("retained_from", 0) >= retained_from
            ):
                return sample.end
        return None

    visible = []
    for index, tick in enumerate(ticks):
        seen_at = first_covering(tick["through_seq"])
        if run.check(seen_at is not None, f"batch {index} never became visible"):
            visible.append(seen_at - (tick["due"] - origin))
    if not visible:
        raise HarnessError("no batch became visible")
    run.metric("fresh_s", statistics.median(visible), "s", n=len(visible))
    run.raw["visible_s"] = visible
    run.raw["tick_due_s"] = [t["due"] - origin for t in ticks]
    all_visible = first_covering(through, retained)
    if all_visible is not None:
        last_add = ticks[-1]["add_end"] - origin
        run.metric("bench.drain_s", max(0.0, all_visible - last_add), "s")
    offered = len(ticks) * BATCH
    visible_in_phase = sum(
        BATCH for tick, seen in zip(ticks, visible)
        if (tick["due"] - origin) + seen <= phase_end
    )
    run.metric("serve.ingest.sustained_ratio", visible_in_phase / offered, "ratio")
    run.metric("serve.ingest.pending_max", poller.pending_max, "count")
    run.metric(
        "serve.ingest.add_ms",
        1e3 * statistics.median(t["add_end"] - t["add_start"] for t in ticks),
        "ms", n=len(ticks),
    )
    retires = [t["end"] - t["add_end"] for t in ticks if t["retained_from"]]
    if retires:
        run.metric(
            "serve.ingest.retire_ms", 1e3 * statistics.median(retires), "ms",
            n=len(retires),
        )
    run.raw["late_s_max"] = max(t["late_s"] for t in ticks)
    applied = [
        f for f in (live["spool"] / "applied").iterdir() if f.suffix == ".store"
    ]
    delta_bytes = sum(f.stat().st_size for f in applied)
    run.metric(
        "serve.ingest.delta_bytes", delta_bytes / max(1, len(applied)), "B",
        n=len(applied),
    )
    folds = list(poller.folds.values())
    compaction = final_stats.get("compaction") or {}
    run.metric("serve.compact.folds", compaction.get("compactions", 0), "count")
    if folds:
        run.metric(
            "serve.compact.fold_s",
            statistics.median(f["seconds"] for f in folds), "s", n=len(folds),
        )
    run.metric(
        "serve.compact.deltas_per_fold",
        (compaction.get("ingest") or {}).get("applied_deltas", 0)
        / max(1, compaction.get("compactions", 0)),
        "count",
    )
    run.metric(
        "serve.compact.write_amp",
        # every fold rewrites the whole store; folds the poller missed
        # are taken at the mean size of those it saw
        statistics.mean(f["file_bytes"] for f in folds)
        * compaction.get("compactions", 0) / max(1, delta_bytes)
        if folds else 0.0,
        "ratio",
    )
    run.metric(
        "serve.compact.quarantined", len(compaction.get("rejected") or {}), "count"
    )
    plan_cache = final_stats.get("plan_cache") or {}
    run.metric(
        "query.plan.cache_hit_ratio",
        plan_reuse(
            plan_cache.get("compiles", 0),
            sum((plan_cache.get("paths") or {}).values()),
        ),
        "ratio",
    )

    # after drain the live shards are byte-identical to a fresh σ=1 mine
    # of what is retained: the base plus the ingested, less the retired
    retained_corpus = live["base"] + [tuple(s) for s in stream[retained:through]]
    reference = run.work / "reference.shards"
    mine_to_store(PARAMS, retained_corpus, corpus.hierarchy("CLP"), reference)
    for shard, same in enumerate(shards_identical(live["store"], reference)):
        run.check(same, f"live shard {shard} differs from the re-mined reference")
    with open_store(live["store"]) as store:
        live_patterns = len(store)
    live_bytes = store_bytes(live["store"])
    run.metric("store_bytes_per_pattern", live_bytes / live_patterns, "B")
    run.metric("serve.writer.store_bytes", live_bytes, "B")
    run.metric(
        "peak_rss_mb", (server.final_peak_rss_mb or 0.0) + child_rss, "MB"
    )
    run.raw["rss_mb"] = {"server": server.final_peak_rss_mb, "ingester": child_rss}
    shutil.rmtree(reference, ignore_errors=True)

    if run.recorder is not None:
        traced_pass(run, live, stream, corpus)
        run.metric(
            "bench.trace_overhead",
            1e3 * statistics.median(
                run.recorder.durations("serve.http.round_trip")
            ) / run.metrics["op_ms"]["value"],
            "ratio",
        )
