"""Command-line interface of the ``lash`` tool.

Commands: ``generate``, ``stats``, ``flist``, ``mine`` and ``compare``
(mining); ``query``, ``index build | merge | compact | info``, ``serve``,
``shard-serve`` and ``route`` (serving); ``ingest init | add | retire |
flush | status`` (live ingestion).

Examples
--------
Generate a synthetic corpus and mine it::

    lash generate text --sentences 2000 --out /tmp/nyt
    lash mine --db /tmp/nyt/corpus.txt --hierarchy /tmp/nyt/hierarchy-CLP.txt \
         --sigma 20 --gamma 0 --lam 3 --top 20

Persist the generalized f-list once, reuse it across parameter sweeps
(paper Sec. 3.4)::

    lash flist --db db.txt --hierarchy h.txt --out flist.tsv
    lash mine --db db.txt --hierarchy h.txt --flist flist.tsv --sigma 50

Compare two algorithms on the same input (every ``--algorithm`` runs
through one driver, so ``--flist`` and ``--engine parallel`` apply to
each; MG-FSM always mines flat)::

    lash mine --db db.txt --hierarchy h.txt --algorithm naive --out naive.tsv
    lash mine --db db.txt --hierarchy h.txt --algorithm lash  --out lash.tsv
    lash compare naive.tsv lash.tsv

Mine once, then serve queries over HTTP from a persistent binary store::

    lash mine --db db.txt --hierarchy h.txt --sigma 20 --out patterns.tsv
    lash index build --patterns patterns.tsv --hierarchy h.txt \
         --out patterns.store
    lash serve --store patterns.store --port 8080
    curl 'http://127.0.0.1:8080/query?q=the+%5EADJ+%3F'
    lash query --patterns patterns.tsv --hierarchy h.txt \
         '(big|small|^ADJ)@50 ?'      # disjunction + frequency floor
    lash query --patterns patterns.tsv --hierarchy h.txt \
         --min-freq 20 'the !^ADJ *{0,2} house'   # negation, bounded gap,
                                                  # per-query σ override

Shard large stores across files, and fold new mining runs into an
existing index without re-mining::

    lash index build --patterns patterns.tsv --out patterns.shards \
         --shards 8
    lash index merge patterns.shards new-run.store --out merged.shards \
         --shards 8
    lash serve --store merged.shards

Or compact deltas into the *live* shard set without restarting readers
(atomic manifest swap; ``lash serve --compact-spool DIR`` does the same
from a background thread)::

    lash index compact --store merged.shards new-run.store
    lash index compact --store merged.shards --shards 16   # rebalance

Serve one shard set from many processes — shard servers own slices,
the router fans out and merges (answers byte-identical to ``serve``)::

    lash shard-serve --store merged.shards --shards 0,1 --port 7601
    lash shard-serve --store merged.shards --shards 2,3 --port 7602
    lash route --cluster cluster.json --port 8080
    lash index info --store merged.shards --advise   # pick a shard count

All ``--db`` / ``--hierarchy`` / ``--out`` paths accept ``.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

# Start-up rule (README, "Start-up"): this module imports the stdlib
# only.  Each ``cmd_*`` imports what its process will run as its first
# statements — before it validates, announces or does work — so a
# command pays for what it runs and nothing is imported inside a
# request, a fold or a map task.


def _print_row(label: str, row: dict) -> None:
    cells = "  ".join(f"{k}={v}" for k, v in row.items())
    print(f"{label:<12} {cells}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    try:
        if args.kind == "text":
            from repro.datasets import TextCorpusConfig, generate_text_corpus
        elif args.kind == "products":
            from repro.datasets import (
                ProductDataConfig,
                generate_product_data,
            )
        else:
            from repro.datasets import EventLogConfig, generate_event_log
    except ModuleNotFoundError as exc:
        # the text and products generators are numpy's only users, so
        # it may well be absent where everything else works
        if exc.name != "numpy":
            raise
        raise SystemExit(
            f"lash generate {args.kind} needs numpy: {exc}"
        ) from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "text":
        corpus = generate_text_corpus(
            TextCorpusConfig(num_sentences=args.sentences, seed=args.seed)
        )
        corpus.database.to_file(out / "corpus.txt")
        for variant, hierarchy in corpus.hierarchies.items():
            hierarchy.to_file(out / f"hierarchy-{variant}.txt")
        print(f"wrote {len(corpus.database)} sentences to {out}/corpus.txt")
        print(f"hierarchies: {', '.join(sorted(corpus.hierarchies))}")
    elif args.kind == "products":
        data = generate_product_data(
            ProductDataConfig(
                num_users=args.users,
                num_products=args.products,
                seed=args.seed,
            )
        )
        data.database.to_file(out / "sessions.txt")
        for levels in (2, 3, 4, 8):
            data.hierarchy(levels).to_file(out / f"hierarchy-h{levels}.txt")
        print(f"wrote {len(data.database)} sessions to {out}/sessions.txt")
        print("hierarchies: h2, h3, h4, h8")
    else:
        log = generate_event_log(
            EventLogConfig(num_machines=args.machines, seed=args.seed)
        )
        log.database.to_file(out / "logs.txt")
        log.hierarchy.to_file(out / "hierarchy.txt")
        print(f"wrote {len(log.database)} machine logs to {out}/logs.txt")
        print("planted cascades (class level):")
        for template in log.planted_patterns():
            print("  " + " -> ".join(template))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.datasets import hierarchy_stats
    from repro.io import read_database, read_hierarchy

    database = read_database(args.db)
    _print_row("dataset", database.stats().row())
    if args.hierarchy:
        hierarchy = read_hierarchy(args.hierarchy)
        _print_row("hierarchy", hierarchy_stats(hierarchy).row())
    return 0


def cmd_flist(args: argparse.Namespace) -> int:
    """Compute the generalized f-list and persist it (paper Sec. 3.4)."""
    from repro.hierarchy import Hierarchy, build_vocabulary
    from repro.io import read_database, read_hierarchy, write_vocabulary

    database = read_database(args.db)
    if args.hierarchy:
        hierarchy = read_hierarchy(args.hierarchy)
    else:
        hierarchy = Hierarchy.flat({item for seq in database for item in seq})
    vocabulary = build_vocabulary(database, hierarchy)
    write_vocabulary(vocabulary, args.out)
    print(f"wrote {len(vocabulary)} items to {args.out}")
    for item_id in range(min(args.top, len(vocabulary))):
        print(
            f"{vocabulary.frequency(item_id):>8}  {vocabulary.name(item_id)}"
        )
    return 0


def _build_algorithm(args: argparse.Namespace, params):
    if args.algorithm == "lash":
        from repro.core import Lash

        return Lash(params, local_miner=args.miner)
    if args.algorithm == "closed-lash":
        from repro.core import ClosedLash

        return ClosedLash(
            params, mode=args.mode, local_miner=args.miner
        )
    from repro.baselines import (
        GspAlgorithm,
        MgFsm,
        NaiveAlgorithm,
        SemiNaiveAlgorithm,
    )

    if args.algorithm == "naive":
        return NaiveAlgorithm(params)
    if args.algorithm == "semi-naive":
        return SemiNaiveAlgorithm(params)
    if args.algorithm == "gsp":
        return GspAlgorithm(params)
    if args.algorithm == "mg-fsm":
        return MgFsm(params)
    raise SystemExit(f"unknown algorithm: {args.algorithm}")


def cmd_mine(args: argparse.Namespace) -> int:
    from repro.core import MiningParams
    from repro.io import (
        read_database,
        read_hierarchy,
        read_vocabulary,
        write_patterns,
    )

    if args.filter:
        from repro.analysis import filter_result

    # flag validation first: don't load a multi-GB corpus to then die
    # on an inconsistent engine option
    gamma = None if args.gamma < 0 else args.gamma
    params = MiningParams(sigma=args.sigma, gamma=gamma, lam=args.lam)
    algorithm = _build_algorithm(args, params)
    if args.engine == "parallel":
        from repro.mapreduce.parallel import ParallelMapReduceEngine

        algorithm.engine = ParallelMapReduceEngine(
            max_workers=args.max_workers
        )
    elif args.max_workers is not None:
        raise SystemExit("--max-workers requires --engine parallel")
    if args.store_shards is not None and not args.store:
        raise SystemExit("--store-shards requires --store")
    if args.flist and not args.hierarchy:
        raise SystemExit("--flist requires --hierarchy")

    database = read_database(args.db)
    hierarchy = read_hierarchy(args.hierarchy) if args.hierarchy else None
    vocabulary = (
        read_vocabulary(args.flist, hierarchy) if args.flist else None
    )

    start = time.perf_counter()
    result = algorithm.mine(database, hierarchy, vocabulary)
    if args.filter:
        result = filter_result(result, args.filter)
    elapsed = time.perf_counter() - start

    print(
        f"{result.algorithm} {params.describe()}: {len(result)} patterns "
        f"in {elapsed:.2f}s"
    )
    times = result.phase_times()
    flist = ""
    if result.preprocess_job is not None:
        flist_s = result.preprocess_job.metrics.serial_phase_times().total_s
        flist = f"flist={flist_s:.2f}s "
    print(
        f"phases: {flist}map={times.map_s:.2f}s "
        f"shuffle={times.shuffle_s:.2f}s "
        f"reduce={times.reduce_s:.2f}s | shuffled "
        f"{result.counters['SHUFFLE_BYTES']} bytes"
    )
    search = result.local_stats
    if search.candidates:
        print(
            f"search: {search.candidates} candidates -> {search.outputs} "
            f"outputs ({search.outputs / search.candidates:.1%} useful)"
        )
    for pattern, freq in result.top(args.top):
        print(f"{freq:>8}  {pattern}")
    if args.out:
        write_patterns(result, args.out)
        print(f"wrote all patterns to {args.out}")
    if args.store:
        result.to_store(args.store, shards=args.store_shards)
        print(f"wrote pattern store to {args.store}")
    return 0


def _load_coded_patterns(patterns_path: str, hierarchy_path: str | None):
    """Patterns TSV (+ optional hierarchy) → ``(coded, vocabulary)``."""
    from repro.io import read_hierarchy, read_patterns
    from repro.query import code_patterns

    patterns = read_patterns(patterns_path)
    hierarchy = read_hierarchy(hierarchy_path) if hierarchy_path else None
    return code_patterns(patterns, hierarchy)


def _load_query_index(patterns_path: str, hierarchy_path: str | None):
    """Patterns TSV (+ optional hierarchy) → in-memory ``PatternIndex``."""
    from repro.query import PatternIndex

    return PatternIndex(*_load_coded_patterns(patterns_path, hierarchy_path))


def _print_explain(plan: dict) -> None:
    """Render one query's compiled plan + cost estimate (`--explain`)."""
    estimate = plan["estimate"]
    line = (
        f"  plan: strategy={plan['strategy']} "
        f"cost={estimate['cost']:g} candidates={estimate['candidates']}"
    )
    if plan.get("unsatisfiable"):
        line += " (unsatisfiable)"
    print(line)
    max_len = plan["max_len"] if plan["max_len"] is not None else "inf"
    print(f"  length range: [{plan['min_len']}, {max_len}]")
    for node in estimate.get("nodes", ()):
        maps = {source: n for source, n in node["maps"].items() if n}
        if not maps:
            source = "every slot"
        elif len(maps) == 1:
            source = next(iter(maps))
        else:
            source = ", ".join(f"{name} ×{n}" for name, n in maps.items())
        skipped = "  [not in mask]" if node["skipped"] else ""
        print(
            f"  node {node['kind']:>5}: {node['ids']} ids, "
            f"~{node['postings']} postings, map from {source}{skipped}"
        )


def cmd_query(args: argparse.Namespace) -> int:
    """Wildcard search over a mined pattern file (Netspeak-style)."""
    index = _load_query_index(args.patterns, args.hierarchy)
    status = 0
    for query in args.queries:
        # one unlimited search yields the shown prefix, count and mass
        matches = index.search(query, min_freq=args.min_freq)
        mass = sum(match.frequency for match in matches)
        print(f"query: {query!r}  ({len(matches)} patterns, mass {mass})")
        if args.explain:
            _print_explain(index.explain(query))
        if not matches:
            status = 1
        for match in matches[: args.top]:
            print(f"{match.frequency:>9}  {match.render()}")
        print()
    return status


def _report_written_store(verb: str, out: str, start: float) -> None:
    """Print the one-line summary both index writers share.  The store
    was produced in-process moments ago, so the inspection open skips
    the checksum sweep — no second full read of a just-written file."""
    from repro.serve import open_store

    with open_store(out, verify_checksums=False) as store:
        info = store.describe()
    elapsed = time.perf_counter() - start
    layout = (
        f"{info['shards']} shards" if "shards" in info else "single file"
    )
    print(
        f"{verb} {info['patterns']} patterns / {info['items']} items "
        f"({info['file_bytes']} bytes, {layout}) at {out} in {elapsed:.2f}s"
    )


def cmd_index_build(args: argparse.Namespace) -> int:
    """Build a binary pattern store from a mined pattern file."""
    from repro.serve import write_sharded_store, write_store

    start = time.perf_counter()
    coded, vocabulary = _load_coded_patterns(args.patterns, args.hierarchy)
    if args.shards is None:
        write_store(args.out, coded, vocabulary)
    else:
        write_sharded_store(args.out, coded, vocabulary, args.shards)
    _report_written_store("wrote", args.out, start)
    return 0


def cmd_index_merge(args: argparse.Namespace) -> int:
    """Merge stores/shard sets into one store without re-mining."""
    from repro.serve import merge_stores

    start = time.perf_counter()
    merge_stores(args.sources, args.out, shards=args.shards)
    _report_written_store(
        f"merged {len(args.sources)} stores into", args.out, start
    )
    return 0


def cmd_index_info(args: argparse.Namespace) -> int:
    """Print store metadata (header-only, no section decoding)."""
    from repro.errors import EncodingError
    from repro.serve import open_store

    if args.advise:
        from repro.serve.advisor import advise_shards

    # metadata lives in the manifest and the fixed-size shard headers;
    # skipping the checksum sweep keeps `info` O(header) instead of
    # reading every shard body just to print counts
    with contextlib.ExitStack() as stack:
        try:
            store = stack.enter_context(
                open_store(args.store, verify_checksums=False)
            )
            # reads every shard header (a sharded handle opens them lazily)
            info = store.describe()
        except EncodingError as exc:
            # not a store this build reads (wrong magic or format version)
            raise SystemExit(f"lash index info: {exc}") from None
        shard_stats = info.pop("shard_stats", None)
        for label, row in [("store", info)] + [
            (f"shard {i}", shard) for i, shard in enumerate(shard_stats or ())
        ]:
            # where the bytes go: one size per section, on its own line
            sections = row.pop("sections")
            _print_row(label, row)
            _print_row(
                "  sections",
                {name.replace(" ", "_"): size for name, size in sections.items()},
            )
        if args.advise:
            report = advise_shards(
                store, target_bytes=args.target_bytes
            )
            print()
            print(
                f"routing groups: {report['groups']}  "
                f"(heaviest {report['heaviest_group_bytes']} bytes, "
                f"skew {report['skew']})"
            )
            for group in report["top_groups"]:
                print(f"  {group['bytes']:>10}  {group['item']}")
            for score in report["candidates"]:
                _print_row(f"n={score['shards']}", score)
            print(
                f"recommendation: --shards "
                f"{report['recommended_shards']} ({report['reason']})"
            )
    return 0


def cmd_shard_serve(args: argparse.Namespace) -> int:
    """Serve a shard slice of a sharded store over the socket protocol
    (plus, unless ``--no-http``, an HTTP sidecar with per-server stats
    and metrics)."""
    from repro.serve.distributed import ShardServer, parse_shard_list

    shards = (
        parse_shard_list(args.shards) if args.shards is not None else None
    )
    server = ShardServer(
        args.store,
        shard_subset=shards,
        host=args.host,
        port=args.port,
        http_port=None if args.no_http else args.http_port,
        quiet=not args.verbose,
        workers=args.workers,
    )
    server.start()
    host, port = server.address
    owned = server.store.owned_shards
    print(
        f"shard server: {len(server.store)} patterns, shards "
        f"{list(owned)} of {server.store.num_shards} on {host}:{port}"
    )
    if server.http_address is not None:
        http_host, http_port = server.http_address
        print(f"health/metrics on http://{http_host}:{http_port}/healthz")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _front_end(args: argparse.Namespace, backend):
    """The HTTP front end ``serve`` and ``route`` share, from the options
    :func:`build_parser` declares once for both: ``(service, server)``,
    the server bound but not yet serving."""
    from repro.serve import QueryService, create_server

    service = QueryService(
        backend, cache_size=args.cache_size, max_cost=args.max_cost
    )
    server = create_server(
        service,
        args.host,
        args.port,
        quiet=not args.verbose,
        workers=args.workers,
    )
    return service, server


def cmd_route(args: argparse.Namespace) -> int:
    """Run the query router over a cluster of shard servers."""
    from repro.serve.http import run_server
    from repro.serve.router import ClusterMap, RouterBackend

    cluster = ClusterMap.load(args.cluster)
    backend = RouterBackend(
        cluster,
        deadline=args.deadline,
        health_timeout=args.health_timeout,
    )
    health = backend.check_health()
    backend.start_health_loop(args.health_interval)
    _, server = _front_end(args, backend)
    host, port = server.server_address[:2]
    up = sum(1 for ok in health.values() if ok)
    print(
        f"routing {cluster.num_shards} shards over {len(cluster.servers)} "
        f"servers ({up} healthy) on http://{host}:{port}"
    )
    for shard, replicas in sorted(cluster.placement.items()):
        print(f"  shard {shard}: {', '.join(replicas)}")
    try:
        run_server(server)
    finally:
        backend.close()
    return 0


def cmd_index_compact(args: argparse.Namespace) -> int:
    """Fold delta stores into a live shard set (atomic manifest swap)."""
    from repro.serve import StoreCompactor

    compactor = StoreCompactor(args.store)
    stats = compactor.compact(args.deltas, shards=args.shards)
    print(
        f"compacted {stats['deltas']} deltas into {args.store} "
        f"(generation {stats['generation']}, {stats['patterns']} patterns "
        f"/ {stats['items']} items across {stats['shards']} shards) "
        f"in {stats['seconds']:.2f}s"
    )
    return 0


def cmd_ingest_init(args: argparse.Namespace) -> int:
    """Create the live-ingestion state for a sharded store."""
    from repro.serve.ingest import Ingestor

    gamma = None if args.gamma < 0 else args.gamma
    Ingestor.init(
        args.state, args.store, args.spool, gamma=gamma, lam=args.lam
    )
    print(
        f"initialized ingest state in {args.state} "
        f"(store {args.store}, spool {args.spool}, "
        f"gamma={'inf' if gamma is None else gamma}, lam={args.lam})"
    )
    return 0


def _ingest_batch(args: argparse.Namespace) -> list[tuple[str, ...]]:
    """Sequences from positional args and/or ``--db`` (either alone ok)."""
    batch: list[tuple[str, ...]] = [
        tuple(seq.split()) for seq in args.sequences
    ]
    if args.db:
        from repro.io import read_database

        batch.extend(tuple(seq) for seq in read_database(args.db))
    if not batch:
        raise SystemExit(
            "nothing to ingest: pass sequences as arguments "
            '("a b c" quoted per sequence) and/or --db FILE'
        )
    return batch


def cmd_ingest_add(args: argparse.Namespace) -> int:
    """Append sequences to the live corpus and publish their delta."""
    from repro.serve.ingest import Ingestor

    report = Ingestor.open(args.state).add(_ingest_batch(args))
    print(
        f"ingested {report['sequences']} sequences "
        f"(seq {report['from_seq']}..{report['through_seq'] - 1}) "
        f"as {report['published']}; "
        f"ingested_through={report['ingested_through']}"
    )
    return 0


def cmd_ingest_retire(args: argparse.Namespace) -> int:
    """Retire the oldest retained sequences (sliding-window retention)."""
    from repro.serve.ingest import Ingestor

    report = Ingestor.open(args.state).retire(args.count)
    print(
        f"retired {report['sequences']} sequences "
        f"(seq {report['from_seq']}..{report['through_seq'] - 1}) "
        f"as {report['published']}; "
        f"retained_from={report['retained_from']}"
    )
    return 0


def cmd_ingest_flush(args: argparse.Namespace) -> int:
    """Publish journaled-but-unpublished sequences (crash recovery)."""
    from repro.serve.ingest import Ingestor

    report = Ingestor.open(args.state).flush()
    if report["published"]:
        print(f"published {report['published']}")
    else:
        print("nothing pending")
    print(f"ingested_through={report['ingested_through']}")
    return 0


def cmd_ingest_status(args: argparse.Namespace) -> int:
    """Print the ingest watermarks and spool backlog."""
    from repro.serve.ingest import Ingestor

    status = Ingestor.open(args.state).status()
    pending = status.pop("spool_pending")
    _print_row("ingest", status)
    for name in pending:
        print(f"  pending: {name}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a pattern store (single file or shard set) over HTTP."""
    from repro.serve import open_store
    from repro.serve.http import run_server

    if args.compact_spool is not None:
        from repro.serve.format import is_sharded_store

        # refused before anything is opened
        if not is_sharded_store(args.store):
            raise SystemExit(
                "--compact-spool requires a sharded store "
                "(build with --shards)"
            )
        # the daemon's whole fold path (compact -> writer -> stream),
        # loaded now rather than under the first fold
        from repro.serve import CompactionDaemon

    store = open_store(args.store)
    service, server = _front_end(args, store)
    daemon = None
    if args.compact_spool is not None:
        daemon = CompactionDaemon(
            service,
            args.store,
            args.compact_spool,
            interval=args.compact_interval,
        )
    host, port = server.server_address[:2]
    shards = getattr(store, "num_shards", None)
    layout = f" across {shards} shards" if shards is not None else ""
    print(
        f"serving {len(store)} patterns{layout} on http://{host}:{port}"
    )
    print(
        "endpoints: /query?q=  /count?q=  /topk?n=  /batch (POST)  "
        "/stats  /metrics  /healthz"
    )
    if daemon is not None:
        print(
            f"compacting deltas from {args.compact_spool} in a fold "
            f"worker; back to back while deltas arrive, polling every "
            f"{args.compact_interval:g}s when idle"
        )
        daemon.start()
    try:
        run_server(server)
    finally:
        if daemon is not None:
            daemon.stop()
        # after compaction swaps, the live backend may no longer be the
        # store opened above; close whatever is currently served (close
        # is idempotent, so double-closing the original is harmless)
        service.backend.close()
        store.close()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import ResultDiff
    from repro.io import read_patterns

    left = read_patterns(args.left)
    diff = ResultDiff.between(left, read_patterns(args.right))
    if diff.agree:
        print(f"results agree ({len(left)} patterns)")
        return 0
    print(f"results differ: {diff.summary()}")

    def head(patterns):
        return sorted(patterns, key=" ".join)[: args.show]

    for p in head(diff.missing):
        print(f"  missing: {' '.join(p)} ({diff.missing[p]})")
    for p in head(diff.extra):
        print(f"  extra:   {' '.join(p)} ({diff.extra[p]})")
    for p in head(diff.frequency_mismatches):
        expected, actual = diff.frequency_mismatches[p]
        print(f"  freq:    {' '.join(p)} ({expected} vs {actual})")
    return 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lash",
        description="Generalized sequence mining with hierarchies (LASH).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("kind", choices=["text", "products", "events"])
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--sentences", type=int, default=5000)
    gen.add_argument("--users", type=int, default=2000)
    gen.add_argument("--products", type=int, default=800)
    gen.add_argument("--machines", type=int, default=1500)
    gen.add_argument("--seed", type=int, default=13)
    gen.set_defaults(func=cmd_generate)

    stats = sub.add_parser("stats", help="dataset / hierarchy characteristics")
    stats.add_argument("--db", required=True)
    stats.add_argument("--hierarchy")
    stats.set_defaults(func=cmd_stats)

    flist = sub.add_parser(
        "flist", help="compute and persist the generalized f-list"
    )
    flist.add_argument("--db", required=True)
    flist.add_argument("--hierarchy")
    flist.add_argument("--out", required=True, help="f-list TSV output path")
    flist.add_argument("--top", type=int, default=10, help="items to print")
    flist.set_defaults(func=cmd_flist)

    minep = sub.add_parser("mine", help="mine frequent generalized sequences")
    minep.add_argument("--db", required=True)
    minep.add_argument("--hierarchy")
    minep.add_argument("--sigma", type=int, required=True)
    minep.add_argument(
        "--gamma", type=int, default=0,
        help="max gap; negative = unconstrained",
    )
    minep.add_argument("--lam", type=int, default=5, help="max length")
    minep.add_argument(
        "--algorithm",
        choices=["lash", "closed-lash", "naive", "semi-naive", "gsp",
                 "mg-fsm"],
        default="lash",
    )
    minep.add_argument(
        "--mode",
        choices=["closed", "maximal"],
        default="closed",
        help="redundancy mode (closed-lash only): mine closed or maximal "
        "patterns directly",
    )
    minep.add_argument(
        "--miner",
        choices=["psm", "psm-level", "psm-noindex", "bfs", "dfs", "spam"],
        default="psm",
        help="local miner (lash only)",
    )
    minep.add_argument(
        "--flist",
        help="reuse a persisted f-list instead of preprocessing "
        "(requires --hierarchy)",
    )
    minep.add_argument(
        "--filter",
        choices=["closed", "maximal"],
        help="keep only closed or maximal patterns",
    )
    minep.add_argument(
        "--engine",
        choices=["serial", "parallel"],
        default="serial",
        help="MapReduce engine: serial (one process, tasks in turn) or "
        "parallel (worker processes)",
    )
    minep.add_argument(
        "--max-workers", type=int, default=None,
        help="worker processes for --engine parallel "
        "(default: CPU count capped by task counts)",
    )
    minep.add_argument("--top", type=int, default=10)
    minep.add_argument("--out", help="write all patterns to this TSV file")
    minep.add_argument(
        "--store", help="also export a binary pattern store for serving"
    )
    minep.add_argument(
        "--store-shards", type=int, default=None,
        help="shard the exported store directory across N shards (with "
        "--store); a sharded sigma=1 store is what `lash ingest` "
        "appends to, and unlike `index build` the export keeps the "
        "corpus f-list, so compacted deltas stay byte-identical to a "
        "full re-mine",
    )
    minep.set_defaults(func=cmd_mine)

    query = sub.add_parser(
        "query", help="wildcard search over a mined pattern file"
    )
    query.add_argument("--patterns", required=True, help="pattern TSV file")
    query.add_argument(
        "--hierarchy", help="hierarchy file enabling ^name tokens"
    )
    query.add_argument("--top", type=int, default=10)
    query.add_argument(
        "--min-freq", type=int, default=None,
        help="per-query sigma override: only report patterns with mined "
        "frequency >= N",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print each query's compiled plan: execution path, "
        "estimated cost and per-node postings and map source",
    )
    query.add_argument(
        "queries", nargs="+",
        help="queries: 'name', '^name', '?', '+', '*', '*{m,n}' bounded "
        "gap, '!token' negation, '(a|b|^C)' disjunction and 'token@N' "
        "frequency-floor tokens",
    )
    query.set_defaults(func=cmd_query)

    index = sub.add_parser(
        "index", help="build, merge or inspect binary pattern stores"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser(
        "build", help="compile a pattern TSV into a store file or shard set"
    )
    build.add_argument("--patterns", required=True, help="pattern TSV file")
    build.add_argument(
        "--hierarchy", help="hierarchy file enabling ^name queries"
    )
    build.add_argument("--out", required=True, help="store output path")
    build.add_argument(
        "--shards", type=int, default=None,
        help="write a sharded store directory with this many shard files",
    )
    build.set_defaults(func=cmd_index_build)
    merge = index_sub.add_parser(
        "merge",
        help="combine existing stores/shard sets (ids remapped, "
        "frequencies summed) without re-mining",
    )
    merge.add_argument(
        "sources", nargs="+", help="store files or shard directories"
    )
    merge.add_argument("--out", required=True, help="merged store path")
    merge.add_argument(
        "--shards", type=int, default=None,
        help="write the merged store as a shard set of this size",
    )
    merge.set_defaults(func=cmd_index_merge)
    compact = index_sub.add_parser(
        "compact",
        help="fold delta stores into a live shard set (atomic manifest "
        "swap; concurrent readers keep serving)",
    )
    compact.add_argument(
        "--store", required=True, help="sharded store directory to compact"
    )
    compact.add_argument(
        "deltas", nargs="*",
        help="delta store files or shard directories to fold in "
        "(none = pure rebalance/rewrite)",
    )
    compact.add_argument(
        "--shards", type=int, default=None,
        help="re-route the compacted store across this many shards "
        "(default: keep the current count)",
    )
    compact.set_defaults(func=cmd_index_compact)
    info = index_sub.add_parser("info", help="print store metadata")
    info.add_argument(
        "--store", required=True, help="store file or shard directory"
    )
    info.add_argument(
        "--advise", action="store_true",
        help="measure first-item routing-group skew and recommend a "
        "shard count (reads every pattern record)",
    )
    info.add_argument(
        "--target-bytes", type=int, default=64 << 20,
        help="with --advise: target size of the largest shard",
    )
    info.set_defaults(func=cmd_index_info)

    ingest = sub.add_parser(
        "ingest",
        help="live ingestion: append/retire sequences against a live "
        "store by micro-mining just the delta (no full re-mine)",
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)

    ingest_init = ingest_sub.add_parser(
        "init", help="create the ingest state for a sharded store"
    )
    ingest_init.add_argument(
        "--store", required=True,
        help="live sharded store directory (build with --shards)",
    )
    ingest_init.add_argument(
        "--spool", required=True,
        help="compaction spool deltas are published into (the directory "
        "`lash serve --compact-spool` watches)",
    )
    ingest_init.add_argument(
        "--state", required=True,
        help="directory for the ingest journal and watermarks",
    )
    ingest_init.add_argument(
        "--gamma", type=int, default=0,
        help="gap constraint every micro-mine uses; must match the base "
        "mine (negative = unbounded)",
    )
    ingest_init.add_argument(
        "--lam", type=int, default=5,
        help="max pattern length; must match the base mine",
    )
    ingest_init.set_defaults(func=cmd_ingest_init)

    ingest_add = ingest_sub.add_parser(
        "add",
        help="journal sequences and publish their increment delta",
    )
    ingest_add.add_argument(
        "--state", required=True, help="ingest state directory"
    )
    ingest_add.add_argument(
        "--db", help="sequence database file to ingest"
    )
    ingest_add.add_argument(
        "sequences", nargs="*",
        help='inline sequences, one per argument ("a b c")',
    )
    ingest_add.set_defaults(func=cmd_ingest_add)

    ingest_retire = ingest_sub.add_parser(
        "retire",
        help="retire the oldest retained sequences by publishing a "
        "decrement delta (sliding-window retention)",
    )
    ingest_retire.add_argument(
        "--state", required=True, help="ingest state directory"
    )
    ingest_retire.add_argument(
        "--count", type=int, required=True,
        help="how many of the oldest retained sequences to retire",
    )
    ingest_retire.set_defaults(func=cmd_ingest_retire)

    ingest_flush = ingest_sub.add_parser(
        "flush",
        help="publish journaled-but-unpublished sequences "
        "(crash recovery; no-op when clean)",
    )
    ingest_flush.add_argument(
        "--state", required=True, help="ingest state directory"
    )
    ingest_flush.set_defaults(func=cmd_ingest_flush)

    ingest_status = ingest_sub.add_parser(
        "status", help="print watermarks and spool backlog"
    )
    ingest_status.add_argument(
        "--state", required=True, help="ingest state directory"
    )
    ingest_status.set_defaults(func=cmd_ingest_status)

    # the HTTP front end of `serve` and `route`, declared once
    front_end = argparse.ArgumentParser(add_help=False)
    front_end.add_argument("--host", default="127.0.0.1")
    front_end.add_argument("--port", type=int, default=8080)
    front_end.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache entries (0 disables caching; partial "
        "answers are never cached)",
    )
    front_end.add_argument(
        "--max-cost", type=float, default=None,
        help="admission ceiling in planner work units: cache misses "
        "estimated above it answer 429 instead of running",
    )
    front_end.add_argument(
        "--workers", type=int, default=8,
        help="HTTP worker threads; past 2x this many in-flight requests "
        "the server sheds load with 503 + Retry-After",
    )
    front_end.add_argument(
        "--verbose", action="store_true",
        help="log every request to stderr",
    )

    serve = sub.add_parser(
        "serve", parents=[front_end],
        help="serve a pattern store over HTTP (JSON endpoints)",
    )
    serve.add_argument(
        "--store", required=True, help="store file or shard directory"
    )
    serve.add_argument(
        "--compact-spool",
        help="watch this directory for delta stores and fold them into "
        "the served shard set in the background (sharded stores only)",
    )
    serve.add_argument(
        "--compact-interval", type=float, default=30.0,
        help="seconds to wait after a spool scan that found nothing to "
        "fold (with --compact-spool); a scan that folded is followed "
        "by the next at once",
    )
    serve.set_defaults(func=cmd_serve)

    shard_serve = sub.add_parser(
        "shard-serve",
        help="serve a shard slice of a sharded store over the socket "
        "protocol (distributed tier)",
    )
    shard_serve.add_argument(
        "--store", required=True, help="sharded store directory"
    )
    shard_serve.add_argument(
        "--shards",
        help="comma-separated shard indexes to mount (default: all — a "
        "fully replicated server)",
    )
    shard_serve.add_argument("--host", default="127.0.0.1")
    shard_serve.add_argument(
        "--port", type=int, default=0,
        help="socket port (0 picks an ephemeral port)",
    )
    shard_serve.add_argument(
        "--http-port", type=int, default=0,
        help="HTTP sidecar port for /stats and /metrics (0 = ephemeral)",
    )
    shard_serve.add_argument(
        "--no-http", action="store_true",
        help="disable the HTTP sidecar (the router's health checks are "
        "socket pings either way)",
    )
    shard_serve.add_argument(
        "--workers", type=int, default=8,
        help="request-execution worker threads; past 2x this many "
        "in-flight requests the server answers a retryable busy error",
    )
    shard_serve.add_argument(
        "--verbose", action="store_true",
        help="log sidecar HTTP requests to stderr",
    )
    shard_serve.set_defaults(func=cmd_shard_serve)

    route = sub.add_parser(
        "route", parents=[front_end],
        help="route queries across shard servers (fan-out + merge, "
        "same HTTP endpoints as `lash serve`)",
    )
    route.add_argument(
        "--cluster", required=True,
        help="cluster map JSON: {num_shards, replication, servers: "
        "[{host, port, shards?}]}",
    )
    route.add_argument(
        "--deadline", type=float, default=5.0,
        help="seconds allowed per fan-out, retries included",
    )
    route.add_argument(
        "--health-interval", type=float, default=2.0,
        help="seconds between health pings of the shard servers",
    )
    route.add_argument(
        "--health-timeout", type=float, default=1.0,
        help="per-ping timeout in seconds",
    )
    route.set_defaults(func=cmd_route)

    cmp_ = sub.add_parser("compare", help="compare two pattern TSV files")
    cmp_.add_argument("left")
    cmp_.add_argument("right")
    cmp_.add_argument("--show", type=int, default=5)
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
