"""The mining workloads: corpus in memory → ``Lash.mine`` → ``to_store``
→ ``open_store`` → first ``top(10)``."""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import Lash, MiningParams, NaiveAlgorithm, SequenceDatabase
from repro.core.lash import PartitionMineJob, resolve_miner
from repro.core.result import MiningResult
from repro.mapreduce import C, MapReduceJob, ParallelMapReduceEngine
from repro.serve import open_store
from repro.serve.format import read_manifest

from lashbench import gen
from lashbench.procs import proc_peak_rss_mb
from lashbench.run_state import Run
from lashbench.stats import percentile

MAP_TASKS = REDUCE_TASKS = 8
STORE_SHARDS = 4
PARALLEL_WORKERS = 2
ORACLE_SEQUENCES = 300


@dataclass(frozen=True)
class MiningSpec:
    name: str
    make_data: Callable[[int], tuple[SequenceDatabase, object]]
    params: MiningParams
    #: σ, γ, λ of the LASH-vs-naïve check on the subsample (the naïve
    #: enumeration is exponential in λ and the hierarchy depth)
    oracle_params: MiningParams
    #: repetitions the window holds at least, per engine
    serial_reps: int
    parallel_reps: int


def _text_data(seed: int):
    corpus = gen.text_corpus(seed, sentences=10000)
    return corpus.database, corpus.hierarchy("CLP")


def _product_data(seed: int):
    data = gen.product_data(seed, users=4000, products=1000)
    return data.database, data.hierarchy(8)


SPECS = {
    "mine_text": MiningSpec(
        "mine_text", _text_data, MiningParams(20, 0, 3),
        MiningParams(3, 0, 3), serial_reps=5, parallel_reps=0,
    ),
    "mine_products": MiningSpec(
        "mine_products", _product_data, MiningParams(25, 1, 5),
        MiningParams(3, 1, 3), serial_reps=3, parallel_reps=2,
    ),
}


def pattern_digest(pairs) -> str:
    """Digest of a sorted ``(rendered pattern, frequency)`` set."""
    digest = hashlib.sha256()
    for pattern, frequency in sorted(pairs):
        digest.update(f"{pattern}\t{frequency}\n".encode("utf-8"))
    return digest.hexdigest()


def result_digest(result: MiningResult) -> str:
    vocabulary = result.vocabulary
    return pattern_digest(
        (vocabulary.render(p), f) for p, f in result.patterns.items()
    )


def store_bytes(path: Path) -> int:
    """Bytes of the shard files the manifest names (a live store also
    keeps its previous generation around).  The manifest itself is left
    out: a live store's grows by a digit with its generation count, and
    the figure is to be exact for a seed."""
    path = Path(path)
    return sum(
        (path / name).stat().st_size for name in read_manifest(path)["shard_files"]
    )


def mine_to_store(params: MiningParams, sequences, hierarchy, path: Path) -> MiningResult:
    """The serial job the serving and ingest workloads build, and check,
    their stores with."""
    result = Lash(
        params, num_map_tasks=MAP_TASKS, num_reduce_tasks=REDUCE_TASKS
    ).mine(SequenceDatabase(sequences), hierarchy)
    result.to_store(path, shards=STORE_SHARDS)
    return result


def _new_lash(params: MiningParams, parallel: bool) -> Lash:
    lash = Lash(params, num_map_tasks=MAP_TASKS, num_reduce_tasks=REDUCE_TASKS)
    if parallel:
        lash.engine = ParallelMapReduceEngine(
            MAP_TASKS, REDUCE_TASKS, max_workers=PARALLEL_WORKERS
        )
    return lash


def run_job(params: MiningParams, database, hierarchy, store_path: Path, parallel: bool) -> dict:
    """One repetition; everything between the two clock reads is what a
    user waits for, the checks after it are the suite's."""
    shutil.rmtree(store_path, ignore_errors=True)
    start = time.perf_counter()
    result = _new_lash(params, parallel).mine(database, hierarchy)
    mined = time.perf_counter()
    result.to_store(store_path, shards=STORE_SHARDS)
    built = time.perf_counter()
    store = open_store(store_path)
    opened = time.perf_counter()
    first = store.top(10)
    end = time.perf_counter()
    try:
        mined_digest = result_digest(result)
        stored_digest = pattern_digest(
            (m.render(), m.frequency) for m in store.top(len(store) + 1)
        )
    finally:
        store.close()
    phases = result.phase_times()
    counters = result.counters
    total = result.total_metrics()
    task_s = sum(total.map_task_s) + sum(total.reduce_task_s)
    reduce_tasks = result.metrics.reduce_task_s
    return {
        "parallel": parallel,
        "job_s": end - start,
        "mine_s": mined - start,
        "build_s": built - mined,
        "open_ms": 1e3 * (opened - built),
        "first_query_ms": 1e3 * (end - opened),
        "first_answer": len(first),
        "map_s": phases.map_s,
        "shuffle_s": phases.shuffle_s,
        "reduce_s": phases.reduce_s,
        "parallel_overhead_s": (mined - start) - task_s / PARALLEL_WORKERS,
        "reduce_skew": (
            max(reduce_tasks) / statistics.mean(reduce_tasks)
            if reduce_tasks and sum(reduce_tasks) else 0.0
        ),
        "map_output_bytes": counters[C.MAP_OUTPUT_BYTES],
        "shuffle_bytes": counters[C.SHUFFLE_BYTES],
        "combine_in": counters[C.COMBINE_INPUT_RECORDS],
        "combine_out": counters[C.COMBINE_OUTPUT_RECORDS],
        "map_in": counters[C.MAP_INPUT_RECORDS],
        "map_out": counters[C.MAP_OUTPUT_RECORDS],
        "candidates": result.local_stats.candidates,
        "outputs": result.local_stats.outputs,
        "patterns": len(result),
        "store_bytes": store_bytes(store_path),
        "mined_digest": mined_digest,
        "stored_digest": stored_digest,
    }


# ----------------------------------------------------------------------
# the traced repetition: the driver's steps replayed with spans around
# the calls into each layer
# ----------------------------------------------------------------------


class _SpannedMiner:
    """Delegates to the real local miner, one span per partition."""

    def __init__(self, inner, recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name

    @property
    def stats(self):
        return self._inner.stats

    def mine_partition(self, partition, pivot):
        with self._recorder.span("core.psm.mine_partition"):
            return self._inner.mine_partition(partition, pivot)


class _SpannedJob(MapReduceJob):
    """Suite-side job delegating to ``PartitionMineJob``; every map,
    combine and reduce call the engine makes is one span."""

    name = "lash"
    has_combiner = True

    def __init__(self, inner: PartitionMineJob, recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def map(self, record):
        with self._recorder.span("core.rewrite.partition_emissions"):
            return list(self._inner.map(record))

    def combine(self, key, values):
        with self._recorder.span("mapreduce.combine"):
            return list(self._inner.combine(key, values))

    def reduce(self, key, values):
        with self._recorder.span("mapreduce.reduce_group"):
            return list(self._inner.reduce(key, values))

    def kv_size(self, key, value):
        return self._inner.kv_size(key, value)


def traced_job(spec: MiningSpec, database, hierarchy, store_path: Path, recorder) -> dict:
    shutil.rmtree(store_path, ignore_errors=True)
    lash = _new_lash(spec.params, parallel=False)
    with recorder.span("job", request=spec.name):
        with recorder.span("hierarchy.flist"):
            vocabulary, _ = lash.preprocess(database, hierarchy)
        with recorder.span("sequence.encode"):
            encoded = [vocabulary.encode_sequence(seq) for seq in database]
        miner = _SpannedMiner(
            resolve_miner("psm")(vocabulary, spec.params), recorder
        )
        job = _SpannedJob(
            PartitionMineJob(vocabulary, spec.params, miner), recorder
        )
        with recorder.span("mapreduce.engine.run"):
            mining_job = lash.engine.run(job, encoded)
        result = MiningResult(
            patterns=dict(mining_job.output),
            vocabulary=vocabulary,
            params=spec.params,
        )
        with recorder.span("serve.writer.to_store"):
            result.to_store(store_path, shards=STORE_SHARDS)
        with recorder.span("serve.store.open"):
            store = open_store(store_path)
        try:
            with recorder.span("serve.store.first_query"):
                store.top(10)
        finally:
            store.close()
    emit = recorder.durations("core.rewrite.partition_emissions")
    return {
        "job_s": recorder.durations("job")[-1],
        "flist_s": recorder.durations("hierarchy.flist")[-1],
        "encode_s": recorder.durations("sequence.encode")[-1],
        "emit_us_per_seq": 1e6 * sum(emit) / max(1, len(emit)),
        "psm_mine_s": sum(recorder.durations("core.psm.mine_partition")),
    }


# ----------------------------------------------------------------------


def run(run: Run) -> None:
    spec = SPECS[run.workload]
    engines = (False, True) if spec.parallel_reps else (False,)
    store_path = run.work / "job.shards"

    # set-up: input generation and, per engine, one small untimed job on
    # the oracle's subsample, which pays the imports and the first fork
    # of the worker pool
    start = time.perf_counter()
    database, hierarchy = spec.make_data(run.seed)
    sample = SequenceDatabase(gen.subsample(database, ORACLE_SEQUENCES, run.seed))
    warm = [
        run_job(spec.oracle_params, sample, hierarchy, store_path, parallel)
        for parallel in engines
    ]
    run.metric("setup_s", time.perf_counter() - start, "s")

    # the engines take turns until the window is over and each has its
    # minimum of repetitions
    reps: list[dict] = []
    count = {False: 0, True: 0}
    least = {False: spec.serial_reps, True: spec.parallel_reps}
    deadline = time.perf_counter() + run.seconds

    def due(parallel: bool) -> bool:
        return count[parallel] < least[parallel] or time.perf_counter() < deadline

    while any(due(parallel) for parallel in engines):
        for parallel in engines:
            if due(parallel):
                reps.append(
                    run_job(spec.params, database, hierarchy, store_path, parallel)
                )
                count[parallel] += 1
    # the harness *is* the system under test here, plus the pool workers;
    # read before the naive oracle grows the heap
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    peak_mb = proc_peak_rss_mb() + (PARALLEL_WORKERS * child_mb if count[True] else 0.0)

    # oracles: one digest across every repetition and both engines, the
    # opened store iterates the same set, and LASH (the warm-up jobs)
    # equals the naive algorithm on the subsample
    reference = reps[0]["mined_digest"]
    for index, rep in enumerate(reps):
        run.check(
            rep["mined_digest"] == reference
            and rep["stored_digest"] == reference
            and rep["first_answer"] > 0,
            f"repetition {index} ({'parallel' if rep['parallel'] else 'serial'})"
            " mined or stored a different pattern set",
        )
    naive = NaiveAlgorithm(spec.oracle_params).mine(sample, hierarchy)
    naive_digest = result_digest(naive)
    run.check(
        all(w["mined_digest"] == naive_digest and w["patterns"] > 0 for w in warm),
        "LASH and NaiveAlgorithm disagree on the subsample",
    )

    serial = [r for r in reps if not r["parallel"]]
    parallel = [r for r in reps if r["parallel"]]

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    job_s = median(serial, "job_s")
    run.metric("op_ms", 1e3 * job_s, "ms", n=len(serial))
    # three to seven jobs support no higher percentile than the upper
    # quartile; the slowest one alone is one hiccup's reading
    run.metric(
        "tail_ms", 1e3 * percentile([r["job_s"] for r in serial], 75), "ms",
        n=len(serial),
    )
    fastest = median(parallel, "job_s") if parallel else job_s
    run.metric("ops_per_s", len(database) / fastest, "1/s", n=len(parallel or serial))
    # new corpus handed over -> first answer that reflects it: for a
    # mining job that *is* the job, the same reading as op_ms
    run.metric("fresh_s", job_s, "s", n=len(serial))
    first = reps[0]
    run.metric("store_bytes_per_pattern", first["store_bytes"] / first["patterns"], "B")
    run.metric("peak_rss_mb", peak_mb, "MB")
    if parallel:
        run.metric(
            "bench.parallel_job_s", median(parallel, "job_s"), "s", n=len(parallel)
        )

    run.metric("mapreduce.map_s", median(serial, "map_s"), "s", n=len(serial))
    run.metric("mapreduce.reduce_s", median(serial, "reduce_s"), "s", n=len(serial))
    run.metric("mapreduce.shuffle_s", median(serial, "shuffle_s"), "s", n=len(serial))
    run.metric("mapreduce.map_output_bytes", first["map_output_bytes"], "B")
    run.metric("mapreduce.shuffle_bytes", first["shuffle_bytes"], "B")
    run.metric(
        "mapreduce.combine_ratio",
        first["combine_out"] / max(1, first["combine_in"]), "ratio",
    )
    skew_rows = parallel or serial
    run.metric(
        "mapreduce.reduce_skew", median(skew_rows, "reduce_skew"), "ratio",
        n=len(skew_rows),
    )
    if parallel:
        run.metric(
            "mapreduce.parallel_overhead_s",
            median(parallel, "parallel_overhead_s"), "s", n=len(parallel),
        )
    run.metric(
        "core.rewrite.emissions_per_seq",
        first["map_out"] / max(1, first["map_in"]), "count",
    )
    run.metric("core.psm.candidates", first["candidates"], "count")
    run.metric(
        "core.psm.useful_ratio",
        first["outputs"] / max(1, first["candidates"]), "ratio",
    )
    run.metric("serve.writer.build_s", median(reps, "build_s"), "s", n=len(reps))
    run.metric("serve.writer.store_bytes", first["store_bytes"], "B")
    run.metric("serve.store.open_ms", median(reps, "open_ms"), "ms", n=len(reps))
    run.metric(
        "serve.store.first_query_ms", median(reps, "first_query_ms"), "ms",
        n=len(reps),
    )
    run.raw["reps"] = [
        {k: v for k, v in r.items() if not k.endswith("digest")} for r in reps
    ]

    if run.recorder is not None:
        traced = traced_job(spec, database, hierarchy, store_path, run.recorder)
        run.metric("hierarchy.flist_s", traced["flist_s"], "s")
        run.metric("sequence.encode_s", traced["encode_s"], "s")
        run.metric("core.rewrite.emit_us_per_seq", traced["emit_us_per_seq"], "us")
        run.metric("core.psm.mine_s", traced["psm_mine_s"], "s")
        run.metric("bench.trace_overhead", traced["job_s"] / job_s, "ratio")
