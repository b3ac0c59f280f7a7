"""The in-process MapReduce engine.

Execution model (mirrors Hadoop's semantics):

1. The input is partitioned into *splits*; each split becomes one map task.
2. A map task applies ``job.map`` to each record, meters the raw emissions
   (``MAP_OUTPUT_BYTES``), then applies ``job.combine`` per key within the
   split and meters the combined emissions (``SHUFFLE_BYTES``).
3. The shuffle groups pairs by key and assigns keys to ``num_reduce_tasks``
   partitions via a *stable* hash (Python's randomized string hashing would
   break reproducibility).
4. Each reduce task processes its keys in sorted order and collects
   ``job.reduce`` outputs.

Fault tolerance mirrors Hadoop's as well: with a
:class:`~repro.mapreduce.failures.FailurePlan` installed, chosen task
attempts crash partway through; the engine discards their partial output
and counters and retries, so the job's logical result and counters are
identical to a failure-free run (only ``FAILED_*`` counters and the wasted
attempt times differ).

Everything runs sequentially and deterministically; per-task wall-clock
times are recorded (:class:`~repro.mapreduce.metrics.JobMetrics`).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.io.codec import stable_hash
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.failures import (
    FailurePlan,
    TaskRetriesExceededError,
    _InjectedFailure,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.spill import (
    MERGED_RUNS,
    SPILL_BYTES,
    SPILLED_RECORDS,
    MergedPartition,
    spill_file,
    spill_map_output,
)

@dataclass
class JobResult:
    """Output records plus counters and timing of one job run."""

    output: list[Any]
    counters: Counters
    metrics: JobMetrics


class MapReduceEngine:
    """Runs :class:`MapReduceJob` instances over in-memory records.

    Parameters
    ----------
    num_map_tasks:
        Number of input splits (map tasks).  Records are dealt into splits
        round-robin so skew spreads evenly, as a cluster's block placement
        would.
    num_reduce_tasks:
        Number of reduce partitions.
    failure_plan:
        Optional deterministic task-failure injection (see
        :mod:`repro.mapreduce.failures`).
    spill_dir:
        When set, shuffle through disk instead of memory: every map task's
        output is sorted and spilled to one run file in this directory,
        one segment per partition, and each reduce task streams a merge
        of its partition's segments (:mod:`repro.mapreduce.spill`, over
        the package's one external sort, :mod:`repro.io.runs`).  Results
        and byte counters are identical to the in-memory shuffle;
        ``SPILLED_RECORDS``, ``SPILL_BYTES`` and ``MERGED_RUNS`` meter the
        extra disk traffic.  Run files are anonymous: open only while the
        job runs, and never visible in the directory.
    """

    def __init__(
        self,
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
        failure_plan: FailurePlan | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        if num_map_tasks < 1 or num_reduce_tasks < 1:
            raise ValueError("task counts must be >= 1")
        self.num_map_tasks = num_map_tasks
        self.num_reduce_tasks = num_reduce_tasks
        self.failure_plan = failure_plan
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None

    # ------------------------------------------------------------------

    def run(self, job: MapReduceJob, records: Sequence[Any]) -> JobResult:
        counters = Counters()
        metrics = JobMetrics(name=job.name)

        splits = self._split(records)
        map_outputs: list[list[tuple[Any, Any]]] = []
        for index, split in enumerate(splits):
            pairs = self._attempt_task(
                "map", index, split, job, counters, metrics,
                self._run_map_task,
            )
            map_outputs.append(pairs)

        with contextlib.ExitStack() as spills:
            start = time.perf_counter()
            if self.spill_dir is None:
                partitions: Sequence[Any] = self._shuffle(map_outputs)
            else:
                partitions = self._shuffle_external(
                    map_outputs, spills, counters
                )
            metrics.shuffle_s = time.perf_counter() - start
            metrics.shuffle_bytes = counters[C.SHUFFLE_BYTES]

            output: list[Any] = []
            for index, partition in enumerate(partitions):
                output.extend(
                    self._attempt_task(
                        "reduce", index, partition, job, counters, metrics,
                        self._run_reduce_task,
                    )
                )

        return JobResult(output=output, counters=counters, metrics=metrics)

    def _spill_root(self) -> Path:
        assert self.spill_dir is not None
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        return self.spill_dir

    # ------------------------------------------------------------------
    # fault-tolerant task execution
    # ------------------------------------------------------------------

    def _attempt_task(
        self, phase, index, payload, job, counters, metrics, runner
    ):
        """Run one task with retries; merge counters only on success."""
        plan = self.failure_plan
        max_attempts = plan.max_attempts if plan else 1
        attempt = 0
        while True:
            crash_after = None
            if plan is not None and plan.should_fail(phase, index, attempt):
                crash_after = plan.crash_point(
                    phase, index, attempt, len(payload)
                )
            attempt_counters = Counters()
            start = time.perf_counter()
            try:
                result = runner(job, payload, attempt_counters, crash_after)
            except _InjectedFailure:
                elapsed = time.perf_counter() - start
                failed = (
                    metrics.failed_map_task_s
                    if phase == "map"
                    else metrics.failed_reduce_task_s
                )
                failed.append(elapsed)
                counters.increment(
                    C.FAILED_MAP_TASKS
                    if phase == "map"
                    else C.FAILED_REDUCE_TASKS
                )
                attempt += 1
                if attempt >= max_attempts:
                    raise TaskRetriesExceededError(phase, index, attempt)
                continue
            elapsed = time.perf_counter() - start
            (
                metrics.map_task_s
                if phase == "map"
                else metrics.reduce_task_s
            ).append(elapsed)
            counters.merge(attempt_counters)
            return result

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _split(self, records: Sequence[Any]) -> list[list[Any]]:
        n_tasks = min(self.num_map_tasks, max(1, len(records)))
        splits: list[list[Any]] = [[] for _ in range(n_tasks)]
        for i, record in enumerate(records):
            splits[i % n_tasks].append(record)
        return splits

    def _run_map_task(
        self,
        job: MapReduceJob,
        split: Sequence[Any],
        counters: Counters,
        crash_after: int | None = None,
    ) -> list[tuple[Any, Any]]:
        return run_map_task(job, split, counters, crash_after)

    def _shuffle_external(
        self,
        map_outputs: list[list[tuple[Any, Any]]],
        spills: contextlib.ExitStack,
        counters: Counters,
    ) -> list[MergedPartition]:
        """Sort/spill each map output to disk, merge runs per partition;
        the run files close with ``spills``."""
        partitioner = lambda key: (  # noqa: E731 - tiny closure
            stable_hash(key) % self.num_reduce_tasks
        )
        by_partition: list[list] = [[] for _ in range(self.num_reduce_tasks)]
        spill_dir = self._spill_root()
        for pairs in map_outputs:
            file = spill_file(spill_dir)
            spills.callback(file.close)
            for run in spill_map_output(pairs, partitioner, file):
                counters.increment(SPILLED_RECORDS, run.records)
                counters.increment(SPILL_BYTES, run.bytes)
                by_partition[run.partition].append(run)
        counters.increment(
            MERGED_RUNS, sum(len(runs) for runs in by_partition)
        )
        return [MergedPartition(runs=runs) for runs in by_partition]

    def _shuffle(
        self, map_outputs: list[list[tuple[Any, Any]]]
    ) -> list[dict[Any, list[Any]]]:
        partitions: list[dict[Any, list[Any]]] = [
            {} for _ in range(self.num_reduce_tasks)
        ]
        for pairs in map_outputs:
            for key, value in pairs:
                bucket = partitions[stable_hash(key) % self.num_reduce_tasks]
                bucket.setdefault(key, []).append(value)
        return partitions

    def _run_reduce_task(
        self,
        job: MapReduceJob,
        partition: dict[Any, list[Any]],
        counters: Counters,
        crash_after: int | None = None,
    ) -> list[Any]:
        return run_reduce_task(job, partition, counters, crash_after)


def run_map_task(
    job: MapReduceJob,
    split: Sequence[Any],
    counters: Counters,
    crash_after: int | None = None,
) -> list[tuple[Any, Any]]:
    """One map task: apply ``job.map`` to a split, then the combiner.

    Module-level so both the serial engine and the process-parallel
    executor (:mod:`repro.mapreduce.parallel`) run the identical code.
    """
    # records and bytes are counted in locals and posted once per phase of
    # the attempt: a crashed attempt's counters are discarded whole, so
    # the totals are the same as posting per record
    kv_size = job.kv_size
    raw: list[tuple[Any, Any]] = []
    output_bytes = 0
    for position, record in enumerate(split):
        if crash_after is not None and position >= crash_after:
            raise _InjectedFailure()
        for key, value in job.map(record):
            raw.append((key, value))
            output_bytes += kv_size(key, value)
    if crash_after is not None:
        # crash point beyond the split: die right before task commit
        raise _InjectedFailure()
    counters.increment(C.MAP_INPUT_RECORDS, len(split))
    counters.increment(C.MAP_OUTPUT_RECORDS, len(raw))
    counters.increment(C.MAP_OUTPUT_BYTES, output_bytes)
    if not job.has_combiner:
        # nothing was combined, so what is shuffled is what was emitted
        counters.increment(C.SHUFFLE_BYTES, output_bytes)
        return raw
    grouped: dict[Any, list[Any]] = {}
    for key, value in raw:
        grouped.setdefault(key, []).append(value)
    combined: list[tuple[Any, Any]] = []
    shuffle_bytes = 0
    for key, values in grouped.items():
        for out_key, out_value in job.combine(key, values):
            combined.append((out_key, out_value))
            shuffle_bytes += kv_size(out_key, out_value)
    counters.increment(C.COMBINE_INPUT_RECORDS, len(raw))
    counters.increment(C.COMBINE_OUTPUT_RECORDS, len(combined))
    counters.increment(C.SHUFFLE_BYTES, shuffle_bytes)
    return combined


def run_reduce_task(
    job: MapReduceJob,
    partition: dict[Any, list[Any]],
    counters: Counters,
    crash_after: int | None = None,
) -> list[Any]:
    """One reduce task: ``job.reduce`` over the partition's sorted keys."""
    # counted in locals and posted once per attempt, as in run_map_task
    output: list[Any] = []
    groups = records = 0
    for position, key in enumerate(sorted(partition)):
        if crash_after is not None and position >= crash_after:
            raise _InjectedFailure()
        values = partition[key]
        groups += 1
        records += len(values)
        output.extend(job.reduce(key, values))
    if crash_after is not None:
        raise _InjectedFailure()
    counters.increment(C.REDUCE_INPUT_GROUPS, groups)
    counters.increment(C.REDUCE_INPUT_RECORDS, records)
    counters.increment(C.REDUCE_OUTPUT_RECORDS, len(output))
    return output
