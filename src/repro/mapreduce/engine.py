"""The MapReduce engine.

Execution model (mirrors Hadoop's semantics):

1. The input is partitioned into *splits*; each split becomes one map task.
2. A map task applies ``job.map`` to each record, meters the raw emissions
   (``MAP_OUTPUT_BYTES``), then applies ``job.combine`` per key within the
   split and meters the combined emissions (``SHUFFLE_BYTES``).
3. The shuffle groups pairs by key in memory and assigns keys to
   ``num_reduce_tasks`` partitions via a *stable* hash (Python's
   randomized string hashing would break reproducibility).
4. Each reduce task processes its keys in sorted order and collects
   ``job.reduce`` outputs.

Fault tolerance mirrors Hadoop's as well: with a
:class:`~repro.mapreduce.failures.FailurePlan` installed, chosen task
attempts crash partway through; the engine discards their partial output
and counters and retries, so the job's logical result and counters are
identical to a failure-free run (only ``FAILED_*`` counters and the wasted
attempt times differ).

Every attempt of every task runs in :func:`run_task`, so both engines
share one run loop: :class:`MapReduceEngine` maps the tasks in process,
one after another, and
:class:`~repro.mapreduce.parallel.ParallelMapReduceEngine` maps the same
tasks over a process pool.  Per-task wall-clock times are recorded
(:class:`~repro.mapreduce.metrics.JobMetrics`).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.io.codec import stable_hash
from repro.mapreduce.counters import ATTEMPT_COUNTERS, C, Counters
from repro.mapreduce.failures import (
    FailurePlan,
    TaskRetriesExceededError,
    _InjectedFailure,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics


@dataclass
class JobResult:
    """Output records plus counters and timing of one job run."""

    output: list[Any]
    counters: Counters
    metrics: JobMetrics


class Task(NamedTuple):
    """One map or reduce task: everything an attempt needs, picklable."""

    job: MapReduceJob
    failure_plan: FailurePlan | None
    phase: str
    index: int
    data: Any


class TaskResult(NamedTuple):
    """The committed attempt's output and counters (plus ``FAILED_*``),
    its seconds, and the seconds of the attempts that failed before it."""

    output: list
    counters: Counters
    seconds: float
    failed_seconds: list[float]


#: runs tasks and yields their results in task order
TaskMap = Callable[[Iterable[Task]], Iterable[TaskResult]]


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
    """

    def __init__(
        self,
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
        failure_plan: FailurePlan | None = None,
    ) -> None:
        if num_map_tasks < 1 or num_reduce_tasks < 1:
            raise ValueError("task counts must be >= 1")
        self.num_map_tasks = num_map_tasks
        self.num_reduce_tasks = num_reduce_tasks
        self.failure_plan = failure_plan

    # ------------------------------------------------------------------

    def run(self, job: MapReduceJob, records: Sequence[Any]) -> JobResult:
        counters = Counters()
        metrics = JobMetrics(name=job.name)

        with self._task_map() as run_tasks:

            def run_phase(phase: str, inputs: Sequence[Any]) -> Iterator[list]:
                """Each task's output, its counters and times committed."""
                if phase == "map":
                    ok, failed = metrics.map_task_s, metrics.failed_map_task_s
                else:
                    ok = metrics.reduce_task_s
                    failed = metrics.failed_reduce_task_s
                plan = self.failure_plan
                for result in run_tasks(
                    Task(job, plan, phase, index, data)
                    for index, data in enumerate(inputs)
                ):
                    counters.merge(result.counters)
                    failed.extend(result.failed_seconds)
                    ok.append(result.seconds)
                    yield result.output

            map_outputs = list(run_phase("map", self._split(records)))

            start = time.perf_counter()
            partitions = self._shuffle(map_outputs)
            metrics.shuffle_s = time.perf_counter() - start
            metrics.shuffle_bytes = counters[C.SHUFFLE_BYTES]

            output: list[Any] = []
            for records_out in run_phase("reduce", partitions):
                output.extend(records_out)
        return JobResult(output=output, counters=counters, metrics=metrics)

    @contextlib.contextmanager
    def _task_map(self) -> Iterator[TaskMap]:
        """How this engine runs a job's tasks: here, in process, in
        order."""
        yield lambda tasks: map(run_task, tasks)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _split(self, records: Sequence[Any]) -> list[list[Any]]:
        n_tasks = min(self.num_map_tasks, max(1, len(records)))
        splits: list[list[Any]] = [[] for _ in range(n_tasks)]
        for i, record in enumerate(records):
            splits[i % n_tasks].append(record)
        return splits

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


def run_task(task: Task) -> TaskResult:
    """Run one task with retries; keep only the committed attempt's
    output and counters, the ones the job adds through
    :func:`~repro.mapreduce.counters.task_counters` included.

    Module-level so the serial engine and the process pool
    (:mod:`repro.mapreduce.parallel`) run every attempt through the
    identical code.
    """
    job, plan, phase, index, data = task
    body = run_map_task if phase == "map" else run_reduce_task
    max_attempts = plan.max_attempts if plan else 1
    counters = Counters()
    failed_seconds: list[float] = []
    for attempt in range(max_attempts):
        crash_after = None
        if plan is not None and plan.should_fail(phase, index, attempt):
            crash_after = plan.crash_point(phase, index, attempt, len(data))
        attempt_counters = Counters()
        # what the job itself counts (task_counters()) lands here too
        token = ATTEMPT_COUNTERS.set(attempt_counters)
        start = time.perf_counter()
        try:
            output = body(job, data, attempt_counters, crash_after)
        except _InjectedFailure:
            failed_seconds.append(time.perf_counter() - start)
            counters.increment(
                C.FAILED_MAP_TASKS if phase == "map" else C.FAILED_REDUCE_TASKS
            )
            continue
        finally:
            ATTEMPT_COUNTERS.reset(token)
        seconds = time.perf_counter() - start
        return TaskResult(
            output, counters.merge(attempt_counters), seconds, failed_seconds
        )
    raise TaskRetriesExceededError(phase, index, max_attempts)


def run_map_task(
    job: MapReduceJob,
    split: Sequence[Any],
    counters: Counters,
    crash_after: int | None = None,
) -> list[tuple[Any, Any]]:
    """One map task attempt: apply ``job.map`` to a split, then the
    combiner; dies at ``crash_after`` records if that is set."""
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
    """One reduce task attempt: ``job.reduce`` over the partition's
    sorted keys; dies at ``crash_after`` keys if that is set."""
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
