"""Process-parallel execution of MapReduce jobs.

:class:`ParallelMapReduceEngine` runs the serial engine's run loop and
hands its tasks to a process pool instead of running them in process —
on a multi-core machine the wall-clock speedup is real.  Semantics are
identical: every attempt of every task runs in the same
:func:`~repro.mapreduce.engine.run_task` the serial engine uses, failure
plan and retries included, and per-task counters and timings are shipped
back and committed by the same loop.

Scope notes (documented limitations, not surprises):

* Jobs are pickled to workers, so a job must be picklable — true for
  every job in this library (they hold vocabularies, params and plain
  data).
* Mutations a job makes to itself inside a worker stay in the worker.
  A job that measures something reports it through
  :func:`~repro.mapreduce.counters.task_counters`, so the measurement
  travels back with the committed attempt's counters, as it does under
  the serial engine.

>>> engine = ParallelMapReduceEngine(num_map_tasks=8, num_reduce_tasks=8,
...                                  max_workers=4)
>>> lash = Lash(params)
>>> lash.engine = engine          # drop-in replacement
>>> result = lash.mine(database, hierarchy)
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from repro.errors import InvalidParameterError
from repro.mapreduce.engine import MapReduceEngine, TaskMap, run_task


class ParallelMapReduceEngine(MapReduceEngine):
    """A drop-in engine that runs tasks in a process pool.

    Parameters
    ----------
    num_map_tasks / num_reduce_tasks:
        As in :class:`~repro.mapreduce.engine.MapReduceEngine`.
    max_workers:
        Worker processes; defaults to the machine's CPU count capped by
        the task counts.
    """

    def __init__(
        self,
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
        max_workers: int | None = None,
    ) -> None:
        super().__init__(
            num_map_tasks=num_map_tasks, num_reduce_tasks=num_reduce_tasks
        )
        if max_workers is None:
            max_workers = max(
                1,
                min(os.cpu_count() or 1, num_map_tasks, num_reduce_tasks),
            )
        if max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers

    @contextlib.contextmanager
    def _task_map(self) -> Iterator[TaskMap]:
        """One pool for the job: both phases map their tasks over it."""
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            yield lambda tasks: pool.map(run_task, tasks)


__all__ = ["ParallelMapReduceEngine"]
