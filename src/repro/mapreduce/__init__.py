"""A deterministic, in-process MapReduce substrate.

The paper implements LASH on Hadoop (Sec. 3.1, 6.1).  This package provides
the equivalent execution model for a single machine:

* jobs are (map, combine, reduce) functions over key–value pairs,
* the engine runs map tasks over input splits, applies per-split combiners,
  shuffles in memory by stable key hash into reduce partitions, and runs
  reducers over key groups in sorted key order,
* Hadoop-style counters (``MAP_OUTPUT_BYTES`` et al.) are maintained with
  job-provided serialized sizes,
* per-task wall-clock times are recorded (:class:`JobMetrics`), and
  :class:`ParallelMapReduceEngine` runs the same tasks on a process pool,
* task failures can be injected deterministically (:class:`FailurePlan`);
  failed attempts are discarded and retried exactly like Hadoop does,
  under either engine.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mapreduce.counters import C, Counters
    from repro.mapreduce.engine import JobResult, MapReduceEngine, stable_hash
    from repro.mapreduce.failures import FailurePlan, TaskRetriesExceededError
    from repro.mapreduce.job import MapReduceJob
    from repro.mapreduce.metrics import JobMetrics, PhaseTimes
    from repro.mapreduce.parallel import ParallelMapReduceEngine

# lazy so that the serial engine, the counters a `MiningResult` carries
# and the store format's `stable_hash` do not load the process pool
# (`parallel` -> `concurrent.futures.process` -> `multiprocessing`)
_EXPORTS = {
    "Counters": "repro.mapreduce.counters",
    "C": "repro.mapreduce.counters",
    "MapReduceJob": "repro.mapreduce.job",
    "JobMetrics": "repro.mapreduce.metrics",
    "PhaseTimes": "repro.mapreduce.metrics",
    "MapReduceEngine": "repro.mapreduce.engine",
    "ParallelMapReduceEngine": "repro.mapreduce.parallel",
    "JobResult": "repro.mapreduce.engine",
    "stable_hash": "repro.io.codec",
    "FailurePlan": "repro.mapreduce.failures",
    "TaskRetriesExceededError": "repro.mapreduce.failures",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
