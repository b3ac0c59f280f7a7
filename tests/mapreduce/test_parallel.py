"""Process-parallel engine (repro.mapreduce.parallel).

The parallel engine must be a drop-in replacement: identical outputs and
logical counters for every job in the library.
"""

from __future__ import annotations

import pytest

from repro import Lash, MiningParams
from repro.errors import InvalidParameterError
from repro.mapreduce import (
    C,
    FailurePlan,
    MapReduceEngine,
    MapReduceJob,
    ParallelMapReduceEngine,
    TaskRetriesExceededError,
)


class WordCount(MapReduceJob):
    name = "wordcount"
    has_combiner = True

    def map(self, record):
        for word in record:
            yield word, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


RECORDS = [["a", "b", "a"], ["b", "c"], ["a"], ["c", "c", "b"]] * 4


def test_same_output_as_serial():
    serial = MapReduceEngine(num_map_tasks=3, num_reduce_tasks=4).run(
        WordCount(), RECORDS
    )
    parallel = ParallelMapReduceEngine(
        num_map_tasks=3, num_reduce_tasks=4, max_workers=2
    ).run(WordCount(), RECORDS)
    assert sorted(parallel.output) == sorted(serial.output)


def test_same_logical_counters():
    serial = MapReduceEngine(num_map_tasks=3, num_reduce_tasks=4).run(
        WordCount(), RECORDS
    )
    parallel = ParallelMapReduceEngine(
        num_map_tasks=3, num_reduce_tasks=4, max_workers=2
    ).run(WordCount(), RECORDS)
    for name in (
        C.MAP_INPUT_RECORDS,
        C.MAP_OUTPUT_RECORDS,
        C.MAP_OUTPUT_BYTES,
        C.SHUFFLE_BYTES,
        C.REDUCE_INPUT_GROUPS,
        C.REDUCE_INPUT_RECORDS,
        C.REDUCE_OUTPUT_RECORDS,
    ):
        assert parallel.counters[name] == serial.counters[name], name


def test_task_metrics_recorded():
    result = ParallelMapReduceEngine(
        num_map_tasks=3, num_reduce_tasks=4, max_workers=2
    ).run(WordCount(), RECORDS)
    assert len(result.metrics.map_task_s) == 3
    assert len(result.metrics.reduce_task_s) == 4
    assert all(t >= 0 for t in result.metrics.map_task_s)


def test_lash_with_parallel_engine(fig1_database, fig1_hierarchy):
    """The full LASH pipeline (both jobs) runs under the pool and
    matches the serial answer."""
    params = MiningParams(2, 1, 3)
    serial = Lash(params).mine(fig1_database, fig1_hierarchy)
    lash = Lash(params)
    lash.engine = ParallelMapReduceEngine(
        num_map_tasks=4, num_reduce_tasks=4, max_workers=2
    )
    parallel = lash.mine(fig1_database, fig1_hierarchy)
    assert parallel.decoded() == serial.decoded()
    assert (
        parallel.counters["SHUFFLE_BYTES"]
        == serial.counters["SHUFFLE_BYTES"]
    )


def test_exploration_stats_shipped_back(fig1_database, fig1_hierarchy):
    """Workers' local-miner search-space accounting comes back in the
    job's counters: Fig. 4(d)-style measurements read the same under
    either engine."""
    params = MiningParams(2, 1, 3)
    serial = Lash(params).mine(fig1_database, fig1_hierarchy)
    lash = Lash(params)
    lash.engine = ParallelMapReduceEngine(
        num_map_tasks=4, num_reduce_tasks=4, max_workers=2
    )
    parallel = lash.mine(fig1_database, fig1_hierarchy)
    assert parallel.local_stats.candidates == serial.local_stats.candidates
    assert parallel.local_stats.outputs == serial.local_stats.outputs
    assert parallel.local_stats.candidates > 0
    assert (
        parallel.local_stats.candidates_per_output()
        == serial.local_stats.candidates_per_output()
    )


def test_exploration_stats_not_double_counted(fig1_database, fig1_hierarchy):
    """Search-space accounting travels in the job's counters, one delta
    per partition: stats the driver's miner already carries are neither
    echoed back nor added to, since workers mine on their own copies."""
    from repro.core.lash import PartitionMineJob
    from repro.mapreduce import C

    params = MiningParams(2, 1, 3)
    expected = Lash(params).mine(fig1_database, fig1_hierarchy).local_stats

    lash = Lash(params)
    vocabulary, _ = lash.preprocess(fig1_database, fig1_hierarchy)
    miner = lash.miner_factory(vocabulary, params)
    miner.stats.candidates = 7  # pre-existing driver-side accounting
    job = PartitionMineJob(vocabulary, params, miner, lash.rewrite_plan)
    encoded = [vocabulary.encode_sequence(seq) for seq in fig1_database]
    result = ParallelMapReduceEngine(
        num_map_tasks=4, num_reduce_tasks=4, max_workers=2
    ).run(job, encoded)
    assert result.counters[C.LOCAL_CANDIDATES] == expected.candidates > 0
    assert result.counters[C.LOCAL_OUTPUTS] == expected.outputs
    assert (miner.stats.candidates, miner.stats.outputs) == (7, 0)


def test_closedlash_with_parallel_engine(fig1_database, fig1_hierarchy):
    from repro import ClosedLash

    params = MiningParams(2, 1, 3)
    serial = ClosedLash(params, mode="maximal").mine(
        fig1_database, fig1_hierarchy
    )
    driver = ClosedLash(params, mode="maximal")
    driver.engine = ParallelMapReduceEngine(
        num_map_tasks=4, num_reduce_tasks=4, max_workers=2
    )
    parallel = driver.mine(fig1_database, fig1_hierarchy)
    assert parallel.patterns == serial.patterns


def test_default_worker_count_bounded():
    engine = ParallelMapReduceEngine(num_map_tasks=2, num_reduce_tasks=8)
    assert 1 <= engine.max_workers <= 2


def test_invalid_worker_count():
    with pytest.raises(InvalidParameterError):
        ParallelMapReduceEngine(max_workers=0)


def test_single_worker_degenerates_gracefully():
    result = ParallelMapReduceEngine(
        num_map_tasks=2, num_reduce_tasks=2, max_workers=1
    ).run(WordCount(), RECORDS)
    serial = MapReduceEngine(num_map_tasks=2, num_reduce_tasks=2).run(
        WordCount(), RECORDS
    )
    assert sorted(result.output) == sorted(serial.output)


def test_failure_plan_runs_in_the_workers():
    """Failed attempts are retried in the pool: same output, and the
    same failure bookkeeping as the serial engine."""
    plan = FailurePlan(map_failures={0: 2}, reduce_failures={1: 1})
    serial = MapReduceEngine(3, 4, failure_plan=plan).run(WordCount(), RECORDS)
    engine = ParallelMapReduceEngine(3, 4, max_workers=2)
    engine.failure_plan = plan
    parallel = engine.run(WordCount(), RECORDS)
    assert sorted(parallel.output) == sorted(serial.output)
    for name in (C.FAILED_MAP_TASKS, C.FAILED_REDUCE_TASKS, C.SHUFFLE_BYTES):
        assert parallel.counters[name] == serial.counters[name], name
    assert len(parallel.metrics.failed_map_task_s) == 2
    assert len(parallel.metrics.failed_reduce_task_s) == 1


def test_retries_exhausted_in_a_worker_raise_in_the_driver():
    engine = ParallelMapReduceEngine(2, 2, max_workers=2)
    engine.failure_plan = FailurePlan(map_failures={1: 99}, max_attempts=3)
    with pytest.raises(TaskRetriesExceededError) as info:
        engine.run(WordCount(), RECORDS)
    assert (info.value.phase, info.value.task_index) == ("map", 1)
    assert info.value.attempts == 3
