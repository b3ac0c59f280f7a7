"""External (disk-backed) shuffle (repro.mapreduce.spill + engine).

The external shuffle must be answer- and counter-equivalent to the
in-memory shuffle, add honest spill metering, stream values lazily, and
leave no run file behind — including under injected task failures.
"""

from __future__ import annotations

import os
from contextlib import ExitStack

import pytest

from repro import Lash, MiningParams, mine
from repro.mapreduce import (
    MERGED_RUNS,
    SPILL_BYTES,
    SPILLED_RECORDS,
    C,
    FailurePlan,
    MapReduceEngine,
    MapReduceJob,
    MergedPartition,
    spill_map_output,
)
from repro.mapreduce.spill import spill_file


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


RECORDS = [
    ["a", "b", "a"],
    ["b", "c"],
    ["a"],
    ["c", "c", "c", "b"],
] * 5


def run_wordcount(**engine_kwargs):
    engine = MapReduceEngine(num_map_tasks=3, num_reduce_tasks=4,
                             **engine_kwargs)
    return engine.run(WordCount(), RECORDS)


# ----------------------------------------------------------------------
# equivalence with the in-memory shuffle
# ----------------------------------------------------------------------


def test_same_output_as_memory_shuffle(tmp_path):
    memory = run_wordcount()
    external = run_wordcount(spill_dir=tmp_path)
    assert sorted(external.output) == sorted(memory.output)


def test_same_logical_counters(tmp_path):
    memory = run_wordcount()
    external = run_wordcount(spill_dir=tmp_path)
    for name in (
        C.MAP_OUTPUT_RECORDS,
        C.MAP_OUTPUT_BYTES,
        C.SHUFFLE_BYTES,
        C.REDUCE_INPUT_GROUPS,
        C.REDUCE_INPUT_RECORDS,
        C.REDUCE_OUTPUT_RECORDS,
    ):
        assert external.counters[name] == memory.counters[name], name


def test_spill_counters_only_with_spilling(tmp_path):
    memory = run_wordcount()
    external = run_wordcount(spill_dir=tmp_path)
    assert memory.counters[SPILLED_RECORDS] == 0
    assert external.counters[SPILLED_RECORDS] > 0
    assert external.counters[SPILL_BYTES] > 0
    # combined records spilled = post-combine shuffle records
    assert external.counters[SPILLED_RECORDS] == external.counters[
        C.COMBINE_OUTPUT_RECORDS
    ]
    # at most map_tasks × reduce_tasks runs
    assert 0 < external.counters[MERGED_RUNS] <= 3 * 4


def test_run_files_cleaned_up(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    run_wordcount(spill_dir=tmp_path)
    assert os.listdir(tmp_path) == []
    assert len(os.listdir("/proc/self/fd")) == before


def test_spill_dir_created_if_missing(tmp_path):
    target = tmp_path / "deep" / "spills"
    run_wordcount(spill_dir=target)
    assert target.exists()


def test_lash_end_to_end_with_spilling(tmp_path, fig1_database,
                                        fig1_hierarchy):
    params = MiningParams(2, 1, 3)
    memory = Lash(params).mine(fig1_database, fig1_hierarchy)
    spilled = Lash(params, spill_dir=tmp_path).mine(
        fig1_database, fig1_hierarchy
    )
    assert spilled.decoded() == memory.decoded()
    assert spilled.counters[SPILLED_RECORDS] > 0


# ----------------------------------------------------------------------
# failure interaction
# ----------------------------------------------------------------------


def test_reduce_retry_rereads_runs(tmp_path):
    """A reduce attempt that crashes mid-partition must succeed on retry
    with identical output (the merged stream is re-fetchable)."""
    plan = FailurePlan(
        reduce_failures={i: 1 for i in range(4)}, max_attempts=3
    )
    clean = run_wordcount(spill_dir=tmp_path)
    failing = run_wordcount(spill_dir=tmp_path, failure_plan=plan)
    assert sorted(failing.output) == sorted(clean.output)
    assert failing.counters[C.FAILED_REDUCE_TASKS] == 4
    assert os.listdir(tmp_path) == []


def test_map_retry_with_spilling(tmp_path):
    plan = FailurePlan(map_failures={0: 1, 1: 1}, max_attempts=3)
    clean = run_wordcount(spill_dir=tmp_path)
    failing = run_wordcount(spill_dir=tmp_path, failure_plan=plan)
    assert sorted(failing.output) == sorted(clean.output)


# ----------------------------------------------------------------------
# spill primitives
# ----------------------------------------------------------------------


@pytest.fixture
def spill(tmp_path):
    """Opens spill files that are closed after the test."""
    with ExitStack() as files:
        def open_file():
            file = spill_file(tmp_path)
            files.callback(file.close)
            return file

        yield open_file


def make_runs(spill, pairs_per_task, num_partitions=2):
    runs = []
    for pairs in pairs_per_task:
        runs.extend(
            spill_map_output(
                pairs, lambda key: key % num_partitions, spill()
            )
        )
    return runs


def test_spill_map_output_sorts_and_groups(spill):
    pairs = [(3, "x"), (1, "y"), (3, "z"), (2, "w")]
    runs = spill_map_output(pairs, lambda key: 0, spill())
    assert len(runs) == 1
    groups = list(runs[0].read_groups())
    assert groups == [(1, ["y"]), (2, ["w"]), (3, ["x", "z"])]
    assert runs[0].records == 4
    assert runs[0].bytes == runs[0].file.size > 0


def test_spill_partitions_by_partitioner(spill):
    pairs = [(0, "a"), (1, "b"), (2, "c"), (3, "d")]
    file = spill()
    runs = spill_map_output(pairs, lambda key: key % 2, file)
    assert {run.partition for run in runs} == {0, 1}
    even, odd = runs
    # segments of one file, each readable on its own, in any order
    assert [key for key, _ in odd.read_groups()] == [1, 3]
    assert [key for key, _ in even.read_groups()] == [0, 2]
    assert (even.start, even.end, odd.end) == (0, odd.start, file.size)


def test_empty_map_output_produces_no_runs(spill):
    assert spill_map_output([], lambda key: 0, spill()) == []


def test_merged_partition_merges_across_runs(spill):
    runs = make_runs(
        spill,
        [
            [(2, "a"), (4, "b")],
            [(2, "c"), (6, "d")],
        ],
    )
    partition = MergedPartition(runs=[r for r in runs if r.partition == 0])
    assert sorted(partition) == [2, 4, 6]
    assert len(partition) == 3
    assert partition[2] == ["a", "c"]
    assert partition[4] == ["b"]
    assert partition[6] == ["d"]


def test_merged_partition_out_of_order_access(spill):
    runs = make_runs(spill, [[(0, "a"), (2, "b"), (4, "c")]])
    partition = MergedPartition(runs=runs)
    # access the last key first: earlier groups get buffered
    assert partition[4] == ["c"]
    assert partition[0] == ["a"]
    assert partition[2] == ["b"]


def test_merged_partition_replay_after_exhaustion(spill):
    runs = make_runs(spill, [[(0, "a"), (2, "b")]])
    partition = MergedPartition(runs=runs)
    assert partition[0] == ["a"]
    assert partition[2] == ["b"]
    # stream exhausted; a retry starts over from the run files
    assert partition[0] == ["a"]


def test_merged_partition_missing_key(spill):
    runs = make_runs(spill, [[(0, "a")]])
    partition = MergedPartition(runs=runs)
    with pytest.raises(KeyError):
        partition[99]


def test_merged_partition_empty():
    partition = MergedPartition(runs=[])
    assert len(partition) == 0
    assert list(partition) == []


def test_tuple_keys_roundtrip(spill):
    """LASH's reconcile job keys by pattern tuples; tuple ordering must
    survive the spill."""
    pairs = [((1, 2), "x"), ((1, 1), "y"), ((0, 9), "z")]
    runs = spill_map_output(pairs, lambda key: 0, spill())
    keys = [key for key, _ in runs[0].read_groups()]
    assert keys == [(0, 9), (1, 1), (1, 2)]
