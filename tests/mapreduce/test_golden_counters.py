"""Golden counters of the two LASH jobs.

``run_map_task`` and ``run_reduce_task`` count records and bytes in locals
and post them once per attempt; the numbers below were produced by the
per-record posting they replaced, and must come out the same whichever way
a job is run.  So must the local miner's search space, which the mining
reduce posts to its attempt's counters: a failed attempt's partial search
is not counted.
"""

from dataclasses import dataclass

import pytest

from repro import Lash, MiningParams
from repro.datasets.text import TextCorpusConfig, generate_text_corpus
from repro.mapreduce import C, FailurePlan, ParallelMapReduceEngine
from tests.conftest import paper_database, paper_hierarchy

NAMES = (
    C.MAP_INPUT_RECORDS,
    C.MAP_OUTPUT_RECORDS,
    C.MAP_OUTPUT_BYTES,
    C.COMBINE_INPUT_RECORDS,
    C.COMBINE_OUTPUT_RECORDS,
    C.SHUFFLE_BYTES,
)
REDUCE_NAMES = (
    C.REDUCE_INPUT_GROUPS,
    C.REDUCE_INPUT_RECORDS,
    C.REDUCE_OUTPUT_RECORDS,
)


def _fig1():
    return MiningParams(2, 1, 3), paper_database(), paper_hierarchy()


def _text300():
    corpus = generate_text_corpus(TextCorpusConfig(num_sentences=300, seed=7))
    return MiningParams(5, 0, 3), corpus.database, corpus.hierarchies["CLP"]


#: case -> (inputs, f-list job counters, mining job counters, patterns)
GOLDEN = {
    "fig1": (_fig1, (6, 28, 70, 28, 28, 70), (6, 14, 94, 14, 14, 94), 10),
    "text300": (
        _text300,
        (300, 3602, 18558, 3602, 1274, 7719),
        (300, 2381, 15951, 2381, 1415, 9804),
        453,
    ),
}
#: case -> (f-list job, mining job) counters of REDUCE_NAMES
REDUCE_GOLDEN = {
    "fig1": ((14, 28, 14), (5, 14, 10)),
    "text300": ((628, 1274, 628), (80, 1415, 453)),
}
#: case -> the local miner's (candidates, outputs): committed attempts
#: only, so a failure plan must not inflate them
STATS_GOLDEN = {"fig1": (31, 10), "text300": (1621, 453)}


@dataclass(frozen=True)
class _CrashAtCommit(FailurePlan):
    """Doomed attempts get through their whole split and die at commit."""

    def crash_point(self, phase, task_index, attempt, num_records):
        return num_records


def _plain(lash, tmp_path):
    return lash


def _mid_split_crashes(lash, tmp_path):
    lash.engine.failure_plan = FailurePlan(
        map_failures={0: 1, 3: 2}, reduce_failures={2: 1, 6: 2},
        probability=0.2, seed=11, max_attempts=8,
    )
    return lash


def _commit_crashes(lash, tmp_path):
    lash.engine.failure_plan = _CrashAtCommit(
        map_failures={1: 2, 5: 1}, reduce_failures={0: 1, 4: 2}
    )
    return lash


def _parallel(lash, tmp_path):
    lash.engine = ParallelMapReduceEngine(8, 8, max_workers=2)
    return lash


def _parallel_crashes(lash, tmp_path):
    """The process engine runs a failure plan like the serial one."""
    return _mid_split_crashes(_parallel(lash, tmp_path), tmp_path)


@pytest.mark.parametrize("case", sorted(GOLDEN))
@pytest.mark.parametrize(
    "way",
    [_plain, _mid_split_crashes, _commit_crashes, _parallel, _parallel_crashes],
)
def test_counters_do_not_depend_on_how_the_job_ran(case, way, tmp_path):
    make, flist_golden, mine_golden, patterns = GOLDEN[case]
    params, database, hierarchy = make()
    result = way(Lash(params), tmp_path).mine(database, hierarchy)
    for job, golden, reduce_golden in zip(
        (result.preprocess_job, result.mining_job),
        (flist_golden, mine_golden),
        REDUCE_GOLDEN[case],
    ):
        assert tuple(job.counters[name] for name in NAMES) == golden
        assert (
            tuple(job.counters[name] for name in REDUCE_NAMES) == reduce_golden
        )
    assert len(result) == patterns
    stats = result.local_stats
    assert (stats.candidates, stats.outputs) == STATS_GOLDEN[case]
    if way in (_mid_split_crashes, _commit_crashes, _parallel_crashes):
        for failed_tasks in (C.FAILED_MAP_TASKS, C.FAILED_REDUCE_TASKS):
            failed = (
                result.preprocess_job.counters[failed_tasks]
                + result.mining_job.counters[failed_tasks]
            )
            assert failed >= 3
