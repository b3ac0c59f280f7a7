"""Golden counters of the LASH jobs and of the jobs that meter the same
wire format: the baselines' counting jobs and closed LASH's two jobs.

``run_map_task`` and ``run_reduce_task`` count records and bytes in locals
and post them once per attempt; the numbers below were produced by the
per-record posting they replaced, and must come out the same whichever way
a job is run.  So must the local miner's search space, which the mining
reduce posts to its attempt's counters: a failed attempt's partial search
is not counted.
"""

from dataclasses import dataclass

import pytest

from repro import (
    ClosedLash,
    GspAlgorithm,
    Lash,
    MiningParams,
    NaiveAlgorithm,
    SemiNaiveAlgorithm,
)
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


#: (case, algorithm) -> {job: NAMES + REDUCE_NAMES counters}, patterns.
#: GSP's mining job is the sum of its per-level counting jobs.
OTHER_GOLDEN = {
    ("fig1", "naive"): (
        {"mining_job": (6, 112, 506, 112, 112, 506, 101, 112, 10)}, 10
    ),
    ("fig1", "semi-naive"): (
        {"mining_job": (6, 55, 247, 55, 55, 247, 44, 55, 10)}, 10
    ),
    ("fig1", "gsp"): (
        {"mining_job": (12, 42, 182, 42, 42, 182, 31, 42, 10)}, 10
    ),
    ("fig1", "closed"): (
        {
            "mining_job": (6, 14, 94, 14, 14, 94, 5, 14, 11),
            "reconcile_job": (11, 11, 56, 11, 11, 56, 8, 11, 7),
        },
        7,
    ),
    ("fig1", "maximal"): (
        {
            "mining_job": (6, 14, 94, 14, 14, 94, 5, 14, 11),
            "reconcile_job": (11, 11, 56, 11, 11, 56, 8, 11, 6),
        },
        6,
    ),
    ("text300", "naive"): (
        {
            "mining_job": (
                300, 22267, 113291, 22267, 17088, 90078, 13248, 17088, 453
            )
        },
        453,
    ),
    ("text300", "semi-naive"): (
        {
            "mining_job": (
                300, 12038, 55436, 12038, 6915, 32492, 3536, 6915, 453
            )
        },
        453,
    ),
    ("text300", "gsp"): (
        {"mining_job": (600, 9583, 43161, 9583, 4540, 20617, 1612, 4540, 453)},
        453,
    ),
    ("text300", "closed"): (
        {
            "mining_job": (300, 2381, 15951, 2381, 1415, 9804, 80, 1415, 958),
            "reconcile_job": (958, 958, 5282, 958, 730, 4087, 395, 730, 350),
        },
        350,
    ),
    ("text300", "maximal"): (
        {
            "mining_job": (300, 2381, 15951, 2381, 1415, 9804, 80, 1415, 824),
            "reconcile_job": (824, 824, 4547, 824, 597, 3358, 326, 597, 178),
        },
        178,
    ),
}

ALGORITHMS = {
    "naive": NaiveAlgorithm,
    "semi-naive": SemiNaiveAlgorithm,
    "gsp": GspAlgorithm,
    "closed": lambda params: ClosedLash(params, mode="closed"),
    "maximal": lambda params: ClosedLash(params, mode="maximal"),
}


@pytest.mark.parametrize("case, algorithm", sorted(OTHER_GOLDEN))
def test_counters_of_the_other_wire_format_jobs(case, algorithm):
    """Fig. 4(b) compares these jobs' bytes with LASH's, so they are
    pinned as exactly as LASH's own."""
    jobs, patterns = OTHER_GOLDEN[(case, algorithm)]
    params, database, hierarchy = GOLDEN[case][0]()
    result = ALGORITHMS[algorithm](params).mine(database, hierarchy)
    for attribute, golden in jobs.items():
        counters = getattr(result, attribute).counters
        assert (
            tuple(counters[name] for name in NAMES + REDUCE_NAMES) == golden
        )
    assert len(result) == patterns
