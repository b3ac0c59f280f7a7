"""One driver surface: every GSM algorithm preprocesses through the same
f-list job, takes ``mine(database, hierarchy=None, vocabulary=None)`` and
runs its jobs on ``.engine``."""

import pytest

from repro import (
    ClosedLash,
    GspAlgorithm,
    Lash,
    MgFsm,
    MiningParams,
    NaiveAlgorithm,
    SemiNaiveAlgorithm,
)
from repro.analysis import filter_result
from repro.datasets.text import TextCorpusConfig, generate_text_corpus
from tests.conftest import paper_database, paper_hierarchy


def _fig1():
    return MiningParams(2, 1, 3), paper_database(), paper_hierarchy()


def _text300():
    corpus = generate_text_corpus(TextCorpusConfig(num_sentences=300, seed=7))
    return MiningParams(5, 0, 3), corpus.database, corpus.hierarchies["CLP"]


CASES = {"fig1": _fig1, "text300": _text300}
DRIVERS = [
    Lash, ClosedLash, NaiveAlgorithm, SemiNaiveAlgorithm, GspAlgorithm, MgFsm,
]


@pytest.fixture(scope="module")
def reference():
    """case -> (inputs, LASH's vocabulary, its flat one, LASH's answer)."""
    out = {}
    for case, make in CASES.items():
        params, database, hierarchy = make()
        lash = Lash(params)
        vocabulary, _ = lash.preprocess(database, hierarchy)
        flat, _ = lash.preprocess(database, None)
        out[case] = (
            (params, database, hierarchy),
            vocabulary,
            flat,
            lash.mine(database, vocabulary=vocabulary),
        )
    return out


def _items(vocabulary):
    return [
        (vocabulary.name(i), vocabulary.frequency(i), vocabulary.parent_ids(i))
        for i in range(len(vocabulary))
    ]


def _expected(driver_class, lash_result, database, params):
    """The answer each driver must give, from LASH's."""
    if driver_class is ClosedLash:
        return filter_result(lash_result, "closed").decoded()
    if driver_class is MgFsm:
        return Lash(params).mine(database).decoded()
    return lash_result.decoded()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("driver_class", DRIVERS, ids=lambda d: d.__name__)
def test_one_driver_surface(driver_class, case, reference):
    (params, database, hierarchy), vocabulary, flat, lash = reference[case]
    driver = driver_class(params)
    jobs = []
    run = driver.engine.run

    def recording_run(job, records):
        jobs.append(job.name)
        return run(job, records)

    driver.engine.run = recording_run
    # flat by definition: MG-FSM preprocesses without the hierarchy
    own = flat if driver_class is MgFsm else vocabulary

    result = driver.mine(database, hierarchy)
    assert result.preprocess_job is not None
    assert jobs[0] == "flist" and jobs.count("flist") == 1
    assert _items(result.vocabulary) == _items(own)
    expected = _expected(driver_class, lash, database, params)
    assert result.decoded() == expected

    jobs.clear()
    reused = driver.mine(database, vocabulary=vocabulary)
    if driver_class is MgFsm:
        assert jobs.count("flist") == 1
        assert _items(reused.vocabulary) == _items(flat)
    else:
        assert "flist" not in jobs
        assert reused.preprocess_job is None
        assert reused.vocabulary is vocabulary
    assert reused.decoded() == expected
