"""Property tests: every algorithm computes the same GSM answer.

The strongest correctness evidence in the suite: on random hierarchies,
databases and parameters, the naïve enumerator (obviously-correct oracle),
the semi-naïve baseline, and LASH with each local miner must agree exactly —
patterns and frequencies.
"""

from hypothesis import given, settings

from repro import (
    GspAlgorithm,
    Lash,
    MgFsm,
    MiningParams,
    NaiveAlgorithm,
    SemiNaiveAlgorithm,
)
from tests.property.strategies import dag_hierarchies, mining_instances


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(mining_instances())
def test_lash_psm_matches_naive(instance):
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    naive = NaiveAlgorithm(params).mine(database, hierarchy)
    lash = Lash(params, local_miner="psm").mine(database, hierarchy)
    assert lash.decoded() == naive.decoded()


@SETTINGS
@given(mining_instances())
def test_all_psm_index_modes_agree(instance):
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    reference = Lash(params, local_miner="psm").mine(database, hierarchy)
    for miner in ("psm-level", "psm-noindex"):
        other = Lash(params, local_miner=miner).mine(database, hierarchy)
        assert other.decoded() == reference.decoded(), miner


@SETTINGS
@given(mining_instances())
def test_bfs_dfs_spam_brute_agree(instance):
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    reference = NaiveAlgorithm(params).mine(database, hierarchy)
    for miner in ("bfs", "dfs", "spam", "brute"):
        other = Lash(params, local_miner=miner).mine(database, hierarchy)
        assert other.decoded() == reference.decoded(), miner


@SETTINGS
@given(mining_instances())
def test_gsp_matches_naive(instance):
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    naive = NaiveAlgorithm(params).mine(database, hierarchy)
    gsp = GspAlgorithm(params).mine(database, hierarchy)
    assert gsp.decoded() == naive.decoded()


@SETTINGS
@given(mining_instances())
def test_seminaive_matches_naive(instance):
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    naive = NaiveAlgorithm(params).mine(database, hierarchy)
    semi = SemiNaiveAlgorithm(params).mine(database, hierarchy)
    assert semi.decoded() == naive.decoded()


@SETTINGS
@given(mining_instances())
def test_mgfsm_matches_flat_naive(instance):
    _, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    naive = NaiveAlgorithm(params).mine(database)  # flat
    mgfsm = MgFsm(params).mine(database)
    assert mgfsm.decoded() == naive.decoded()


@settings(max_examples=25, deadline=None)
@given(mining_instances(hierarchy_strategy=dag_hierarchies()))
def test_dag_hierarchies_agree(instance):
    """Paper footnote 2: the methods extend to DAG hierarchies."""
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    naive = NaiveAlgorithm(params).mine(database, hierarchy)
    for miner in ("psm", "bfs", "dfs", "spam"):
        lash = Lash(params, local_miner=miner).mine(database, hierarchy)
        assert lash.decoded() == naive.decoded(), miner


@SETTINGS
@given(mining_instances())
def test_direct_closed_matches_posthoc(instance):
    """Direct closed/maximal mining ≡ post-processing the full output."""
    from repro.analysis import filter_result
    from repro.core.closedlash import ClosedLash

    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    full = Lash(params).mine(database, hierarchy)
    for mode in ("closed", "maximal"):
        direct = ClosedLash(params, mode=mode).mine(database, hierarchy)
        assert direct.patterns == filter_result(full, mode).patterns, mode


@settings(max_examples=25, deadline=None)
@given(mining_instances(hierarchy_strategy=dag_hierarchies()))
def test_direct_closed_matches_posthoc_on_dags(instance):
    """The cover/prune split stays exact when items have several parents."""
    from repro.analysis import filter_result
    from repro.core.closedlash import ClosedLash

    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    full = Lash(params).mine(database, hierarchy)
    for mode in ("closed", "maximal"):
        direct = ClosedLash(params, mode=mode).mine(database, hierarchy)
        assert direct.patterns == filter_result(full, mode).patterns, mode
