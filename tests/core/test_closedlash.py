"""Direct closed/maximal mining (repro.core.closedlash).

The gold standard throughout is post-processing the full GSM output with
:func:`repro.analysis.filter_result`; the direct algorithm must
produce the identical pattern→frequency mapping in both modes.
"""

from __future__ import annotations

import pytest

from repro import Lash, MiningParams, mine
from repro.analysis import filter_result
from repro.core.closedlash import (
    ClosedLash,
    ReconcileJob,
    _CAND,
    _COVER,
    cross_pivot_covers,
    prune_locally,
)
from repro.errors import InvalidParameterError
from repro.mapreduce.engine import MapReduceEngine


def reference(database, hierarchy, sigma, gamma, lam, mode):
    full = mine(database, hierarchy, sigma=sigma, gamma=gamma, lam=lam)
    return filter_result(full, mode).patterns


# ----------------------------------------------------------------------
# end-to-end agreement on the paper's running example
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["closed", "maximal"])
def test_fig1_agrees_with_posthoc(fig1_database, fig1_hierarchy, mode):
    direct = ClosedLash(MiningParams(2, 1, 3), mode=mode).mine(
        fig1_database, fig1_hierarchy
    )
    expected = reference(fig1_database, fig1_hierarchy, 2, 1, 3, mode)
    assert direct.patterns == expected


def test_fig1_closed_contains_maximal(fig1_database, fig1_hierarchy):
    closed = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    maximal = ClosedLash(MiningParams(2, 1, 3), mode="maximal").mine(
        fig1_database, fig1_hierarchy
    )
    assert set(maximal.patterns) <= set(closed.patterns)


def test_fig1_closed_subset_of_full_output(fig1_database, fig1_hierarchy):
    full = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
    closed = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    for pattern, frequency in closed.patterns.items():
        assert full.patterns[pattern] == frequency


def test_fig1_known_nonclosed_pattern(fig1_database, fig1_hierarchy):
    """``Bc`` (f=2) is covered by ``aBc`` (f=2): non-closed, non-maximal."""
    closed = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    decoded = closed.decoded()
    assert ("B", "c") not in decoded
    assert ("a", "B", "c") in decoded


def test_fig1_aB_closed_but_not_maximal(fig1_database, fig1_hierarchy):
    """``aB`` (f=3) has supersequence ``aBc`` (f=2): closed, not maximal."""
    closed = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    maximal = ClosedLash(MiningParams(2, 1, 3), mode="maximal").mine(
        fig1_database, fig1_hierarchy
    )
    assert ("a", "B") in closed.decoded()
    assert ("a", "B") not in maximal.decoded()


def test_flat_mining_agreement(fig1_database):
    """Without a hierarchy the direct algorithm still matches post-hoc."""
    direct = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, None
    )
    full = mine(fig1_database, None, sigma=2, gamma=1, lam=3)
    assert direct.patterns == filter_result(full, "closed").patterns


@pytest.mark.parametrize("mode", ["closed", "maximal"])
@pytest.mark.parametrize("gamma", [0, 2, None])
def test_gamma_sweep_agreement(fig1_database, fig1_hierarchy, mode, gamma):
    direct = ClosedLash(MiningParams(2, gamma, 4), mode=mode).mine(
        fig1_database, fig1_hierarchy
    )
    expected = reference(fig1_database, fig1_hierarchy, 2, gamma, 4, mode)
    assert direct.patterns == expected


def test_vocabulary_reuse(fig1_database, fig1_hierarchy):
    params = MiningParams(2, 1, 3)
    vocabulary, _ = Lash(params).preprocess(fig1_database, fig1_hierarchy)
    driver = ClosedLash(params, mode="maximal")
    result = driver.mine(fig1_database, vocabulary=vocabulary)
    assert result.patterns == reference(
        fig1_database, fig1_hierarchy, 2, 1, 3, "maximal"
    )
    assert result.preprocess_job is None


# ----------------------------------------------------------------------
# local pruning
# ----------------------------------------------------------------------


def _pivot_partition_output(database, hierarchy, params, pivot_name):
    """Mine one partition of the Fig. 1 example and return (patterns, voc,
    pivot id)."""
    from repro.core.partition import build_partitions
    from repro.core.psm import PivotSequenceMiner

    vocabulary, _ = Lash(params).preprocess(database, hierarchy)
    partitions = build_partitions(vocabulary, [
        vocabulary.encode_sequence(seq) for seq in database
    ], params)
    pivot = vocabulary.id(pivot_name)
    miner = PivotSequenceMiner(vocabulary, params)
    return miner.mine_partition(partitions[pivot], pivot), vocabulary, pivot


def test_prune_locally_drops_prefix_witnessed(
    fig1_database, fig1_hierarchy
):
    """In partition ``P_c``: ``Bc`` and ``ac`` are witnessed by ``aBc``
    only through prepends that stay in the same partition."""
    params = MiningParams(2, 1, 3)
    mined, vocabulary, _ = _pivot_partition_output(
        fig1_database, fig1_hierarchy, params, "c"
    )
    decoded = {
        vocabulary.decode_sequence(p): f for p, f in mined.items()
    }
    assert decoded == {("a", "B", "c"): 2, ("B", "c"): 2, ("a", "c"): 2}
    survivors = prune_locally(mined, vocabulary, "closed")
    rendered = {vocabulary.decode_sequence(p) for p in survivors}
    # Bc (f=2) covered by aBc (f=2) -> pruned; ac (f=2) covered by aBc? No:
    # ac is not an atomic neighbor of aBc (aBc drops to Bc or aB, and no
    # one-step specialization of ac yields aBc) -> survives locally.
    assert ("B", "c") not in rendered
    assert ("a", "B", "c") in rendered
    assert ("a", "c") in rendered


def test_prune_locally_maximal_strictness(fig1_database, fig1_hierarchy):
    """Maximal pruning also removes patterns with lower-frequency
    witnesses."""
    params = MiningParams(2, 1, 3)
    mined, vocabulary, _ = _pivot_partition_output(
        fig1_database, fig1_hierarchy, params, "B"
    )
    closed_survivors = prune_locally(mined, vocabulary, "closed")
    maximal_survivors = prune_locally(mined, vocabulary, "maximal")
    assert set(maximal_survivors) <= set(closed_survivors)
    # aB (f=3) is witnessed by aBc only in partition c — both survive here.
    assert vocabulary.encode_sequence(("a", "B")) in maximal_survivors


def test_prune_locally_specialization_witness():
    """A same-partition one-step specialization with equal frequency kills
    closedness."""
    from repro.hierarchy import Hierarchy, build_vocabulary
    from repro.sequence import SequenceDatabase

    h = Hierarchy()
    h.add_item("A")
    h.add_item("a1", "A")
    db = SequenceDatabase([["a1", "a1"], ["a1", "a1"]])
    vocabulary = build_vocabulary(db, h)
    # Patterns over ids: A < a1 in the order.
    A, a1 = vocabulary.id("A"), vocabulary.id("a1")
    # partition of pivot a1 mines both (a1, a1) and, e.g., (A, a1)
    patterns = {(a1, a1): 2, (A, a1): 2, (a1, A): 2}
    survivors = prune_locally(patterns, vocabulary, "closed")
    # (A, a1) specializes one step to (a1, a1) with equal frequency: pruned.
    assert (A, a1) not in survivors
    assert (a1, A) not in survivors
    assert (a1, a1) in survivors


def test_prune_locally_rejects_bad_mode(fig1_vocabulary):
    with pytest.raises(InvalidParameterError):
        prune_locally({}, fig1_vocabulary, "open")


# ----------------------------------------------------------------------
# cross-pivot cover emission
# ----------------------------------------------------------------------


def test_cross_pivot_covers_only_smaller_pivots(fig1_database, fig1_hierarchy):
    params = MiningParams(2, 1, 3)
    mined, vocabulary, pivot = _pivot_partition_output(
        fig1_database, fig1_hierarchy, params, "c"
    )
    for covered, frequency in cross_pivot_covers(mined, vocabulary, pivot):
        assert max(covered) < pivot
        assert frequency >= params.sigma


def test_cross_pivot_covers_drop_and_generalize():
    """Hand-checked cover set for one pattern."""
    from repro.hierarchy import Hierarchy, build_vocabulary
    from repro.sequence import SequenceDatabase

    h = Hierarchy()
    h.add_item("A")
    h.add_item("a1", "A")
    h.add_item("x")
    db = SequenceDatabase([["x", "a1"], ["x", "A"], ["x"]])
    vocabulary = build_vocabulary(db, h)
    x, A, a1 = vocabulary.id("x"), vocabulary.id("A"), vocabulary.id("a1")
    assert a1 > x and a1 > A  # a1 is the largest item (least frequent)
    patterns = {(x, a1): 1}
    covers = set(cross_pivot_covers(patterns, vocabulary, a1))
    # drops leave the universe (length 1); generalizing a1 -> A lowers the
    # pivot to max(x, A).
    assert covers == {((x, A), 1)}


def test_cover_emission_includes_pruned_patterns():
    """Covers are emitted for *all* mined patterns, not only survivors —
    otherwise a pattern pruned in its own partition could stop witnessing
    a smaller-pivot pattern."""
    from repro.hierarchy import Hierarchy, build_vocabulary
    from repro.sequence import SequenceDatabase

    h = Hierarchy()
    h.add_item("x")
    h.add_item("y")
    db = SequenceDatabase([["x", "x", "y", "y"]] * 3 + [["x"]])
    vocabulary = build_vocabulary(db, h)
    x, y = vocabulary.id("x"), vocabulary.id("y")
    assert x < y
    # partition of pivot y: (x,x,y) is pruned (witnessed by its append
    # extension (x,x,y,y)) but is itself the only witness of (x,x), which
    # lives in partition x.
    mined = {(x, x, y): 3, (x, x, y, y): 3}
    survivors = prune_locally(mined, vocabulary, "maximal")
    assert set(survivors) == {(x, x, y, y)}
    covered_by_all = set(cross_pivot_covers(mined, vocabulary, y))
    covered_by_survivors = set(
        cross_pivot_covers(survivors, vocabulary, y)
    )
    assert ((x, x), 3) in covered_by_all
    assert covered_by_survivors < covered_by_all


# ----------------------------------------------------------------------
# reconciliation job
# ----------------------------------------------------------------------


def _run_reconcile(records, mode):
    engine = MapReduceEngine(num_map_tasks=2, num_reduce_tasks=2)
    return dict(engine.run(ReconcileJob(mode), records).output)


def test_reconcile_maximal_drops_covered():
    records = [
        ((1, 2), (_CAND, 5)),
        ((1, 2), (_COVER, 3)),
        ((2, 2), (_CAND, 4)),
    ]
    assert _run_reconcile(records, "maximal") == {(2, 2): 4}


def test_reconcile_closed_keeps_strictly_higher():
    records = [
        ((1, 2), (_CAND, 5)),
        ((1, 2), (_COVER, 3)),  # strictly lower: closed
        ((2, 2), (_CAND, 4)),
        ((2, 2), (_COVER, 4)),  # equal: not closed
    ]
    assert _run_reconcile(records, "closed") == {(1, 2): 5}


def test_reconcile_cover_without_candidate_is_dropped():
    records = [((9, 9), (_COVER, 7))]
    assert _run_reconcile(records, "closed") == {}


def test_reconcile_combiner_reduces_cover_traffic():
    """The combiner folds covers to their maximum without changing the
    answer."""
    records = [((1, 2), (_COVER, f)) for f in (1, 2, 3)] + [
        ((1, 2), (_CAND, 3))
    ]
    # equal max cover -> not closed, covered -> not maximal
    assert _run_reconcile(records, "closed") == {}
    assert _run_reconcile(records, "maximal") == {}
    records[-1] = ((1, 2), (_CAND, 9))
    assert _run_reconcile(records, "closed") == {(1, 2): 9}


# ----------------------------------------------------------------------
# driver-level details
# ----------------------------------------------------------------------


def test_invalid_mode_rejected():
    with pytest.raises(InvalidParameterError):
        ClosedLash(MiningParams(2, 1, 3), mode="semi-closed")
    with pytest.raises(InvalidParameterError):
        ClosedLash(MiningParams(1, 0, 5), mode="")


def test_result_metadata(fig1_database, fig1_hierarchy):
    result = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    assert result.algorithm == "closed-lash[closed,psm]"
    assert result.reconcile_job is not None
    assert result.mining_job is not None
    # merged metrics include all three jobs' task times
    merged = result.total_metrics()
    assert len(merged.map_task_s) >= len(result.metrics.map_task_s)


def test_reconcile_shuffle_smaller_than_mining_shuffle(
    fig1_database, fig1_hierarchy
):
    """The reconciliation job ships candidates+covers, which is far less
    than the rewritten-sequence shuffle of the mining job."""
    result = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    from repro.mapreduce.counters import C

    mining_bytes = result.mining_job.counters[C.SHUFFLE_BYTES]
    reconcile_bytes = result.reconcile_job.counters[C.SHUFFLE_BYTES]
    assert 0 < reconcile_bytes < mining_bytes


@pytest.mark.parametrize("local_miner", ["psm", "bfs", "dfs", "brute"])
def test_any_local_miner(fig1_database, fig1_hierarchy, local_miner):
    direct = ClosedLash(
        MiningParams(2, 1, 3), mode="maximal", local_miner=local_miner
    ).mine(fig1_database, fig1_hierarchy)
    assert direct.patterns == reference(
        fig1_database, fig1_hierarchy, 2, 1, 3, "maximal"
    )
