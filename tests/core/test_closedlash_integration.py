"""Integration: ClosedLash with failure injection, rewrite ablations and
datasets beyond the running example."""

from __future__ import annotations

from repro import ClosedLash, MiningParams, mine
from repro.analysis import filter_result
from repro.core import NO_REWRITE
from repro.mapreduce import FailurePlan


def reference(database, hierarchy, params, mode):
    full = mine(
        database, hierarchy,
        sigma=params.sigma, gamma=params.gamma, lam=params.lam,
    )
    return filter_result(full, mode).patterns


def test_closedlash_under_failures(fig1_database, fig1_hierarchy):
    params = MiningParams(2, 1, 3)
    plan = FailurePlan(probability=0.3, seed=11, max_attempts=10)
    clean = ClosedLash(params, mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    failing = ClosedLash(params, mode="closed", failure_plan=plan).mine(
        fig1_database, fig1_hierarchy
    )
    assert failing.patterns == clean.patterns


def test_closedlash_without_rewrites(fig1_database, fig1_hierarchy):
    """Correctness does not depend on the Sec. 4 rewrites."""
    params = MiningParams(2, 1, 3)
    result = ClosedLash(params, mode="maximal", rewrite_plan=NO_REWRITE).mine(
        fig1_database, fig1_hierarchy
    )
    assert result.patterns == reference(
        fig1_database, fig1_hierarchy, params, "maximal"
    )


def test_closedlash_on_product_data():
    from repro.datasets import ProductDataConfig, generate_product_data

    data = generate_product_data(
        ProductDataConfig(num_users=200, num_products=60, seed=5)
    )
    params = MiningParams(10, 1, 3)
    hierarchy = data.hierarchy(4)
    for mode in ("closed", "maximal"):
        result = ClosedLash(params, mode=mode).mine(data.database, hierarchy)
        assert result.patterns == reference(
            data.database, hierarchy, params, mode
        )


def test_closedlash_on_text_data():
    from repro.datasets import TextCorpusConfig, generate_text_corpus

    corpus = generate_text_corpus(
        TextCorpusConfig(num_sentences=300, seed=9)
    )
    params = MiningParams(8, 0, 3)
    hierarchy = corpus.hierarchy("CLP")
    result = ClosedLash(params, mode="closed").mine(
        corpus.database, hierarchy
    )
    expected = reference(corpus.database, hierarchy, params, "closed")
    assert result.patterns == expected
    assert len(result.patterns) > 0


def test_closed_preserves_top_pattern(fig1_database, fig1_hierarchy):
    """The most frequent pattern is always closed (nothing in the output
    can match its frequency as a supersequence unless equal — and then it
    would itself be pruned, not the top)."""
    full = mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)
    top_frequency = max(full.patterns.values())
    closed = ClosedLash(MiningParams(2, 1, 3), mode="closed").mine(
        fig1_database, fig1_hierarchy
    )
    assert max(closed.patterns.values()) == top_frequency
