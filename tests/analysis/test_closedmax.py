"""The closed/maximal filter (neighbor lemma, ``filter_result``) against the
pairwise definition (``closed_patterns`` / ``maximal_patterns``)."""

import pytest
from hypothesis import given, settings

from repro import Lash, MiningParams, ReproError, mine
from repro.analysis import (
    closed_patterns,
    filter_result,
    maximal_patterns,
    output_statistics,
)
from tests.property.strategies import dag_hierarchies, mining_instances


def kept(result, mode):
    return set(filter_result(result, mode).patterns)


@pytest.fixture
def paper_result(fig1_database, fig1_hierarchy):
    return mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)


class TestNeighborLemmaOnPaperExample:
    def test_agrees_with_bruteforce_closed(self, paper_result):
        fast = kept(paper_result, "closed")
        brute = closed_patterns(paper_result.vocabulary, paper_result.patterns)
        assert fast == brute

    def test_agrees_with_bruteforce_maximal(self, paper_result):
        fast = kept(paper_result, "maximal")
        brute = maximal_patterns(
            paper_result.vocabulary, paper_result.patterns
        )
        assert fast == brute

    def test_ab1_not_closed(self, paper_result):
        """f(aB)=3 but f(ab1)=2: aB is closed, Ba (f=2) vs b1a (f=2) is not."""
        V = paper_result.vocabulary
        closed = kept(paper_result, "closed")
        # aB has frequency 3; its specialization ab1 has frequency 2 — so the
        # specialization does not kill aB, but aBc (f=2) ≠ 3 either: check
        # that aB survives while BD (f=2, with specialization b1D also f=2)
        # does not.
        assert V.encode_sequence(["a", "B"]) in closed
        assert V.encode_sequence(["B", "D"]) not in closed
        assert V.encode_sequence(["b1", "D"]) in closed

    def test_maximal_subset_of_closed(self, paper_result):
        assert kept(paper_result, "maximal") <= kept(paper_result, "closed")


class TestFilterResult:
    def test_closed_filter(self, paper_result):
        filtered = filter_result(paper_result, "closed")
        assert set(filtered.patterns) == closed_patterns(
            paper_result.vocabulary, paper_result.patterns
        )
        assert filtered.algorithm.endswith("+closed")

    def test_maximal_filter(self, paper_result):
        filtered = filter_result(paper_result, "maximal")
        assert set(filtered.patterns) == maximal_patterns(
            paper_result.vocabulary, paper_result.patterns
        )

    def test_invalid_mode_rejected(self, paper_result):
        with pytest.raises(ValueError):
            filter_result(paper_result, "open")

    def test_invalid_mode_is_a_repro_error(self, paper_result):
        """The filter and ``ClosedLash`` share one typed mode check."""
        with pytest.raises(ReproError, match="mode must be one of"):
            filter_result(paper_result, "open")

    def test_frequencies_preserved(self, paper_result):
        filtered = filter_result(paper_result, "closed")
        for pattern, freq in filtered.patterns.items():
            assert paper_result.patterns[pattern] == freq


class TestOutputStatisticsMethods:
    def test_fast_and_pairwise_agree(self, paper_result):
        V, patterns = paper_result.vocabulary, paper_result.patterns
        stats = output_statistics(V, patterns)
        assert stats.closed == len(closed_patterns(V, patterns))
        assert stats.maximal == len(maximal_patterns(V, patterns))


@settings(max_examples=30, deadline=None)
@given(mining_instances())
def test_fast_matches_bruteforce_on_random_instances(instance):
    """The neighbor-lemma filter must agree with the pairwise definition."""
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    result = Lash(params).mine(database, hierarchy)
    V, patterns = result.vocabulary, result.patterns
    assert kept(result, "closed") == closed_patterns(V, patterns)
    assert kept(result, "maximal") == maximal_patterns(V, patterns)


@settings(max_examples=15, deadline=None)
@given(mining_instances(hierarchy_strategy=dag_hierarchies()))
def test_fast_matches_bruteforce_on_dags(instance):
    hierarchy, database, sigma, gamma, lam = instance
    params = MiningParams(sigma, gamma, lam)
    result = Lash(params).mine(database, hierarchy)
    V, patterns = result.vocabulary, result.patterns
    assert kept(result, "closed") == closed_patterns(V, patterns)
    assert kept(result, "maximal") == maximal_patterns(V, patterns)
