"""Property tests for the extension modules (query, interestingness,
direct closed mining helpers)."""

from __future__ import annotations

from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Lash, MiningParams, PatternIndex
from repro.analysis.interestingness import (
    lift_scores,
    r_interest_scores,
    r_interesting_patterns,
)
from repro.query.tokens import (
    AnyToken,
    ItemToken,
    PlusToken,
    SpanToken,
    UnderToken,
)
from tests.property.strategies import mining_instances

SETTINGS = settings(max_examples=30, deadline=None)


def _mined_index(instance):
    hierarchy, database, sigma, gamma, lam = instance
    result = Lash(MiningParams(sigma, gamma, lam)).mine(database, hierarchy)
    return result, PatternIndex.from_result(result)


@st.composite
def queries_over(draw, names: list[str], max_tokens: int = 4):
    n = draw(st.integers(1, max_tokens))
    tokens = []
    for _ in range(n):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            tokens.append(ItemToken(draw(st.sampled_from(names))))
        elif kind == 1:
            tokens.append(UnderToken(draw(st.sampled_from(names))))
        elif kind == 2:
            tokens.append(AnyToken())
        elif kind == 3:
            tokens.append(PlusToken())
        else:
            tokens.append(SpanToken())
    return tuple(tokens)


def _reference_match(tokens, pattern, vocabulary):
    if not tokens:
        return not pattern
    head, rest = tokens[0], tokens[1:]
    if isinstance(head, SpanToken):
        return any(
            _reference_match(rest, pattern[k:], vocabulary)
            for k in range(len(pattern) + 1)
        )
    if isinstance(head, PlusToken):
        return any(
            _reference_match(rest, pattern[k:], vocabulary)
            for k in range(1, len(pattern) + 1)
        )
    if not pattern:
        return False
    item = pattern[0]
    if isinstance(head, AnyToken):
        ok = True
    elif isinstance(head, ItemToken):
        ok = item == vocabulary.id(head.name)
    else:
        ok = vocabulary.generalizes_to(item, vocabulary.id(head.name))
    return ok and _reference_match(rest, pattern[1:], vocabulary)


@SETTINGS
@given(st.data(), mining_instances())
def test_index_search_matches_reference(data, instance):
    """The DP matcher + postings pruning equals brute-force matching."""
    result, index = _mined_index(instance)
    names = [
        result.vocabulary.name(i) for i in range(len(result.vocabulary))
    ]
    tokens = data.draw(queries_over(names))
    expected = {
        pattern
        for pattern in result.patterns
        if _reference_match(tokens, pattern, result.vocabulary)
    }
    got = {
        result.vocabulary.encode_sequence(m.pattern)
        for m in index.search(tokens)
    }
    assert got == expected


@SETTINGS
@given(mining_instances())
def test_index_star_matches_everything(instance):
    result, index = _mined_index(instance)
    assert len(index.search(SpanToken())) == len(result.patterns)


@SETTINGS
@given(mining_instances())
def test_generalizations_specializations_are_inverse(instance):
    """P ∈ specializations(S) ⟺ S ∈ generalizations(P) over the output."""
    result, index = _mined_index(instance)
    decoded = list(result.decoded())
    for names in decoded[:10]:
        for match in index.specializations_of(names):
            back = {
                m.pattern for m in index.generalizations_of(match.pattern)
            }
            assert names in back


@SETTINGS
@given(mining_instances())
def test_r_interest_scores_are_positive(instance):
    hierarchy, database, sigma, gamma, lam = instance
    result = Lash(MiningParams(sigma, gamma, lam)).mine(database, hierarchy)
    scores = r_interest_scores(result.patterns, result.vocabulary)
    assert set(scores) == set(result.patterns)
    assert all(s > 0 for s in scores.values())


@SETTINGS
@given(mining_instances())
def test_r_interesting_monotone_in_r(instance):
    """Raising R can only shrink the interesting set; R→0 keeps all."""
    hierarchy, database, sigma, gamma, lam = instance
    result = Lash(MiningParams(sigma, gamma, lam)).mine(database, hierarchy)
    previous = set(result.patterns)
    for r in (1e-9, 0.5, 1.0, 2.0, 10.0):
        kept = set(
            r_interesting_patterns(result.patterns, result.vocabulary, r)
        )
        assert kept <= previous
        previous = kept
    assert set(
        r_interesting_patterns(result.patterns, result.vocabulary, 1e-9)
    ) == set(result.patterns)


@SETTINGS
@given(mining_instances())
def test_flat_vocabulary_scores_all_inf(instance):
    """Without hierarchy edges no pattern has a generalization: every
    R-interest score is ∞ and every pattern is R-interesting."""
    _, database, sigma, gamma, lam = instance
    result = Lash(MiningParams(sigma, gamma, lam)).mine(database)
    scores = r_interest_scores(result.patterns, result.vocabulary)
    assert all(s == inf for s in scores.values())


@SETTINGS
@given(mining_instances(), st.integers(1, 100))
def test_lift_scale(instance, num_sequences):
    """Lift is linear in the assumed database size for 2-item patterns:
    doubling N doubles the independence-expected denominator once per
    extra item beyond the first."""
    hierarchy, database, sigma, gamma, lam = instance
    result = Lash(MiningParams(sigma, gamma, lam)).mine(database, hierarchy)
    if not result.patterns:
        return
    base = lift_scores(result.patterns, result.vocabulary, num_sequences)
    doubled = lift_scores(
        result.patterns, result.vocabulary, 2 * num_sequences
    )
    for pattern, score in base.items():
        factor = 2 ** (len(pattern) - 1)
        assert abs(doubled[pattern] - factor * score) <= 1e-9 * max(
            1.0, abs(score)
        )


@SETTINGS
@given(mining_instances(), st.integers(1, 12))
def test_top_k_equals_full_output_head(instance, k):
    """mine_top_k returns exactly the deterministic k-head of a σ=1 run."""
    from repro import mine_top_k

    hierarchy, database, _, gamma, lam = instance
    full = Lash(MiningParams(1, gamma, lam)).mine(database, hierarchy)
    result = mine_top_k(database, hierarchy, k=k, gamma=gamma, lam=lam)
    ranked = sorted(
        full.patterns.items(),
        key=lambda kv: (-kv[1], full.vocabulary.decode_sequence(kv[0])),
    )
    expected = dict(ranked[:k])
    got = {
        full.vocabulary.decode_sequence(p): f
        for p, f in result.patterns.items()
    }
    assert got == {
        full.vocabulary.decode_sequence(p): f for p, f in expected.items()
    }
