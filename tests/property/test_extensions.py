"""Property tests for the in-memory pattern index's query surface."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Lash, MiningParams, PatternIndex
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
