"""Differential test: the fused kernel ``pivot_rewrites``
against the stage functions of Sec. 4 composed one after the other."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BLANK
from repro.core import MiningParams, RewritePlan, frequent_pivots
from repro.core.rewrite import (
    _is_pivot_pos,
    blank_isolated_pivots,
    blank_unreachable,
    compress_blanks,
    pivot_distances,
    pivot_rewrites,
    rewrite_for_pivot,
    w_generalize,
)
from repro.hierarchy import build_vocabulary
from tests.property.strategies import (
    dag_hierarchies,
    databases_over,
    forest_hierarchies,
)

ALL_PLANS = [
    RewritePlan(*flags) for flags in product((False, True), repeat=4)
]


def staged_rewrite(vocabulary, sequence, pivot, params, plan):
    """``T → P_w(T)`` as the executable statement of Sec. 4: one stage
    function per step, each on the previous one's output."""
    seq = sequence
    if plan.generalize:
        seq = w_generalize(vocabulary, seq, pivot)
    if plan.isolated:
        seq = blank_isolated_pivots(vocabulary, seq, pivot, params.gamma)
    if plan.unreachable:
        distances = pivot_distances(vocabulary, seq, pivot, params.gamma)
        seq = blank_unreachable(seq, distances, params.lam)
    result = (
        compress_blanks(seq, params.gamma) if plan.compress else tuple(seq)
    )
    if sum(1 for item in result if item != BLANK) < 2:
        return None
    if not any(_is_pivot_pos(vocabulary, item, pivot) for item in result):
        return None
    return result


def staged_emissions(vocabulary, sequence, params, plan):
    out = []
    for pivot in frequent_pivots(vocabulary, sequence, params.sigma):
        rewritten = staged_rewrite(vocabulary, sequence, pivot, params, plan)
        if rewritten is not None:
            out.append((pivot, rewritten))
    return out


@st.composite
def rewrite_cases(draw):
    hierarchy = draw(st.one_of(forest_hierarchies(), dag_hierarchies()))
    database = draw(databases_over(hierarchy, max_length=9))
    vocabulary = build_vocabulary(database, hierarchy)
    sequences = []
    for names in database:
        encoded = list(vocabulary.encode_sequence(names))
        # inputs that already carry blanks, as a rewritten sequence does
        for i in range(len(encoded)):
            if draw(st.integers(0, 5)) == 0:
                encoded[i] = BLANK
        sequences.append(tuple(encoded))
    params = MiningParams(
        draw(st.integers(1, 3)),
        draw(st.sampled_from([0, 1, 2, None])),
        draw(st.integers(2, 5)),
    )
    return vocabulary, sequences, params


@settings(max_examples=150, deadline=None)
@given(rewrite_cases())
def test_kernel_equals_composed_stages(case):
    vocabulary, sequences, params = case
    for plan in ALL_PLANS:
        for sequence in sequences:
            expected = staged_emissions(vocabulary, sequence, params, plan)
            got = list(pivot_rewrites(vocabulary, sequence, params, plan))
            assert got == expected, (plan.describe(), sequence, params)


@settings(max_examples=60, deadline=None)
@given(rewrite_cases())
def test_single_pivot_entry_is_the_same_kernel(case):
    """``rewrite_for_pivot`` answers for any item of the vocabulary,
    frequent or not, in ``G1(T)`` or not."""
    vocabulary, sequences, params = case
    for plan in ALL_PLANS:
        for sequence in sequences:
            for pivot in range(len(vocabulary)):
                assert rewrite_for_pivot(
                    vocabulary, sequence, pivot, params, plan
                ) == staged_rewrite(vocabulary, sequence, pivot, params, plan)
