"""The position-mask PSM kernel against the seed miner it replaced.

``tests/core/psm_reference.py`` is the miner as it stood before the kernel:
``(start, end)`` pair sets, one scan that counts and projects at once.  The
kernel must reproduce it to the byte — the output dict *and its insertion
order*, ``stats.candidates`` and ``stats.outputs`` — under every index mode,
on partitions the Sec. 4 rewrites have not cleaned up (items above the
pivot, blanks, weights), however the partition dict was built.
"""

import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Hierarchy, SequenceDatabase
from repro.constants import BLANK
from repro.core import MiningParams, PivotSequenceMiner
from repro.core.partition import build_partitions, merge_weighted
from repro.core.psm import mine_partitions
from repro.datasets import ProductDataConfig, generate_product_data
from repro.hierarchy import build_vocabulary
from repro.miners import BruteForceMiner
from repro.sequence.encoding import decode_sequence, encode_sequence
from tests.core.psm_reference import ReferencePivotSequenceMiner
from tests.mapreduce.test_golden_counters import _text300
from tests.property.strategies import (
    dag_hierarchies,
    databases_over,
    forest_hierarchies,
)

INDEX_MODES = ("exact", "level", "none")


@st.composite
def raw_partitions(draw):
    """``(vocabulary, params, [(sequence, weight)])`` — encoded input
    sequences as they are, some items blanked, each with a weight."""
    hierarchy = draw(st.one_of(forest_hierarchies(), dag_hierarchies()))
    database = draw(databases_over(hierarchy))
    vocabulary = build_vocabulary(database, hierarchy)
    weighted = [
        (
            tuple(
                BLANK if draw(st.integers(0, 5)) == 0 else item
                for item in vocabulary.encode_sequence(sequence)
            ),
            draw(st.integers(1, 3)),
        )
        for sequence in database
    ]
    params = MiningParams(
        sigma=draw(st.integers(1, 3)),
        gamma=draw(st.sampled_from([0, 1, 2, None])),
        lam=draw(st.integers(2, 6)),
    )
    return vocabulary, params, weighted


def _as_dict(weighted):
    merged = {}
    for sequence, weight in weighted:
        merged[sequence] = merged.get(sequence, 0) + weight
    return merged


def _through_the_wire(weighted):
    """What the mining job's reduce hands the miner: the pairs merged on
    their encoded bytes, each distinct sequence decoded once."""
    merged = merge_weighted(
        (encode_sequence(sequence), weight) for sequence, weight in weighted
    )
    return {decode_sequence(data)[0]: weight for data, weight in merged.items()}


#: three ways to build the ``{sequence: weight}`` dict ``mine_partition``
#: takes: merged tuples, the wire round trip, and unit weights
SHAPES = {
    "dict": _as_dict,
    "pairs": _through_the_wire,
    "bare": lambda weighted: _as_dict((seq, 1) for seq, _ in weighted),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=120, deadline=None)
@given(case=raw_partitions())
def test_kernel_equals_the_seed_miner(shape, case):
    vocabulary, params, weighted = case
    partition = SHAPES[shape](weighted)
    brute = BruteForceMiner(vocabulary, params)
    for pivot in range(len(vocabulary)):
        for index_mode in INDEX_MODES:
            kernel = PivotSequenceMiner(vocabulary, params, index_mode)
            reference = ReferencePivotSequenceMiner(
                vocabulary, params, index_mode
            )
            mined = kernel.mine_partition(partition, pivot)
            expected = reference.mine_partition(partition, pivot)
            assert list(mined.items()) == list(expected.items())
            assert kernel.stats == reference.stats
        assert mined == brute.mine_partition(partition, pivot)


def _products():
    data = generate_product_data(
        ProductDataConfig(num_users=400, num_products=150, seed=22)
    )
    return MiningParams(4, 1, 5), data.database, data.hierarchy(8)


#: inputs -> partitions, then per index mode (candidates, outputs), as the
#: seed miner explored them
EXPLORATION_GOLDEN = {
    "products": (
        _products,
        230,
        {"exact": (50696, 8572), "level": (52655, 8572), "none": (72033, 8572)},
    ),
    "text300": (
        _text300,
        80,
        {"exact": (1621, 453), "level": (1621, 453), "none": (1841, 453)},
    ),
}


@pytest.mark.parametrize("case", sorted(EXPLORATION_GOLDEN))
def test_exploration_counts_are_the_seed_miners(case):
    make, num_partitions, golden = EXPLORATION_GOLDEN[case]
    params, database, hierarchy = make()
    vocabulary = build_vocabulary(database, hierarchy)
    partitions = build_partitions(
        vocabulary,
        [vocabulary.encode_sequence(sequence) for sequence in database],
        params,
    )
    assert len(partitions) == num_partitions
    mined = {}
    for index_mode in INDEX_MODES:
        miner = PivotSequenceMiner(vocabulary, params, index_mode)
        mined[index_mode] = mine_partitions(miner, partitions)
        assert (miner.stats.candidates, miner.stats.outputs) == golden[
            index_mode
        ]
    assert mined["exact"] == mined["level"] == mined["none"]


def test_unbounded_gap_costs_the_sequence_not_its_square():
    """With γ=None every later position is in reach of every embedding: a
    miner that carries ``(start, end)`` pairs holds, and rescans, a
    quadratic number of them per long sequence (9.6 s here for the seed
    miner).  One end mask per sequence makes the same search linear."""
    rng = random.Random(600)
    hierarchy = Hierarchy()
    categories = [f"c{k}" for k in range(40)]
    for category in categories:
        hierarchy.add_item(category)
    products = [f"p{k}" for k in range(960)]
    for k, product in enumerate(products):
        hierarchy.add_item(product, categories[k % 40])
    database = SequenceDatabase(
        [[rng.choice(products) for _ in range(600)] for _ in range(10)]
    )
    vocabulary = build_vocabulary(database, hierarchy)
    partition = {vocabulary.encode_sequence(seq): 1 for seq in database}
    miner = PivotSequenceMiner(vocabulary, MiningParams(2, None, 3))

    start = time.perf_counter()
    # the least frequent category (every category is relevant), two products
    mined = [miner.mine_partition(partition, pivot) for pivot in (39, 45, 60)]
    elapsed = time.perf_counter() - start

    assert [len(patterns) for patterns in mined] == [4760, 6188, 10040]
    assert (miner.stats.candidates, miner.stats.outputs) == (21730, 20988)
    assert elapsed < 2.0


class TestStatelessMiner:
    """Everything a ``mine_partition`` call builds dies with the call."""

    PARAMS = MiningParams(sigma=2, gamma=1, lam=4)

    @pytest.fixture
    def partitions(self, fig1_vocabulary, fig1_database):
        vocabulary = fig1_vocabulary
        return build_partitions(
            vocabulary,
            [vocabulary.encode_sequence(seq) for seq in fig1_database],
            self.PARAMS,
        )

    @pytest.mark.parametrize("index_mode", INDEX_MODES)
    def test_a_call_leaves_nothing_on_the_miner(
        self, fig1_vocabulary, partitions, index_mode
    ):
        miner = PivotSequenceMiner(fig1_vocabulary, self.PARAMS, index_mode)
        attributes = {"vocabulary", "params", "stats", "index_mode"}
        assert set(vars(miner)) == attributes
        mined = mine_partitions(miner, partitions)
        assert mined
        assert set(vars(miner)) == attributes
        # what the process-parallel engine does with a job's miner
        clone = pickle.loads(pickle.dumps(miner))
        assert clone.stats == miner.stats
        assert mine_partitions(clone, partitions) == mined

    @pytest.mark.parametrize("index_mode", INDEX_MODES)
    def test_alternating_partitions_equal_fresh_miners(
        self, fig1_vocabulary, partitions, index_mode
    ):
        first, second = sorted(partitions)[-2:]
        shared = PivotSequenceMiner(fig1_vocabulary, self.PARAMS, index_mode)
        for _ in range(2):
            for pivot in (first, second):
                fresh = PivotSequenceMiner(
                    fig1_vocabulary, self.PARAMS, index_mode
                )
                expected = fresh.mine_partition(partitions[pivot], pivot)
                assert expected
                before = shared.stats.candidates
                got = shared.mine_partition(partitions[pivot], pivot)
                assert list(got.items()) == list(expected.items())
                assert (
                    shared.stats.candidates - before == fresh.stats.candidates
                )
