"""The paper's evaluation claims (Tables 1–3, Figures 4–6, Sec. 5.2) as
exact checks.

Every claim is read off a quantity the system computes deterministically:
pattern counts, ``MAP_OUTPUT_BYTES`` and ``SHUFFLE_BYTES``, the candidates
a local miner evaluated, dataset and hierarchy statistics, store bytes.
Where the paper states a claim in seconds, the work counter behind the
seconds stands in for it: "LASH beats naïve" is read off the bytes the map
phase emits and shuffles, "PSM beats DFS" off evaluated candidates, map
time off map output bytes and reduce time off candidates.  Wall time
belongs to ``benchmarks/suite``.

The corpora are the synthetic stand-ins for NYT and AMZN (README "Tests
and benchmarks" explains the substitution), small and fixed-seed and
built once per module; σ and λ are scaled to their size.  Claims already
held by a test elsewhere (the algorithms' agreement on random instances
in ``tests/property/test_agreement.py``, the Eq. (4) search-space
numbers in ``tests/core/test_psm.py``, a two-store merge against a
rebuild in ``tests/serve/test_sharded.py``) are not repeated here.
"""

from __future__ import annotations

import pytest

from repro import (
    BfsMiner,
    DfsMiner,
    GspAlgorithm,
    Lash,
    MgFsm,
    MiningParams,
    NaiveAlgorithm,
    PatternIndex,
    PivotSequenceMiner,
    SemiNaiveAlgorithm,
    SpamMiner,
)
from repro.analysis import (
    output_statistics,
    psm_explored_fraction,
    recode_patterns,
)
from repro.analysis import filter_result
from repro.core import RewritePlan, build_partitions
from repro.core.closedlash import _CAND, ClosedLash
from repro.core.lash import PartitionMineJob
from repro.core.psm import mine_partitions
from repro.datasets import (
    ProductDataConfig,
    TextCorpusConfig,
    generate_product_data,
    generate_text_corpus,
    hierarchy_stats,
)
from repro.mapreduce import C, FailurePlan, MapReduceEngine
from repro.sequence import SequenceDatabase
from repro.serve import merge_stores, open_store

NYT_SENTENCES = 300
#: lemma roots grow with the corpus, so Table 2's hierarchies come from a
#: larger one, where they outnumber POS roots by the contrast's 50x
#: (a hierarchy is cheap to build, mining over it is not)
TABLE2_SENTENCES = 600
#: the paper's NYT σ=1000 / σ=100, scaled to the corpus
SIGMA_HIGH = 6
SIGMA_LOW = 2
AMZN_USERS = 300
AMZN_PRODUCTS = 100
AMZN_SIGMA = 6


@pytest.fixture(scope="module")
def nyt():
    return generate_text_corpus(
        TextCorpusConfig(num_sentences=NYT_SENTENCES, seed=42)
    )


@pytest.fixture(scope="module")
def amzn():
    return generate_product_data(
        ProductDataConfig(
            num_users=AMZN_USERS, num_products=AMZN_PRODUCTS, seed=29
        )
    )


def run_cache(database, hierarchy_of):
    """``(hierarchy, σ, γ, λ) -> MiningResult`` of LASH over
    ``database``, each run mined once and each hierarchy's f-list job
    run once (the vocabulary does not depend on σ, γ or λ)."""
    vocabularies, runs = {}, {}

    def run(hierarchy, sigma, gamma, lam):
        key = (hierarchy, sigma, gamma, lam)
        if key not in runs:
            lash = Lash(MiningParams(sigma, gamma, lam))
            if hierarchy not in vocabularies:
                vocabularies[hierarchy], _ = lash.preprocess(
                    database, hierarchy_of(hierarchy)
                )
            runs[key] = lash.mine(
                database, vocabulary=vocabularies[hierarchy]
            )
        return runs[key]

    return run


@pytest.fixture(scope="module")
def lash_nyt(nyt):
    """LASH runs on the NYT stand-in, by hierarchy variant."""
    return run_cache(nyt.database, nyt.hierarchy)


@pytest.fixture(scope="module")
def lash_amzn(amzn):
    """LASH runs on the AMZN stand-in, by hierarchy levels."""
    return run_cache(amzn.database, amzn.hierarchy)


@pytest.fixture(scope="module")
def clp(lash_nyt):
    """The NYT-CLP run the ablations start from."""
    return lash_nyt("CLP", SIGMA_LOW, 0, 4)


def candidates(result) -> int:
    return result.local_stats.candidates


def map_bytes(result) -> int:
    return result.counters[C.MAP_OUTPUT_BYTES]


def shuffle_bytes(result) -> int:
    return result.counters[C.SHUFFLE_BYTES]


# ----------------------------------------------------------------------
# Tables 1 and 2: the datasets and hierarchies
# ----------------------------------------------------------------------


class TestTable1Datasets:
    def test_sentences_are_longer_than_sessions(self, nyt, amzn):
        text, sessions = nyt.database.stats(), amzn.database.stats()
        assert text.num_sequences == NYT_SENTENCES
        assert sessions.num_sequences == AMZN_USERS
        assert text.avg_length > sessions.avg_length

    def test_sessions_have_a_long_tail(self, amzn):
        sessions = amzn.database.stats()
        assert sessions.max_length > 3 * sessions.avg_length


class TestTable2Hierarchies:
    @pytest.fixture(scope="class")
    def text(self):
        corpus = generate_text_corpus(
            TextCorpusConfig(num_sentences=TABLE2_SENTENCES, seed=42)
        )
        return {
            variant: hierarchy_stats(corpus.hierarchy(variant))
            for variant in ("L", "P", "LP", "CLP")
        }

    @pytest.fixture(scope="class")
    def products(self, amzn):
        return {
            levels: hierarchy_stats(amzn.hierarchy(levels))
            for levels in (2, 3, 4, 8)
        }

    def test_lemmas_are_many_roots_pos_few_with_huge_fan_out(self, text):
        assert text["L"].root_items > 50 * text["P"].root_items
        assert text["P"].avg_fan_out > 20 * text["L"].avg_fan_out

    def test_text_levels(self, text):
        assert text["L"].levels == text["P"].levels == 2
        assert text["LP"].levels == 3
        assert text["CLP"].levels == 4
        assert text["CLP"].intermediate_items > text["LP"].intermediate_items

    def test_deeper_product_hierarchies_add_intermediates(self, products):
        inter = [products[k].intermediate_items for k in (2, 3, 4, 8)]
        assert inter[0] == 0
        assert inter == sorted(inter)
        # depth spreads products over subcategories
        assert products[2].avg_fan_out > products[8].avg_fan_out


# ----------------------------------------------------------------------
# Table 3: output statistics
# ----------------------------------------------------------------------


def table3(gsm, flat):
    """Table 3's percentages of ``gsm``, with ``flat`` (the same
    parameters mined without the hierarchy) marking the trivial
    patterns."""
    flat_patterns = recode_patterns(
        flat.patterns, flat.vocabulary, gsm.vocabulary
    )
    return output_statistics(gsm.vocabulary, gsm.patterns, flat_patterns)


class TestTable3OutputStatistics:
    LAM = 3

    @pytest.fixture(scope="class")
    def text(self, nyt, lash_nyt):
        flat = Lash(MiningParams(SIGMA_HIGH, 0, self.LAM)).mine(nyt.database)
        return {
            variant: table3(lash_nyt(variant, SIGMA_HIGH, 0, self.LAM), flat)
            for variant in ("P", "CLP")
        }

    def test_most_text_patterns_need_the_hierarchy(self, text):
        for stats in text.values():
            assert stats.non_trivial_pct > 50

    def test_deeper_hierarchy_means_more_redundancy(self, text):
        assert text["CLP"].closed_pct < text["P"].closed_pct
        assert text["CLP"].maximal_pct < text["P"].maximal_pct

    def test_lower_support_means_more_redundancy(self, amzn, lash_amzn):
        stats = []
        for sigma in (4 * AMZN_SIGMA, AMZN_SIGMA):
            params = MiningParams(sigma, 1, self.LAM)
            flat = Lash(params).mine(amzn.database)
            stats.append(table3(lash_amzn(8, sigma, 1, self.LAM), flat))
        assert stats[0].maximal_pct >= stats[1].maximal_pct


# ----------------------------------------------------------------------
# Figure 4: LASH against the baselines and the local miners
# ----------------------------------------------------------------------


class TestFig4abBaselines:
    """Naïve and semi-naïve emit every (frequent) generalized
    subsequence; LASH emits one rewritten sequence per pivot."""

    SETTINGS = [("P", SIGMA_LOW, 3), ("P", SIGMA_LOW, 4)]

    @pytest.fixture(scope="class")
    def runs(self, nyt, lash_nyt):
        out = {}
        for variant, sigma, lam in self.SETTINGS:
            params = MiningParams(sigma, 0, lam)
            hierarchy = nyt.hierarchy(variant)
            out[(variant, sigma, lam)] = {
                "naive": NaiveAlgorithm(params).mine(nyt.database, hierarchy),
                "semi": SemiNaiveAlgorithm(params).mine(
                    nyt.database, hierarchy
                ),
                "lash": lash_nyt(variant, sigma, 0, lam),
            }
        return out

    def test_all_three_mine_the_same_output(self, runs):
        for setting, row in runs.items():
            expected = row["naive"].decoded()
            assert row["semi"].decoded() == expected, setting
            assert row["lash"].decoded() == expected, setting

    def test_lash_emits_and_shuffles_least(self, runs):
        for setting, row in runs.items():
            for counter in (map_bytes, shuffle_bytes):
                naive, semi, lash = (
                    counter(row[name]) for name in ("naive", "semi", "lash")
                )
                assert lash < semi <= naive, (setting, counter.__name__)

    def test_baselines_blow_up_with_lambda(self, runs):
        short, long = runs[("P", SIGMA_LOW, 3)], runs[("P", SIGMA_LOW, 4)]
        for counter in (map_bytes, shuffle_bytes):
            naive_growth = counter(long["naive"]) / counter(short["naive"])
            lash_growth = counter(long["lash"]) / counter(short["lash"])
            assert naive_growth > lash_growth, counter.__name__
        # so LASH's edge over naïve widens with λ
        assert shuffle_bytes(long["naive"]) / shuffle_bytes(long["lash"]) > (
            shuffle_bytes(short["naive"]) / shuffle_bytes(short["lash"])
        )


class TestFig4cdLocalMiners:
    """The five local miners over the same prebuilt partitions."""

    SETTINGS = [("LP", SIGMA_HIGH, 5)]

    @pytest.fixture(scope="class")
    def runs(self, nyt):
        """``{setting: {miner: (output, stats)}}``"""
        out = {}
        for variant, sigma, lam in self.SETTINGS:
            params = MiningParams(sigma, 0, lam)
            vocabulary, _ = Lash(params).preprocess(
                nyt.database, nyt.hierarchy(variant)
            )
            encoded = [vocabulary.encode_sequence(t) for t in nyt.database]
            partitions = build_partitions(vocabulary, encoded, params)
            row = out[(variant, sigma, lam)] = {}
            for name, miner in [
                ("BFS", BfsMiner(vocabulary, params)),
                ("DFS", DfsMiner(vocabulary, params)),
                ("SPAM", SpamMiner(vocabulary, params)),
                (
                    "PSM",
                    PivotSequenceMiner(vocabulary, params, index_mode="none"),
                ),
                (
                    "PSM+Index",
                    PivotSequenceMiner(vocabulary, params, index_mode="exact"),
                ),
            ]:
                row[name] = (mine_partitions(miner, partitions), miner.stats)
        return out

    def test_every_miner_mines_the_same_output(self, runs):
        for setting, row in runs.items():
            expected = row["PSM"][0]
            assert expected, setting
            for name, (output, _) in row.items():
                assert output == expected, (setting, name)

    def test_psm_evaluates_fewer_candidates_than_bfs_and_dfs(self, runs):
        for setting, row in runs.items():
            psm = row["PSM"][1].candidates
            assert psm < row["BFS"][1].candidates, setting
            assert psm < row["DFS"][1].candidates, setting

    def test_candidates_per_output(self, runs):
        for setting, row in runs.items():
            ratio = {
                name: stats.candidates_per_output()
                for name, (_, stats) in row.items()
            }
            assert ratio["PSM"] < ratio["DFS"], setting
            assert ratio["PSM+Index"] <= ratio["PSM"], setting


class TestFig4eFlatMining:
    """Without hierarchies LASH is MG-FSM with PSM as its local miner."""

    SETTINGS = [(SIGMA_HIGH, 1, 5), (SIGMA_LOW, 1, 5), (SIGMA_LOW, 1, 8)]

    @pytest.fixture(scope="class")
    def runs(self, nyt):
        return [
            (
                MgFsm(MiningParams(*setting)).mine(nyt.database),
                Lash(MiningParams(*setting)).mine(nyt.database),
            )
            for setting in self.SETTINGS
        ]

    def test_same_output_same_shuffle(self, runs):
        for mgfsm, lash in runs:
            assert lash.decoded() == mgfsm.decoded()
            assert shuffle_bytes(lash) == shuffle_bytes(mgfsm)

    def test_psm_is_the_whole_difference(self, runs):
        assert sum(candidates(lash) for _, lash in runs) < sum(
            candidates(mgfsm) for mgfsm, _ in runs
        )


# ----------------------------------------------------------------------
# Figure 5: the effect of σ, γ, λ and the hierarchy (AMZN-h8 unless said)
# ----------------------------------------------------------------------


class TestFig5Parameters:
    def test_5a_higher_support_shrinks_both_phases(self, lash_amzn):
        low, mid, high = (
            lash_amzn(8, sigma, 1, 5)
            for sigma in (AMZN_SIGMA, 2 * AMZN_SIGMA, 4 * AMZN_SIGMA)
        )
        assert candidates(high) < candidates(mid) < candidates(low)
        assert map_bytes(high) < map_bytes(mid) < map_bytes(low)

    def test_5b_gap_grows_reduce_work_not_map_work(self, lash_amzn):
        tight, loose = lash_amzn(8, AMZN_SIGMA, 0, 5), lash_amzn(
            8, AMZN_SIGMA, 3, 5
        )
        assert candidates(loose) > candidates(tight)
        assert candidates(loose) / candidates(tight) > map_bytes(
            loose
        ) / map_bytes(tight)

    def test_5c_length_grows_reduce_work_not_map_work(self, lash_amzn):
        short, long = lash_amzn(8, AMZN_SIGMA, 1, 3), lash_amzn(
            8, AMZN_SIGMA, 1, 7
        )
        assert candidates(long) > candidates(short)
        assert candidates(long) / candidates(short) > map_bytes(
            long
        ) / map_bytes(short)

    def test_5d_output_grows_with_length(self, lash_amzn):
        runs = [lash_amzn(8, AMZN_SIGMA, 1, lam) for lam in (3, 5, 7)]
        counts = [len(result) for result in runs]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]
        assert candidates(runs[-1]) > candidates(runs[0])

    def test_5e_depth_costs_more_with_diminishing_steps(self, lash_amzn):
        runs = {
            levels: lash_amzn(levels, 2 * AMZN_SIGMA, 2, 5)
            for levels in (2, 3, 4, 8)
        }
        for counter in (map_bytes, candidates):
            work = {levels: counter(result) for levels, result in runs.items()}
            assert work[8] > work[2], counter.__name__
            # most products have at most four ancestors (Sec. 6.5)
            assert work[8] - work[4] < work[4] - work[2], counter.__name__

    def test_5f_pos_roots_cost_more_than_lemma_roots(self, lash_nyt):
        runs = {
            variant: lash_nyt(variant, SIGMA_LOW, 0, 4)
            for variant in ("L", "P", "LP", "CLP")
        }
        # same depth, very different cost: few, frequent roots
        assert candidates(runs["P"]) > candidates(runs["L"])
        for variant in ("P", "LP", "CLP"):
            assert map_bytes(runs[variant]) > map_bytes(runs["L"]), variant
            assert candidates(runs[variant]) > candidates(runs["L"]), variant


# ----------------------------------------------------------------------
# Figure 6: data growth (the cluster-placement halves have no counter)
# ----------------------------------------------------------------------


class TestFig6DataGrowth:
    FRACTIONS = (0.25, 0.5, 0.75, 1.0)

    @pytest.fixture(scope="class")
    def runs(self, nyt, clp):
        out = {
            fraction: Lash(clp.params).mine(
                nyt.database.sample(fraction, seed=1), nyt.hierarchy("CLP")
            )
            for fraction in self.FRACTIONS[:-1]
        }
        out[1.0] = clp
        return out

    def test_6a_work_grows_about_linearly_with_data(self, runs):
        series = [shuffle_bytes(runs[f]) for f in self.FRACTIONS]
        assert series == sorted(series)
        assert series[-1] < 10 * series[0]

    def test_6c_output_grows_faster_than_data(self, runs):
        assert len(runs[1.0]) > 2 * len(runs[0.25])


# ----------------------------------------------------------------------
# Ablations and extensions
# ----------------------------------------------------------------------


class TestRewriteAblation:
    """Sec. 4's rewrite stages, added cumulatively, from Eq. (1)'s
    ``P_w(T) = T`` to the full pipeline (NYT-CLP)."""

    PLANS = [
        RewritePlan(False, False, False, False),
        RewritePlan(True, False, False, False),
        RewritePlan(True, True, False, False),
        RewritePlan(True, True, True, False),
    ]

    def test_each_stage_shrinks_the_shuffle(self, nyt, clp):
        runs = [
            Lash(clp.params, rewrite_plan=plan).mine(
                nyt.database, vocabulary=clp.vocabulary
            )
            for plan in self.PLANS
        ] + [clp]
        for result in runs:
            assert result.patterns == clp.patterns
        shuffled = [shuffle_bytes(result) for result in runs]
        assert shuffled == sorted(shuffled, reverse=True)
        assert shuffled[-1] < shuffled[0]


class NoCombinerJob(PartitionMineJob):
    has_combiner = False


def test_combiner_aggregation_shrinks_shuffle_and_reduce_input(nyt, clp):
    """Sec. 4.4: the combiner folds duplicate rewritten sequences."""
    params, vocabulary = clp.params, clp.vocabulary
    encoded = [vocabulary.encode_sequence(t) for t in nyt.database]
    engine = MapReduceEngine(num_map_tasks=8, num_reduce_tasks=8)
    runs = {}
    for label, job_cls in (("on", PartitionMineJob), ("off", NoCombinerJob)):
        miner = Lash(params).miner_factory(vocabulary, params)
        runs[label] = engine.run(job_cls(vocabulary, params, miner), encoded)
    assert dict(runs["on"].output) == dict(runs["off"].output)
    for counter in (C.SHUFFLE_BYTES, C.REDUCE_INPUT_RECORDS):
        assert runs["on"].counters[counter] < runs["off"].counters[counter]


def test_injected_failures_change_bookkeeping_only(nyt, lash_nyt):
    """Sec. 3.1: failed attempts are retried; the answer is unchanged."""
    clean = lash_nyt("LP", SIGMA_HIGH, 0, 3)
    plan = FailurePlan(probability=0.3, seed=13, max_attempts=40)
    failed = Lash(clean.params, failure_plan=plan).mine(
        nyt.database, vocabulary=clean.vocabulary
    )
    assert failed.patterns == clean.patterns
    assert clean.counters[C.FAILED_MAP_TASKS] == 0
    assert clean.counters[C.FAILED_REDUCE_TASKS] == 0
    assert failed.counters[C.FAILED_MAP_TASKS] > 0
    # each failed attempt's work is metered as wasted
    assert len(failed.metrics.failed_map_task_s) == failed.counters[
        C.FAILED_MAP_TASKS
    ]


def test_gsp_shuffles_more_than_lash(nyt, lash_nyt):
    """The extended-sequence encoding multiplies the database by the
    hierarchy's depth, and GSP scans it once per pattern length."""
    lash = lash_nyt("P", SIGMA_HIGH, 0, 3)
    gsp = GspAlgorithm(lash.params).mine(nyt.database, nyt.hierarchy("P"))
    assert gsp.decoded() == lash.decoded()
    assert shuffle_bytes(gsp) > shuffle_bytes(lash)


def test_direct_closed_mining_prunes_locally(nyt, lash_nyt):
    """Closed/maximal mining inside the partitions ships fewer
    candidates than the full output, and the reconcile combiner folds
    the candidate and cover stream."""
    full = lash_nyt("LP", SIGMA_HIGH, 0, 3)
    sizes = {}
    for mode in ("closed", "maximal"):
        direct = ClosedLash(full.params, mode=mode).mine(
            nyt.database, nyt.hierarchy("LP")
        )
        assert direct.patterns == filter_result(full, mode).patterns, mode
        emitted = sum(
            1 for _, (tag, _) in direct.mining_job.output if tag == _CAND
        )
        reconcile = direct.reconcile_job.counters
        assert emitted < len(full), mode
        assert (
            reconcile[C.COMBINE_OUTPUT_RECORDS]
            <= reconcile[C.MAP_OUTPUT_RECORDS]
        ), mode
        sizes[mode] = len(direct)
    assert sizes["maximal"] <= sizes["closed"] < len(full)


def test_pattern_index_selective_queries(clp):
    """Sec. 1's exploration queries over the mined output (NYT-CLP)."""
    index = PatternIndex.from_result(clp)
    assert len(index.search("*")) == len(index)
    assert 0 < len(index.search("the ^ADJ ?")) < len(index.search("? ?"))


def test_batch_merges_equal_full_rebuild(nyt, tmp_path):
    """A store grown by merging each new batch's store is byte-identical
    to re-mining everything seen so far (σ=1, where merging is exact);
    merging into a shard set serves the same patterns."""
    hierarchy = nyt.hierarchy("P")
    params = MiningParams(1, 0, 3)
    batches = [list(nyt.database)[i:i + 8] for i in range(0, 32, 8)]
    served = tmp_path / "served.store"
    seen = []
    for number, batch in enumerate(batches):
        seen.extend(batch)
        delta = tmp_path / f"delta{number}.store"
        Lash(params).mine(SequenceDatabase(batch), hierarchy).to_store(delta)
        if number == 0:
            delta.replace(served)
        else:
            merge_stores([served, delta], served)
        full = tmp_path / f"full{number}.store"
        Lash(params).mine(SequenceDatabase(seen), hierarchy).to_store(full)
        assert served.read_bytes() == full.read_bytes(), number
    sources = [tmp_path / "delta1.store", tmp_path / "delta2.store"]
    sharded = tmp_path / "merged.shards"
    merge_stores(sources, sharded, shards=4)
    single = tmp_path / "merged.store"
    merge_stores(sources, single)
    with open_store(single) as one, open_store(sharded) as many:
        assert list(many) == list(one)


def test_psm_explores_a_vanishing_fraction():
    """Sec. 5.2: k=100,000, λ=5 gives 0.005 %, and the share falls as
    the vocabulary grows."""
    assert round(100 * psm_explored_fraction(100_000, 5), 3) == 0.005
    assert psm_explored_fraction(1_000_000, 5) < psm_explored_fraction(
        100_000, 5
    )
