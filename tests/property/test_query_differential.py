"""Differential fuzzing of the query language across all backends.

The evaluate-everywhere-and-compare discipline: random hierarchies,
databases and queries (drawn from all ten token kinds — item, ``^name``,
``?``, ``+``, ``*``, ``*{m,n}`` bounded gap, ``(a|b|^C)`` disjunction,
``!name`` / ``!^Cat`` negation (counted as two kinds: exact and
subtree), ``token@N`` frequency floor — plus per-query σ overrides) are
answered by five implementations that must agree byte for byte on the
ranked ``(pattern, frequency)`` list:

* a naive oracle — backtracking matcher over the raw pattern mapping,
  no compiled form, no postings, no candidate pruning;
* the DP oracle (``tests/query/dp_reference.py``) — the engine's
  compiler, then a regex-style DP per stored pattern, run over every
  backend's own records;
* :class:`~repro.query.index.PatternIndex` — in-memory, inverted index,
  answered exactly by the compiled-plan bitmap engine;
* :class:`~repro.serve.store.PatternStore` — single mmap'd store file
  with positional postings, same bitmap engine;
* :class:`~repro.serve.sharded.ShardedPatternStore` — k-way heap merge
  over shard files.

The reads that run as searches — ``top(n)``, exact ``frequency``/``in``
lookups and ``generalizations_of``/``specializations_of`` — are checked
per instance on the same three backends against oracles over the
pattern dict, and the router's ``/topk`` against the same top-``n``
oracle.

Queries are biased toward gap/adjacency-dense shapes (a third draw from
a ``?``/``*{m,n}``-heavy pool) because position-window arithmetic is
where the plan engine could silently diverge from the DP; a companion
property test asserts the candidate mask only ever *over*-admits, and
another builds every node map from each source in turn.

``LASH_DIFF_SEED`` reseeds the generator (CI runs the fixed default
plus one randomized seed per build); ``LASH_DIFF_INSTANCES`` scales the
number of mined instances.  Every failure message carries the seed,
instance and query needed to replay it, and when
``LASH_DIFF_ARTIFACT_DIR`` is set a failing run additionally writes a
replay bundle there — the generated corpus and hierarchy as loadable
files plus a ``replay.txt`` with the one command that reproduces the
crash locally (CI uploads the directory as a build artifact).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro import Hierarchy, Lash, MiningParams, SequenceDatabase
from repro.errors import UnknownItemError
from repro.query import PatternIndex, parse_query
from repro.query.tokens import (
    AnyToken,
    FloorToken,
    GapToken,
    ItemToken,
    NotToken,
    OneOfToken,
    PlusToken,
    QueryToken,
    SpanToken,
    UnderToken,
    is_negation_only,
    normalize_query,
)
from repro.serve import QueryService, open_store
from tests.query.dp_reference import dp_matches, dp_search

SEED = int(os.environ.get("LASH_DIFF_SEED", "20260729"))
N_INSTANCES = int(os.environ.get("LASH_DIFF_INSTANCES", "24"))
QUERIES_PER_INSTANCE = 14
ARTIFACT_DIR = os.environ.get("LASH_DIFF_ARTIFACT_DIR")

#: the ten generated kinds: one per token kind, negation split into its
#: exact and subtree forms (their candidate-selection behavior differs —
#: ``!^C`` excludes a whole subtree), and cycling the required kind over
#: the full tuple guarantees coverage even on unlucky seeds
KINDS = (
    "item",
    "under",
    "any",
    "plus",
    "span",
    "gap",
    "oneof",
    "not",
    "notunder",
    "floor",
)


# ----------------------------------------------------------------------
# the oracle: brute-force matching over the raw pattern mapping
# ----------------------------------------------------------------------


def _oracle_token_matches(token: QueryToken, item: int, vocab) -> bool:
    """Does this single-item token admit the item?  Hierarchy facts come
    from the *string-level* hierarchy, not the backends' id-level caches.
    """
    if isinstance(token, AnyToken):
        return True
    if isinstance(token, ItemToken):
        return vocab.name(item) == token.name
    if isinstance(token, UnderToken):
        return token.name in vocab.hierarchy.ancestors_or_self(
            vocab.name(item)
        )
    if isinstance(token, OneOfToken):
        return any(
            _oracle_token_matches(choice, item, vocab)
            for choice in token.choices
        )
    if isinstance(token, NotToken):
        return not _oracle_token_matches(token.inner, item, vocab)
    if isinstance(token, FloorToken):
        return vocab.frequency(item) >= token.floor and _oracle_token_matches(
            token.inner, item, vocab
        )
    raise AssertionError(f"oracle cannot match {token!r}")


def _oracle_match(tokens, pattern, vocab) -> bool:
    """Backtracking recursion — deliberately nothing like the DP in
    ``tests/query/dp_reference.py``."""

    def rec(i: int, j: int) -> bool:
        if i == len(tokens):
            return j == len(pattern)
        token = tokens[i]
        if isinstance(token, SpanToken):
            return any(rec(i + 1, k) for k in range(j, len(pattern) + 1))
        if isinstance(token, PlusToken):
            return any(rec(i + 1, k) for k in range(j + 1, len(pattern) + 1))
        if isinstance(token, GapToken):
            stop = (
                len(pattern)
                if token.max_items is None
                else min(len(pattern), j + token.max_items)
            )
            return any(
                rec(i + 1, k) for k in range(j + token.min_items, stop + 1)
            )
        return (
            j < len(pattern)
            and _oracle_token_matches(token, pattern[j], vocab)
            and rec(i + 1, j + 1)
        )

    return rec(0, 0)


def _oracle_search(patterns, vocab, tokens, min_freq=None):
    """Ranked (decoded pattern, frequency) hits, most frequent first,
    ties by coded pattern ascending — the shared index order, re-stated
    here independently.  ``min_freq`` is the per-query σ override: a
    plain filter here, a rank-prefix cut in the backends."""
    hits = [
        (coded, freq)
        for coded, freq in patterns.items()
        if (min_freq is None or freq >= min_freq)
        and _oracle_match(tokens, coded, vocab)
    ]
    hits.sort(key=lambda record: (-record[1], record[0]))
    return [(vocab.decode_sequence(coded), freq) for coded, freq in hits]


def _oracle_top(patterns, vocab, n: int):
    """The ``n`` most frequent patterns, ranked like :func:`_oracle_search`."""
    ranked = sorted(patterns.items(), key=lambda record: (-record[1], record[0]))
    return [(vocab.decode_sequence(coded), freq) for coded, freq in ranked[:n]]


def _oracle_itemwise(patterns, vocab, names, upward: bool):
    """Same-length patterns whose every item generalizes to the query's
    item (``upward``: the query's item generalizes to the pattern's),
    by the string-level hierarchy, ranked like :func:`_oracle_search`."""
    ancestors = vocab.hierarchy.ancestors_or_self

    def general(specific: str, ancestor: str) -> bool:
        return ancestor in ancestors(specific)

    hits = []
    for coded, freq in patterns.items():
        decoded = vocab.decode_sequence(coded)
        if len(decoded) == len(names) and all(
            general(name, item) if upward else general(item, name)
            for name, item in zip(names, decoded)
        ):
            hits.append((coded, freq))
    hits.sort(key=lambda record: (-record[1], record[0]))
    return [(vocab.decode_sequence(coded), freq) for coded, freq in hits]


def _check_rerouted_reads(backends, patterns, vocab, rng, context) -> int:
    """``top``, ``frequency``/``in`` and hierarchy navigation — reads
    that run as searches — against oracles over the pattern dict.
    Returns the number of checks made."""
    checks = 0
    for n in sorted({1, rng.randint(1, 8), len(patterns), len(patterns) + 1}):
        want = _oracle_top(patterns, vocab, n)
        for backend in backends:
            got = [(m.pattern, m.frequency) for m in backend.top(n)]
            assert got == want, f"{context} top({n}) {type(backend).__name__}"
            checks += 1
    names = list(vocab.hierarchy.items)
    stored = [vocab.decode_sequence(coded) for coded in patterns]
    probes = rng.sample(stored, min(len(stored), 4))
    # absent sequences of known items, and sequences naming unknown ones
    for _ in range(3):
        drawn = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        if drawn not in stored:
            probes.append(drawn)
    unknown = [("zz-unknown",), ()]
    if stored:
        unknown.append((*stored[0], "zz-unknown"))
    frequencies = {vocab.decode_sequence(c): f for c, f in patterns.items()}
    for probe in probes + unknown:
        for backend in backends:
            where = f"{context} probe={probe!r} {type(backend).__name__}"
            assert backend.frequency(*probe) == frequencies.get(probe, 0), where
            assert (probe in backend) == (probe in frequencies), where
            checks += 1
    for probe in probes:
        for upward in (True, False):
            want = _oracle_itemwise(patterns, vocab, probe, upward)
            for backend in backends:
                read = (
                    backend.generalizations_of
                    if upward
                    else backend.specializations_of
                )
                got = [(m.pattern, m.frequency) for m in read(probe)]
                assert got == want, (
                    f"{context} probe={probe!r} upward={upward} "
                    f"{type(backend).__name__}: {got!r} != {want!r}"
                )
                checks += 1
    return checks


# ----------------------------------------------------------------------
# random instances and queries
# ----------------------------------------------------------------------


def _random_hierarchy(rng: random.Random) -> Hierarchy:
    """A random forest with occasional extra DAG edges."""
    n = rng.randint(3, 9)
    names = [f"i{k}" for k in range(n)]
    hierarchy = Hierarchy()
    for idx, name in enumerate(names):
        parent = None
        if idx and rng.random() < 0.6:
            parent = names[rng.randrange(idx)]
        hierarchy.add_item(name, parent)
    for idx in range(2, n):
        if rng.random() < 0.15:
            candidate = names[rng.randrange(idx)]
            if candidate not in hierarchy.ancestors_or_self(names[idx]):
                hierarchy.add_edge(names[idx], candidate)
    return hierarchy


def _random_database(rng: random.Random, names) -> SequenceDatabase:
    return SequenceDatabase(
        [
            [rng.choice(names) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(2, 10))
        ]
    )


def _random_name(rng: random.Random, vocab) -> str:
    return vocab.name(rng.randrange(len(vocab)))


def _random_single_token(rng: random.Random, vocab, kind: str) -> QueryToken:
    if kind == "item":
        return ItemToken(_random_name(rng, vocab))
    if kind == "under":
        return UnderToken(_random_name(rng, vocab))
    if kind == "any":
        return AnyToken()
    if kind == "oneof":
        return OneOfToken(
            tuple(
                _random_single_token(
                    rng, vocab, rng.choice(("item", "under"))
                )
                for _ in range(rng.randint(1, 3))
            )
        )
    if kind == "not":
        # exact-item negation, occasionally over a whole disjunction
        return NotToken(
            _random_single_token(
                rng, vocab, "oneof" if rng.random() < 0.3 else "item"
            )
        )
    if kind == "notunder":
        return NotToken(UnderToken(_random_name(rng, vocab)))
    assert kind == "floor"
    # "not" among the inner kinds: `!a@N` is the floor-over-negation
    # form, whose finite candidate set separates it from bare negation
    inner = _random_single_token(
        rng, vocab, rng.choice(("item", "under", "any", "oneof", "not"))
    )
    # floors drawn around real corpus frequencies so some pass, some cut
    anchor = vocab.frequency(rng.randrange(len(vocab)))
    return FloorToken(inner, max(0, anchor + rng.randint(-1, 2)))


def _random_gap(rng: random.Random) -> GapToken:
    lower = rng.randint(0, 2)
    upper = None if rng.random() < 0.3 else lower + rng.randint(0, 2)
    return GapToken(lower, upper)


#: kind pool for gap/adjacency-dense queries: heavy on the tokens that
#: exercise the plan engine's window arithmetic (positional shifts,
#: bounded/unbounded spreads, exact-adjacency chains)
DENSE_KINDS = ("gap", "any", "gap", "plus", "any", "item", "under", "gap")


def _is_dense(tokens) -> bool:
    """A gap/adjacency-dense query: two or more window-shaping tokens
    (``?`` forces exact adjacency arithmetic; ``*{m,n}`` forces bounded
    spreads) — the shapes the compiled-plan accelerator targets."""
    return (
        sum(1 for t in tokens if isinstance(t, (GapToken, AnyToken))) >= 2
    )


def _random_query(
    rng: random.Random, vocab, required_kind: str
) -> tuple[QueryToken, ...]:
    """1–5 tokens, at least one of ``required_kind`` (cycling the
    requirement over all ten kinds guarantees full coverage even on
    unlucky seeds).  The required token's position is biased toward the
    string boundaries so gaps regularly anchor the first and last
    region — the places where off-by-ones in the matcher DP live.

    A third of queries draw from :data:`DENSE_KINDS` instead of the
    uniform pool: gap/adjacency-heavy shapes whose position-window
    arithmetic is where the plan engine can silently diverge from the
    DP (the harness asserts a floor on how many such queries ran)."""
    if rng.random() < 0.35:
        length = rng.randint(2, 5)
        kinds = [rng.choice(DENSE_KINDS) for _ in range(length)]
    else:
        length = rng.randint(1, 4)
        kinds = [rng.choice(KINDS) for _ in range(length)]
    position = rng.choice((0, length - 1, rng.randrange(length)))
    kinds[position] = required_kind
    tokens = []
    for kind in kinds:
        if kind == "plus":
            tokens.append(PlusToken())
        elif kind == "span":
            tokens.append(SpanToken())
        elif kind == "gap":
            tokens.append(_random_gap(rng))
        else:
            tokens.append(_random_single_token(rng, vocab, kind))
    return tuple(tokens)


def _random_min_freq(rng: random.Random, patterns) -> int:
    """A σ override anchored on real pattern frequencies, so some
    queries are cut mid-ranking, some not at all, some entirely."""
    anchor = rng.choice(sorted(patterns.values())) if patterns else 1
    return max(0, anchor + rng.randint(-1, 2))


def _render_token(token: QueryToken) -> str:
    """The string syntax for a token (all generated names are
    syntax-safe ``i<k>`` identifiers)."""
    if isinstance(token, ItemToken):
        return token.name
    if isinstance(token, UnderToken):
        return f"^{token.name}"
    if isinstance(token, AnyToken):
        return "?"
    if isinstance(token, PlusToken):
        return "+"
    if isinstance(token, SpanToken):
        return "*"
    if isinstance(token, GapToken):
        upper = "" if token.max_items is None else token.max_items
        return f"*{{{token.min_items},{upper}}}"
    if isinstance(token, NotToken):
        return f"!{_render_token(token.inner)}"
    if isinstance(token, OneOfToken):
        return "(" + "|".join(_render_token(c) for c in token.choices) + ")"
    assert isinstance(token, FloorToken)
    return f"{_render_token(token.inner)}@{token.floor}"


def _render_query(tokens) -> str:
    return " ".join(_render_token(t) for t in tokens)


def _token_kinds(tokens) -> set[str]:
    kinds: set[str] = set()
    for token in tokens:
        if isinstance(token, ItemToken):
            kinds.add("item")
        elif isinstance(token, UnderToken):
            kinds.add("under")
        elif isinstance(token, AnyToken):
            kinds.add("any")
        elif isinstance(token, PlusToken):
            kinds.add("plus")
        elif isinstance(token, SpanToken):
            kinds.add("span")
        elif isinstance(token, GapToken):
            kinds.add("gap")
        elif isinstance(token, NotToken):
            kinds.add(
                "notunder" if isinstance(token.inner, UnderToken) else "not"
            )
        elif isinstance(token, OneOfToken):
            kinds.add("oneof")
        elif isinstance(token, FloorToken):
            kinds.add("floor")
    return kinds


# ----------------------------------------------------------------------
# replay bundles
# ----------------------------------------------------------------------


def _dump_replay_bundle(database, hierarchy, params, context: str) -> str:
    """Write the failing instance where CI can pick it up as an artifact.

    The bundle holds the generated corpus/hierarchy as loadable files
    (``lash mine --db corpus.txt --hierarchy hierarchy.txt`` works on
    them directly), the mining parameters and failure context as JSON,
    and the one command that replays the whole failing run.
    """
    if not ARTIFACT_DIR:
        return ""
    bundle = Path(ARTIFACT_DIR) / f"diff-seed-{SEED}"
    bundle.mkdir(parents=True, exist_ok=True)
    database.to_file(bundle / "corpus.txt")
    hierarchy.to_file(bundle / "hierarchy.txt")
    (bundle / "failure.json").write_text(
        json.dumps(
            {
                "seed": SEED,
                "instances": N_INSTANCES,
                "sigma": params.sigma,
                "gamma": params.gamma,
                "lam": params.lam,
                "context": context,
            },
            indent=2,
        )
    )
    (bundle / "replay.txt").write_text(
        f"LASH_DIFF_SEED={SEED} LASH_DIFF_INSTANCES={N_INSTANCES} "
        "PYTHONPATH=src python -m pytest -q "
        "tests/property/test_query_differential.py\n"
    )
    return f" [replay bundle: {bundle}]"


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


def test_differential_oracle_vs_all_backends(tmp_path):
    rng = random.Random(SEED)
    cases = 0
    sigma_cases = 0
    dense_cases = 0
    kinds_covered: set[str] = set()
    rerouted_checks = 0
    paths_total = {"exact": 0, "wildcard": 0}
    sources_total = {"postings": 0, "candidates": 0}
    for instance in range(N_INSTANCES):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([0, 1, 2, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        patterns, vocab = result.patterns, result.vocabulary

        index = PatternIndex(patterns, vocab)
        single_path = tmp_path / f"i{instance}.store"
        result.to_store(single_path)
        sharded_path = tmp_path / f"i{instance}.shards"
        result.to_store(sharded_path, shards=rng.randint(2, 4))

        try:
            with open_store(single_path) as single, open_store(
                sharded_path
            ) as sharded:
                backends = [index, single, sharded]
                for q in range(QUERIES_PER_INSTANCE):
                    tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                    kinds_covered |= _token_kinds(tokens)
                    if _is_dense(tokens):
                        dense_cases += 1
                    rendered = _render_query(tokens)
                    context = (
                        f"seed={SEED} instance={instance} query={rendered!r}"
                    )

                    # the string syntax round-trips to the generated tokens
                    assert parse_query(rendered) == tokens, context

                    expected = _oracle_search(patterns, vocab, tokens)
                    for backend in backends:
                        got = [
                            (m.pattern, m.frequency)
                            for m in backend.search(tokens)
                        ]
                        assert got == expected, (
                            f"{context} backend={type(backend).__name__}: "
                            f"{got!r} != oracle {expected!r}"
                        )
                        assert dp_search(backend, tokens) == expected, (
                            f"{context} backend={type(backend).__name__}: "
                            "DP oracle disagrees with the naive oracle"
                        )

                    # per-query σ override: a rank-prefix cut on every
                    # backend must equal the oracle's plain filter
                    if rng.random() < 0.5:
                        min_freq = _random_min_freq(rng, patterns)
                        floored = _oracle_search(
                            patterns, vocab, tokens, min_freq=min_freq
                        )
                        for backend in backends:
                            got = [
                                (m.pattern, m.frequency)
                                for m in backend.search(
                                    tokens, min_freq=min_freq
                                )
                            ]
                            assert got == floored, (
                                f"{context} min_freq={min_freq} "
                                f"backend={type(backend).__name__}: "
                                f"{got!r} != oracle {floored!r}"
                            )
                        sigma_cases += 1

                    # limit must be a plain prefix of the full ranking
                    if expected:
                        cut = rng.randint(1, len(expected))
                        for backend in backends:
                            prefix = [
                                (m.pattern, m.frequency)
                                for m in backend.search(tokens, limit=cut)
                            ]
                            assert prefix == expected[:cut], context
                    cases += 1
                for backend in backends:
                    stats = backend.plan_stats()
                    for path, count in stats["paths"].items():
                        paths_total[path] += count
                    for source, count in stats["sources"].items():
                        sources_total[source] += count
                # after the counters are read, so the path asserts below
                # count the random queries alone; a generator of its
                # own, so the instances and queries drawn above stay the
                # ones ``SEED`` always drew
                rerouted_checks += _check_rerouted_reads(
                    backends, patterns, vocab,
                    random.Random(f"{SEED}/{instance}"),
                    f"seed={SEED} instance={instance}",
                )
        except AssertionError as exc:
            raise AssertionError(
                str(exc)
                + _dump_replay_bundle(
                    database, hierarchy, params, str(exc)
                )
            ) from exc
    assert cases >= 300, f"only {cases} differential cases executed"
    assert sigma_cases >= 50, f"only {sigma_cases} σ-override cases executed"
    assert dense_cases >= 60, (
        f"only {dense_cases} gap/adjacency-dense queries executed"
    )
    assert kinds_covered == set(KINDS), (
        f"token kinds never generated: {set(KINDS) - kinds_covered}"
    )
    assert rerouted_checks >= 600, (
        f"only {rerouted_checks} top/lookup/navigation checks executed"
    )
    assert paths_total["exact"] > 0, f"exact path never taken: {paths_total}"
    assert paths_total["wildcard"] > 0, paths_total
    # both node-map sources ran by the planner's own choice
    assert all(sources_total.values()), f"a source never ran: {sources_total}"


def test_planner_strategies_differential(tmp_path, monkeypatch):
    """Every choice the planner can make is answer-invariant.

    What the planner chooses is the candidate set (see the superset
    test below) and where each chain node's slot map comes from.  For
    random mined instances, its own choice and each source
    forced on every node (positional postings, the candidates' own
    items) must return the DP oracle's ranked answers — on the
    in-memory index, the store file and the sharded store.  This is the
    guarantee that lets admission control trust the estimate: the
    planner can only change *speed*, never answers.  The force is a
    test-side patch of the one pricing function; the engine itself has
    no switch.
    """
    from repro.query import plan as plan_module

    choose = plan_module.node_map_cost

    def forced(source):
        if source is None:
            return choose
        return lambda entries, candidates, avg_len: (source, 0.0)

    rng = random.Random(SEED + 4)
    compared = 0
    for instance in range(max(4, N_INSTANCES // 6)):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([0, 1, 2, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        patterns, vocab = result.patterns, result.vocabulary
        index = PatternIndex(patterns, vocab)
        single_path = tmp_path / f"p{instance}.store"
        result.to_store(single_path)
        sharded_path = tmp_path / f"p{instance}.shards"
        result.to_store(sharded_path, shards=rng.randint(2, 3))
        with open_store(single_path) as single, open_store(
            sharded_path
        ) as sharded:
            backends = [index, single, sharded]
            for q in range(QUERIES_PER_INSTANCE):
                tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                reference = dp_search(index, tokens)
                for source in (None, "postings", "candidates"):
                    monkeypatch.setattr(
                        plan_module, "node_map_cost", forced(source)
                    )
                    for backend in backends:
                        got = [
                            (m.pattern, m.frequency)
                            for m in backend.search(tokens)
                        ]
                        assert got == reference, (
                            f"seed={SEED + 4} instance={instance} "
                            f"query={_render_query(tokens)!r} "
                            f"source={source} "
                            f"backend={type(backend).__name__}: "
                            f"{got!r} != reference {reference!r}"
                        )
                        compared += 1
                monkeypatch.setattr(plan_module, "node_map_cost", choose)
    assert compared >= 500, f"only {compared} node-source cases executed"


def test_plan_pruning_is_superset_of_matches(tmp_path):
    """The candidate set never drops a true match.

    For random queries over random mined instances, the candidates a
    compiled plan admits (:meth:`QueryPlan.candidate_mask`, or the
    length-range scan where it returns ``None`` and for chainless
    queries) must be a **superset** of the indexes the reference DP
    accepts — on the in-memory index and the store file.  This is the
    safety property behind building a node map from the candidates:
    the mask may over-admit (the propagation narrows it exactly), it
    must never under-admit.
    """
    from repro.query.plan import QueryPlan, iter_bit_indexes

    rng = random.Random(SEED + 1)
    checked = 0
    masked = 0
    for instance in range(max(4, N_INSTANCES // 4)):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([0, 1, 2, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        patterns, vocab = result.patterns, result.vocabulary
        index = PatternIndex(patterns, vocab)
        single_path = tmp_path / f"s{instance}.store"
        result.to_store(single_path)
        with open_store(single_path) as single:
            for q in range(QUERIES_PER_INSTANCE):
                tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                for backend in (index, single):
                    compiled = backend._compile(normalize_query(tokens))
                    plan = QueryPlan(compiled, backend)
                    mask = plan.candidate_mask(backend) if plan.chain else None
                    if mask is None:
                        admitted = set(plan.length_scan_indexes(backend))
                    else:
                        admitted = set(iter_bit_indexes(mask))
                        masked += 1
                    true_matches = {
                        idx
                        for idx in range(backend._num_patterns())
                        if dp_matches(
                            compiled, backend._pattern_at(idx)[0], vocab
                        )
                    }
                    context = (
                        f"seed={SEED + 1} instance={instance} "
                        f"query={_render_query(tokens)!r} "
                        f"backend={type(backend).__name__}"
                    )
                    dropped = true_matches - admitted
                    assert not dropped, (
                        f"{context}: pruning dropped true matches {dropped}"
                    )
                    checked += 1
    assert checked >= 100, f"only {checked} superset cases executed"
    assert masked >= 10, f"only {masked} masked cases executed"


def test_canonicalization_differential(tmp_path):
    """``normalize_query(q)`` is semantics-preserving and cache-unifying.

    For random queries: the raw token tuple and its normalized form
    return identical ranked answers from all three backends, and the
    two string spellings share a single :class:`QueryService` cache
    entry (the second lookup is a cache *hit* — checked through the
    hits counter, so a key regression cannot slip through as a silent
    recompute).
    """
    rng = random.Random(SEED + 2)
    checked = 0
    rewritten = 0
    cache_checked = 0
    for instance in range(4):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        result = Lash(
            MiningParams(sigma=1, gamma=rng.choice([1, None]), lam=3)
        ).mine(database, hierarchy)
        index = PatternIndex(result.patterns, result.vocabulary)
        single_path = tmp_path / f"c{instance}.store"
        result.to_store(single_path)
        sharded_path = tmp_path / f"c{instance}.shards"
        result.to_store(sharded_path, shards=2)
        service = QueryService(index)
        with open_store(single_path) as single, open_store(
            sharded_path
        ) as sharded:
            for q in range(30):
                tokens = _random_query(
                    rng, result.vocabulary, KINDS[q % len(KINDS)]
                )
                normalized = normalize_query(tokens)
                rewritten += normalized != tokens
                context = (
                    f"seed={SEED + 2} instance={instance} "
                    f"query={_render_query(tokens)!r} "
                    f"normalized={_render_query(normalized)!r}"
                )
                for backend in (index, single, sharded):
                    raw = [
                        (m.pattern, m.frequency)
                        for m in backend.search(tokens)
                    ]
                    canon = [
                        (m.pattern, m.frequency)
                        for m in backend.search(normalized)
                    ]
                    assert raw == canon, (
                        f"{context} backend={type(backend).__name__}: "
                        f"{raw!r} != {canon!r}"
                    )
                checked += 1
                if is_negation_only(normalized):
                    continue  # the service refuses these by design
                service.query(_render_query(tokens))
                hits_before = service.stats()["cache_hits"]
                service.query(_render_query(normalized))
                assert service.stats()["cache_hits"] == hits_before + 1, (
                    f"{context}: normalized spelling missed the cache "
                    "entry of the raw spelling"
                )
                cache_checked += 1
    assert checked >= 80, f"only {checked} canonicalization cases executed"
    assert rewritten >= 10, (
        f"only {rewritten} queries were actually rewritten — generator "
        "too tame to exercise the canonicalizer"
    )
    assert cache_checked >= 50, (
        f"only {cache_checked} cache-unification cases executed"
    )


def test_differential_router_backend(tmp_path, monkeypatch):
    """The distributed tier joins the evaluate-everywhere discipline.

    Random instances are served by a **router** fanning out over two
    half-cluster shard servers plus one full replica (socket protocol,
    k-way merge), and every random query must come back byte-identical
    to the single-process :class:`ShardedPatternStore` over the same
    manifest — then both half servers are killed, leaving each shard
    exactly one live replica, and the same queries must *still* match
    byte for byte with no partial-result flag: failover, not the
    answer, absorbs the failure.  Through a ``QueryService`` the whole
    response is compared, ``estimated_cost`` included: the servers'
    plan prices, summed in shard order, are the in-process store's.
    """
    from repro.serve import router as router_module
    from repro.serve.distributed import ShardServer
    from repro.serve.router import ClusterMap, RouterBackend, ServerSpec

    rng = random.Random(SEED + 3)
    compared = 0
    failover_compared = 0
    for instance in range(max(3, N_INSTANCES // 8)):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([1, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        vocab = result.vocabulary
        num_shards = rng.randint(2, 4)
        sharded_path = tmp_path / f"r{instance}.shards"
        result.to_store(sharded_path, shards=num_shards)
        half = num_shards // 2 or 1
        lower, upper = list(range(half)), list(range(half, num_shards))

        servers = [
            ShardServer(sharded_path, shard_subset=lower, http_port=None),
            ShardServer(
                sharded_path, shard_subset=upper or None, http_port=None
            ),
            ShardServer(sharded_path, http_port=None),  # full replica
        ]
        router = None
        try:
            for server in servers:
                server.start()
            placement = {}
            specs = []
            for server, shards in zip(
                servers, (lower, upper or lower, range(num_shards))
            ):
                spec = ServerSpec(*server.address)
                specs.append(spec)
                for shard in shards:
                    placement.setdefault(shard, []).append(spec.key)
            cluster = ClusterMap(
                specs, num_shards=num_shards, placement=placement
            )
            # shallow pipelines queue requests behind each other
            monkeypatch.setattr(
                router_module, "PIPELINE_DEPTH", rng.randint(1, 8)
            )
            router = RouterBackend(cluster)
            service = QueryService(router, cache_size=0)
            with open_store(sharded_path) as mono:
                mono_service = QueryService(mono, cache_size=0)
                queries = []
                for q in range(QUERIES_PER_INSTANCE):
                    tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                    if is_negation_only(normalize_query(tokens)):
                        continue  # the serving tier refuses these
                    queries.append(tokens)

                def compare(tokens, phase):
                    context = (
                        f"seed={SEED + 3} instance={instance} "
                        f"phase={phase} query={_render_query(tokens)!r}"
                    )
                    expected = [
                        (m.pattern, m.frequency)
                        for m in mono.search(tokens)
                    ]
                    answer = router.search_answer(tokens)
                    got = [(m.pattern, m.frequency) for m in answer.matches]
                    assert got == expected, (
                        f"{context}: {got!r} != mono {expected!r}"
                    )
                    assert answer.partial is None, context
                    if expected:
                        cut = rng.randint(1, len(expected))
                        prefix = [
                            (m.pattern, m.frequency)
                            for m in router.search(tokens, limit=cut)
                        ]
                        assert prefix == expected[:cut], context
                    min_freq = _random_min_freq(rng, result.patterns)
                    floored = [
                        (m.pattern, m.frequency)
                        for m in mono.search(tokens, min_freq=min_freq)
                    ]
                    got_floored = [
                        (m.pattern, m.frequency)
                        for m in router.search(tokens, min_freq=min_freq)
                    ]
                    assert got_floored == floored, (
                        f"{context} min_freq={min_freq}: "
                        f"{got_floored!r} != mono {floored!r}"
                    )
                    for ask in (
                        lambda svc: svc.query(tokens, limit=None),
                        lambda svc: svc.count(tokens, min_freq=min_freq),
                    ):
                        routed, local = ask(service), ask(mono_service)
                        assert routed == local, (
                            f"{context} min_freq={min_freq}: service "
                            f"{routed!r} != mono {local!r}"
                        )

                def compare_topk(phase):
                    # a generator of its own: ``rng``'s draws stay as
                    # they were
                    draw = random.Random(f"{SEED + 3}/{instance}/topk")
                    for n in sorted(
                        {1, draw.randint(1, 8), len(result.patterns) + 1}
                    ):
                        want = {
                            "k": n,
                            "matches": [
                                {"pattern": " ".join(names), "frequency": f}
                                for names, f in _oracle_top(
                                    result.patterns, vocab, n
                                )
                            ],
                        }
                        routed = service.topk(n)
                        assert routed == want == mono_service.topk(n), (
                            f"seed={SEED + 3} instance={instance} "
                            f"phase={phase} topk({n}): {routed!r}"
                        )

                for tokens in queries:
                    compare(tokens, "healthy")
                    compared += 1
                compare_topk("healthy")
                assert len(router) == len(mono)
                assert router.describe()["wire"]["frames_sent"] > 0

                # one replica down per shard: both half servers die,
                # the full replica carries every shard
                servers[0].stop()
                servers[1].stop()
                for tokens in queries:
                    compare(tokens, "failover")
                    failover_compared += 1
                compare_topk("failover")
        finally:
            if router is not None:
                router.close()
            for server in servers:
                server.stop()
    assert compared >= 20, f"only {compared} router cases executed"
    assert failover_compared >= 20, (
        f"only {failover_compared} failover cases executed"
    )


def test_differential_error_equivalence(tmp_path):
    """Invalid queries fail identically — same exception type — on
    every backend, so a serving tier swap cannot change the API's
    error contract."""
    rng = random.Random(SEED + 1)
    hierarchy = _random_hierarchy(rng)
    database = _random_database(rng, list(hierarchy.items))
    result = Lash(MiningParams(sigma=1, gamma=1, lam=3)).mine(
        database, hierarchy
    )
    index = PatternIndex(result.patterns, result.vocabulary)
    single_path = tmp_path / "err.store"
    result.to_store(single_path)
    sharded_path = tmp_path / "err.shards"
    result.to_store(sharded_path, shards=2)
    with open_store(single_path) as single, open_store(
        sharded_path
    ) as sharded:
        for query in [
            "no-such-item ?",
            "(i0|no-such-item)",
            "^no-such-item@2",
            "!no-such-item i0",
            "!^no-such-item i0",
        ]:
            for backend in (index, single, sharded):
                with pytest.raises(UnknownItemError):
                    backend.search(query)
