"""GSP over extended sequences — the classic hierarchy baseline (Sec. 1/7).

Srikant & Agrawal's approach to hierarchies, as the paper describes it:
*"make use of a mining algorithm that takes as input sequences of itemsets
... The hierarchy is then encoded into itemsets by replacing each item
("lives") by an itemset consisting of the item and its parents ({"lives",
"live", "VERB"})"*.  This module implements that baseline faithfully:

1. Every input sequence is materialized as an **extended sequence** — one
   itemset of ancestors-or-self per position — which multiplies the database
   size by roughly the hierarchy depth (the inefficiency Sec. 7 calls out).
2. Mining is **level-wise candidate-generation-and-test** (GSP): length-`k`
   candidates join frequent `(k-1)`-sequences on prefix/suffix overlap, and
   one MapReduce *counting job per level* scans the database, testing each
   candidate against the extended sequences.

Distribution strategy: candidates are broadcast to every map task and
counted against local input splits — a third strategy next to the
sequence-partitioned naïve/semi-naïve baselines and LASH's item-based
partitioning.  Every level is a full pass over the input, so GSP pays
``λ - 1`` scans where LASH pays one.

Soundness under gap constraints: the classic GSP prune (every *contiguous*
subsequence of a candidate must be frequent) is **unsound** for interior
deletions when ``γ`` is bounded — removing an interior item shortens the
distance between its neighbours and can make an infrequent pattern look
necessary (``acb`` at γ=0 supports ``a·c·b`` but not ``a·b``).  Dropping
end items keeps embeddings intact, so joining on prefix/suffix overlap —
both frequent by Lemma 1 — generates a complete candidate set and is the
only pruning applied.

Level-2 counting enumerates the gap-bounded generalized 2-subsequences of
each input directly instead of probing the ``|L1|²`` candidate pairs — the
standard GSP implementation special-case.
"""

from __future__ import annotations

from repro.baselines.naive import SupportCountJob
from repro.core.lash import GsmDriver
from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.hierarchy.vocabulary import Vocabulary
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import JobResult
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics

Pattern = tuple[int, ...]


def extend_sequence(
    vocabulary: Vocabulary, sequence: tuple[int, ...]
) -> list[frozenset[int]]:
    """The extended-sequence encoding: one ancestors-or-self itemset per
    position (the hierarchy flattened into the data, per [26])."""
    return [
        frozenset(vocabulary.ancestors_or_self(item)) for item in sequence
    ]


def matches_extended(
    extended: list[frozenset[int]], pattern: Pattern, gamma: int | None
) -> bool:
    """Gap-constrained containment of ``pattern`` in an extended sequence.

    Itemset membership replaces the ``→*`` test: pattern item ``s`` matches
    position ``i`` iff ``s ∈ extended[i]``.
    """
    if not pattern:
        return True
    n = len(extended)
    frontier = [i for i in range(n) if pattern[0] in extended[i]]
    for sym in pattern[1:]:
        if not frontier:
            return False
        nxt: set[int] = set()
        for end in frontier:
            hi = n if gamma is None else min(n, end + 2 + gamma)
            for k in range(end + 1, hi):
                if k not in nxt and sym in extended[k]:
                    nxt.add(k)
        frontier = sorted(nxt)
    return bool(frontier)


def join_candidates(frequent: list[Pattern]) -> list[Pattern]:
    """GSP join: ``a + b[-1]`` for frequent ``a``, ``b`` with
    ``a[1:] == b[:-1]`` (complete under gap constraints; see module doc)."""
    by_prefix: dict[Pattern, list[Pattern]] = {}
    for seq in frequent:
        by_prefix.setdefault(seq[:-1], []).append(seq)
    candidates: list[Pattern] = []
    for a in frequent:
        for b in by_prefix.get(a[1:], ()):
            candidates.append(a + (b[-1],))
    return candidates


class GspLevel2Job(SupportCountJob):
    """Count all generalized 2-subsequences over frequent items directly."""

    name = "gsp-L2"

    def __init__(
        self,
        vocabulary: Vocabulary,
        params: MiningParams,
        frequent_items: frozenset[int],
    ) -> None:
        super().__init__(vocabulary, params)
        self.frequent_items = frequent_items

    def map(self, record: tuple[int, ...]):
        gamma = self.params.gamma
        extended = extend_sequence(self.vocabulary, record)
        n = len(extended)
        seen: set[Pattern] = set()
        for i, first_set in enumerate(extended):
            hi = n if gamma is None else min(n, i + 2 + gamma)
            for k in range(i + 1, hi):
                for x in first_set & self.frequent_items:
                    for y in extended[k] & self.frequent_items:
                        seen.add((x, y))
        for pair in seen:
            yield pair, 1


class GspCountJob(SupportCountJob):
    """Count a broadcast candidate set against extended sequences (k ≥ 3)."""

    name = "gsp-count"

    def __init__(
        self,
        vocabulary: Vocabulary,
        params: MiningParams,
        candidates: list[Pattern],
    ) -> None:
        super().__init__(vocabulary, params)
        # Index by first item so a map call only probes plausible candidates.
        self._by_first: dict[int, list[Pattern]] = {}
        for candidate in candidates:
            self._by_first.setdefault(candidate[0], []).append(candidate)

    def map(self, record: tuple[int, ...]):
        extended = extend_sequence(self.vocabulary, record)
        present: set[int] = set().union(*extended) if extended else set()
        gamma = self.params.gamma
        for first in present:
            for candidate in self._by_first.get(first, ()):
                if all(x in present for x in candidate[1:]) and (
                    matches_extended(extended, candidate, gamma)
                ):
                    yield candidate, 1


class GspAlgorithm(GsmDriver):
    """Driver: f-list preprocessing + one counting job per pattern length.

    The f-list job doubles as level-1 counting: ``f0(w, D)`` — sequences
    containing ``w`` or a descendant — is exactly a single item's support
    over the extended database.

    Each run records its per-level candidate and frequent-set sizes in
    :attr:`level_sizes` (``{length: (candidates, frequent)}``) for
    diagnostics and benchmarks.
    """

    def mine_encoded(
        self, vocabulary: Vocabulary, encoded: list[Pattern]
    ) -> MiningResult:
        counters = Counters()
        metrics = JobMetrics(name="gsp")
        patterns: dict[Pattern, int] = {}
        self.level_sizes: dict[int, tuple[int, int]] = {}

        # Level 1 comes from the f-list; level 2 is counted by enumeration.
        frequent_items = vocabulary.frequent_ids(self.params.sigma)
        self.level_sizes[1] = (len(vocabulary), len(frequent_items))
        frequent: list[Pattern] = []
        if frequent_items:
            job = GspLevel2Job(
                vocabulary, self.params, frozenset(frequent_items)
            )
            frequent = self._run_level(
                job, encoded, counters, metrics, patterns
            )
            self.level_sizes[2] = (len(frequent_items) ** 2, len(frequent))

        length = 3
        while frequent and length <= self.params.lam:
            candidates = join_candidates(frequent)
            if not candidates:
                break
            job = GspCountJob(vocabulary, self.params, candidates)
            frequent = self._run_level(
                job, encoded, counters, metrics, patterns
            )
            self.level_sizes[length] = (len(candidates), len(frequent))
            length += 1

        mining_job = JobResult(
            output=list(patterns.items()), counters=counters, metrics=metrics
        )
        return MiningResult(
            patterns=patterns,
            vocabulary=vocabulary,
            params=self.params,
            algorithm="gsp",
            mining_job=mining_job,
        )

    def _run_level(
        self,
        job: MapReduceJob,
        encoded: list[tuple[int, ...]],
        counters: Counters,
        metrics: JobMetrics,
        patterns: dict[Pattern, int],
    ) -> list[Pattern]:
        """Run one counting job, merge its profile, absorb its output."""
        result = self.engine.run(job, encoded)
        counters.merge(result.counters)
        metrics.merge(result.metrics)
        level = dict(result.output)
        patterns.update(level)
        return sorted(level)
