"""Top-k generalized sequence mining (support-free entry point).

Choosing σ requires knowing the corpus; exploration users usually want
"the k most frequent patterns".  This module finds them with a
threshold-halving loop over the LASH driver:

1. Preprocess and encode once (f-list + vocabulary are σ-independent;
   paper Sec. 3.4 notes they are reusable across parameter settings).
2. Start from the largest generalized item frequency — no pattern can be
   more frequent than its most frequent item (Lemma 1) — and halve σ
   until at least ``k`` patterns are frequent (or σ = 1).
3. Keep the ``k`` most frequent patterns; ties at the cut are broken by
   pattern text for determinism.

Because σ halves geometrically, total work is dominated by the last
mining run — the same run a correctly guessed σ would have cost, at most
a constant factor more.

>>> result = mine_top_k(database, hierarchy, k=10, gamma=1, lam=3)
>>> result.top(10)
"""

from __future__ import annotations

from repro.core.lash import Lash, MinerFactory
from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.errors import InvalidParameterError
from repro.hierarchy.hierarchy import Hierarchy
from repro.sequence.database import SequenceDatabase


def mine_top_k(
    database,
    hierarchy: Hierarchy | None = None,
    k: int = 10,
    gamma: int | None = 0,
    lam: int = 5,
    local_miner: str | MinerFactory = "psm",
) -> MiningResult:
    """Mine the ``k`` most frequent generalized sequences.

    Returns a :class:`~repro.core.result.MiningResult` whose ``params``
    carry the effective support threshold of the final mining run; fewer
    than ``k`` patterns are returned only when the database has fewer
    frequent-at-σ=1 patterns.  Ties at the ``k``-th frequency are broken
    by pattern text (ascending), so results are deterministic.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not isinstance(database, SequenceDatabase):
        database = SequenceDatabase(database)

    # Preprocess and encode once; every σ probe reuses both.
    lash = Lash(MiningParams(1, gamma, lam), local_miner=local_miner)
    vocabulary, preprocess_job = lash.preprocess(database, hierarchy)
    max_frequency = max(
        (vocabulary.frequency(i) for i in range(len(vocabulary))),
        default=0,
    )
    if max_frequency == 0:
        return MiningResult(
            patterns={},
            vocabulary=vocabulary,
            params=MiningParams(1, gamma, lam),
            algorithm="top-k-lash[empty]",
            preprocess_job=preprocess_job,
        )

    encoded = [vocabulary.encode_sequence(seq) for seq in database]
    sigma = max(1, max_frequency)
    while True:
        lash.params = MiningParams(sigma, gamma, lam)
        result = lash.mine_encoded(vocabulary, encoded)
        if len(result.patterns) >= k or sigma == 1:
            break
        sigma = max(1, sigma // 2)

    ranked = sorted(
        result.patterns.items(),
        key=lambda kv: (-kv[1], vocabulary.decode_sequence(kv[0])),
    )
    kept = dict(ranked[:k])
    return MiningResult(
        patterns=kept,
        vocabulary=vocabulary,
        params=result.params,
        algorithm=f"top-k-{result.algorithm}",
        preprocess_job=preprocess_job,
        mining_job=result.mining_job,
    )


__all__ = ["mine_top_k"]
