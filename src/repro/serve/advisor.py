"""Stats-driven shard-count advisor (``lash index info --advise``).

Shard routing is fixed at build time: every pattern lives in
``shard_of(first_item_name, num_shards)``
(:mod:`repro.serve.format`), so all patterns sharing a first item are
inseparable — a pathologically hot head item caps how evenly *any*
shard count can spread the bytes.  The advisor measures that skew from
the store itself and simulates the real placement hash over candidate
shard counts, instead of guessing from file size alone:

1. weigh every first-item **group**: the group's pattern-record bytes
   (exact: each record's span plus its offset-table entry) plus its
   share of the other non-vocabulary sections (distributed by the
   group's item occurrences — each shard rebuilds postings for its own
   patterns);
2. simulate ``shard_of`` for doubling shard counts and score each
   count's max-shard bytes and imbalance (max/mean);
3. recommend the smallest count whose largest shard fits the target
   with tolerable imbalance — smaller counts mean fewer files, fewer
   merges and fewer fan-out requests, so growing past "fits" buys
   nothing.

Everything here is advisory and read-only; rebalancing itself is
``lash index compact --shards N``.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError
from repro.serve.format import shard_of
from repro.serve.sharded import ShardedPatternStore
from repro.serve.store import PatternStore

#: aim for shards whose bytes fit comfortably in one mmap'd file that
#: a single process can serve; overridable per call
DEFAULT_TARGET_BYTES = 64 << 20

#: max-shard / mean-shard ratio considered acceptably balanced
DEFAULT_IMBALANCE_LIMIT = 1.5

#: give up doubling past this many shards
DEFAULT_MAX_SHARDS = 256


def group_weights(store) -> dict[str, int]:
    """Bytes attributable to each first-item-name routing group.

    Pattern-record bytes are exact (each record's span plus its
    offset-table entry, from :meth:`PatternStore.record_bytes`); the
    rest of every shard's non-vocabulary sections — lengths, postings
    and their directory — is apportioned by each group's summed item
    occurrences, which is what drives its size in a per-shard rebuild.
    The vocabulary is every shard's fixed cost and belongs to no group.
    """
    if isinstance(store, ShardedPatternStore):
        physical = store._shards()
    elif isinstance(store, PatternStore):
        physical = [store]
    else:
        raise InvalidParameterError(
            f"cannot advise on backend {type(store).__name__}"
        )
    vocabulary = store.vocabulary
    weights: dict[str, int] = {}
    occurrences: dict[str, int] = {}
    total_occurrences = 0
    overhead = 0
    for shard in physical:
        sections = shard.describe()["sections"]
        overhead += sum(sections.values()) - sections["vocabulary"]
        for idx in range(shard._num_patterns()):
            pattern, _freq = shard._pattern_at(idx)
            name = vocabulary.name(pattern[0])
            record_bytes = sum(shard.record_bytes(idx))
            weights[name] = weights.get(name, 0) + record_bytes
            overhead -= record_bytes
            occurrences[name] = occurrences.get(name, 0) + len(pattern)
            total_occurrences += len(pattern)
    if total_occurrences:
        for name, count in occurrences.items():
            weights[name] += overhead * count // total_occurrences
    return weights


def simulate_placement(
    weights: dict[str, int], num_shards: int
) -> list[int]:
    """Bytes per shard under the build-time routing hash."""
    shards = [0] * num_shards
    for name, weight in weights.items():
        shards[shard_of(name, num_shards)] += weight
    return shards


def _score(weights: dict[str, int], num_shards: int) -> dict:
    shards = simulate_placement(weights, num_shards)
    total = sum(shards)
    mean = total / num_shards if num_shards else 0.0
    biggest = max(shards) if shards else 0
    return {
        "shards": num_shards,
        "max_bytes": biggest,
        "mean_bytes": int(mean),
        "imbalance": round(biggest / mean, 3) if mean else 1.0,
        "empty_shards": sum(1 for s in shards if s == 0),
    }


def advise_shards(
    store,
    target_bytes: int = DEFAULT_TARGET_BYTES,
    imbalance_limit: float = DEFAULT_IMBALANCE_LIMIT,
    max_shards: int = DEFAULT_MAX_SHARDS,
) -> dict:
    """Recommend a shard count for ``store`` from its measured skew.

    Returns a report dict: the routing-group skew (biggest groups by
    bytes), one score row per simulated count, the recommendation and
    the reason it stopped there.  The hard floor on what any count can
    achieve is the heaviest single group — it is indivisible — so when
    that alone exceeds ``target_bytes`` the advisor says so rather
    than recommending shard counts that cannot help.
    """
    if target_bytes < 1:
        raise InvalidParameterError(
            f"target_bytes must be >= 1, got {target_bytes}"
        )
    weights = group_weights(store)
    total = sum(weights.values())
    heaviest = max(weights.values(), default=0)
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    candidates: list[dict] = []
    recommended: int | None = None
    reason = ""
    count = 1
    while count <= max_shards:
        score = _score(weights, count)
        candidates.append(score)
        if recommended is None and score["max_bytes"] <= target_bytes:
            if score["imbalance"] <= imbalance_limit or count == 1:
                recommended = count
                reason = (
                    f"smallest count whose largest shard "
                    f"({score['max_bytes']} bytes) fits the "
                    f"{target_bytes}-byte target"
                )
                # keep scoring a couple more rows for context
        if recommended is not None and count >= 4 * recommended:
            break
        count *= 2
    if recommended is None:
        best = min(candidates, key=lambda s: s["max_bytes"])
        recommended = best["shards"]
        if heaviest > target_bytes:
            reason = (
                f"no count can fit the target: the heaviest routing "
                f"group alone is {heaviest} bytes (> {target_bytes}); "
                f"picked the count with the smallest largest-shard"
            )
        else:
            reason = (
                f"no count within {max_shards} shards met both target "
                f"and imbalance <= {imbalance_limit}; picked the count "
                f"with the smallest largest-shard"
            )
    return {
        "total_bytes": total,
        "groups": len(weights),
        "heaviest_group_bytes": heaviest,
        "skew": round(heaviest / total, 4) if total else 0.0,
        "top_groups": [
            {"item": name, "bytes": weight} for name, weight in top
        ],
        "candidates": candidates,
        "recommended_shards": recommended,
        "reason": reason,
        "target_bytes": target_bytes,
        "imbalance_limit": imbalance_limit,
    }


__all__ = [
    "advise_shards",
    "group_weights",
    "simulate_placement",
    "DEFAULT_TARGET_BYTES",
    "DEFAULT_IMBALANCE_LIMIT",
    "DEFAULT_MAX_SHARDS",
]
