"""The regex-style DP matcher, kept as a test oracle.

The query engine answers every chain query by positional propagation
(:mod:`repro.query.plan`); this module re-interprets a *compiled* query
(:data:`~repro.query.base.CompiledToken` pairs) per pattern with a DP
over token positions × pattern positions instead.  It shares the
compiler with the engine but nothing downstream of it, so a
disagreement points at the plan, the windows or the node maps.
"""

from __future__ import annotations

from repro.query.tokens import normalize_query


def dp_matches(compiled, pattern, vocabulary) -> bool:
    """Does the coded ``pattern`` match the compiled query?"""
    n_items = len(pattern)
    # reachable[j] = True if a prefix of tokens consumed pattern[:j]
    reachable = [True] + [False] * n_items
    for kind, target in compiled:
        nxt = [False] * (n_items + 1)
        if kind == "span":
            # zero or more: propagate the earliest reachable point right
            running = False
            for j in range(n_items + 1):
                running = running or reachable[j]
                nxt[j] = running
        elif kind == "plus":
            running = False
            for j in range(1, n_items + 1):
                running = running or reachable[j - 1]
                nxt[j] = running
        elif kind == "gap":
            # nxt[j] iff some reachable[j - d] with m <= d <= n
            lower, upper = target
            for j in range(lower, n_items + 1):
                first = 0 if upper is None else max(0, j - upper)
                nxt[j] = any(reachable[first : j - lower + 1])
        else:
            for j in range(n_items):
                if not reachable[j]:
                    continue
                item = pattern[j]
                if kind == "any":
                    nxt[j + 1] = True
                elif kind == "item":
                    nxt[j + 1] = item == target
                elif kind == "oneof":
                    nxt[j + 1] = item in target
                elif kind == "notin":
                    nxt[j + 1] = item not in target
                else:  # under
                    nxt[j + 1] = vocabulary.generalizes_to(item, target)
        reachable = nxt
        if not any(reachable):
            return False
    return reachable[n_items]


def dp_search(backend, query, min_freq=None) -> list:
    """Ranked ``(decoded pattern, frequency)`` answers of ``query`` on
    ``backend``: its rank-ordered records filtered by the DP."""
    compiled = backend._compile(normalize_query(query))
    vocabulary = backend.vocabulary
    return [
        (vocabulary.decode_sequence(pattern), frequency)
        for pattern, frequency in backend._iter_ranked()
        if (min_freq is None or frequency >= min_freq)
        and dp_matches(compiled, pattern, vocabulary)
    ]
