"""Per-query cost estimation for the serving-side planner.

One id per chain node says nothing about how many *patterns* that id
posts to, so this module prices a :class:`~repro.query.plan.QueryPlan`
against a concrete backend using store statistics that are O(1) per
item to read
(:meth:`~repro.query.base.PatternSearchBase._postings_size_estimate`):

* per chain node, the summed estimated postings size of its admissible
  (or, for negations, excluded) id set — the cost of AND-ing that node
  into the candidate mask, the node ordering key, and the cost of
  building its slot map from positional postings;
* the pattern-length histogram — how many patterns a length-range scan
  visits, the average pattern length, and the size of the positional
  bitmap the propagation sweeps;
* a selectivity product over the intersected nodes — the expected
  number of candidates the mask admits.

There is one execution to price (see :mod:`repro.query.plan`): a
candidate mask, then positional propagation through the chain, each
node's slot map built from whichever source is cheaper — its positional
postings, or the candidates' own items (:func:`node_map_cost`).  The
execution makes that choice again on the counts it holds, so an
estimate can only be off in *speed*; answers are exact either way.

The same estimate is the serving tier's cost currency: every search
returns the summed price of the plans it ran
(:attr:`~repro.query.base.Answer.cost`, echoed as ``estimated_cost``),
and :class:`~repro.serve.service.QueryService` prices a query *before*
it runs only to hold it against the admission ceiling (``max_cost``).
The constants below are the one definition all layers price work with.

Pricing is per request: a plan is built, priced and executed by the one
thread serving a query and then dropped.  The estimate a local backend
returns carries the plans it priced (:attr:`CostEstimate.plans`), so the
search that follows admission executes them instead of building its
own.  Only statistics the store alone decides are memoized, in
``backend._cost_stat_cache``: the length histogram and one postings sum
per subtree root — at most one entry per vocabulary item, however many
distinct queries are priced.  Any other id set is client input and is
summed by the request that sent it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Serving-cost constants
#
# The planner below and the admission-control layer
# (`repro.serve.service`) price query execution in abstract *work
# units* — roughly "one postings entry touched".  The constants are
# defined once, here, so the node-map source choice, the echoed
# ``estimated_cost`` and the service's admission ceiling all speak
# the same currency.  Absolute values are calibration, not physics:
# only the *ratios* matter for the choice, and the unit tests pin the
# decisions (a ubiquitous node beside a rare one maps from the
# candidates, the rare one from its postings), not the raw numbers.
# ---------------------------------------------------------------------------

#: work to decode one postings entry and OR it into a bitmap
COST_POSTINGS_ENTRY = 1.0
#: work to decode one candidate pattern; reading its items then costs
#: one unit each
COST_PATTERN_DECODE = 4.0
#: work per byte of position-space bitmap swept per chain node
#: (the propagation's big-int AND/shift passes)
COST_BITMAP_BYTE = 0.02

#: candidate-mask node skip rule: after sorting concrete nodes by
#: estimated postings size, a node whose estimate exceeds this multiple
#: of the cheapest node's costs more to AND in than the candidates it
#: could remove — the planner leaves it out (the mask stays a superset,
#: so answers cannot change)
NODE_SKIP_FACTOR = 8.0

#: estimated-cost histogram buckets for /stats and /metrics (work units)
COST_BUCKETS = (
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
)

#: where a chain node's slot map can come from (see :func:`node_map_cost`)
NODE_SOURCES = ("postings", "candidates")


@dataclass(frozen=True)
class CostEstimate:
    """One query's predicted execution price, in abstract work units.

    ``strategy`` names the path the plan runs — ``exact`` (positional
    propagation) for chain queries, ``wildcard`` for chainless ones,
    ``unsatisfiable`` when the query can match nothing — which the
    query's shape alone decides, so every shard reports the same.
    ``candidates`` is the expected candidate-set size; ``nodes`` carries
    per-chain-node postings estimates, ``skipped`` (left out of the
    candidate mask) and ``maps``: per source, how many of the priced
    store files are expected to build the node's slot map from it
    (none for a node admitting every item: its map is every slot).

    ``plans`` is the hand-off from pricing to execution inside one
    request: ``backend -> QueryPlan`` for every store file priced.
    ``search_answer(cost=estimate)`` runs those plans — the admission
    path, where a ceiling needed the price first; a backend the
    estimate did not price prices itself afresh.  It is no part of the
    estimate's value — never compared, rendered or sent.
    """

    cost: float
    strategy: str
    candidates: int
    nodes: tuple[dict, ...] = ()
    shards: int = 1
    plans: dict = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "cost": round(self.cost, 1),
            "strategy": self.strategy,
            "candidates": self.candidates,
            "nodes": [dict(node) for node in self.nodes],
            "shards": self.shards,
        }


def combine_estimates(estimates) -> CostEstimate:
    """Fold per-shard estimates into one handle-level estimate: costs,
    candidate counts, postings and map-source tallies add (shards
    partition the patterns).  Every shard lowers a query to the same
    plan shape, so the strategy and the node list line up."""
    estimates = [est for est in estimates if est is not None]
    if not estimates:
        return CostEstimate(cost=0.0, strategy="unsatisfiable", candidates=0)
    nodes = tuple(
        {
            "kind": group[0]["kind"],
            "ids": group[0]["ids"],
            "postings": sum(node["postings"] for node in group),
            "skipped": all(node["skipped"] for node in group),
            "maps": {
                source: sum(node["maps"][source] for node in group)
                for source in NODE_SOURCES
            },
        }
        for group in zip(*(est.nodes for est in estimates))
    )
    return CostEstimate(
        cost=sum(est.cost for est in estimates),
        strategy=estimates[0].strategy,
        candidates=sum(est.candidates for est in estimates),
        nodes=nodes,
        shards=sum(est.shards for est in estimates),
        plans={
            backend: plan
            for est in estimates
            for backend, plan in est.plans.items()
        },
    )


def order_mask_nodes(sized: list) -> tuple[list, list]:
    """Order ``(estimated postings, ids)`` pairs for mask intersection
    — cheapest first — and split off the ones whose postings dwarf the
    cheapest node's.  Returns ``(included, skipped)``, both in
    intersection order.  Skipping is sound because the mask is an AND
    of postings supersets: any node subset still yields a superset of
    the true matches, which the propagation then narrows exactly."""
    ranked = sorted(sized, key=lambda pair: (pair[0], len(pair[1])))
    ceiling = NODE_SKIP_FACTOR * max(ranked[0][0], 1)
    included = [pair for pair in ranked if pair[0] <= ceiling]
    skipped = [pair for pair in ranked if pair[0] > ceiling]
    return included, skipped


def node_map_cost(
    entries: int, candidates: int, avg_len: float
) -> tuple[str, float]:
    """The cheaper source of one chain node's slot map, and its price:
    the node's positional postings (``entries`` of them decoded), or
    the ``candidates`` patterns' own items (each pattern decoded and
    read whole).  Ties go to the postings."""
    return min(
        (
            ("postings", entries * COST_POSTINGS_ENTRY),
            ("candidates", candidates * (COST_PATTERN_DECODE + avg_len)),
        ),
        key=lambda option: option[1],
    )


class CostEstimator:
    """Prices a compiled plan against one backend's store statistics."""

    def __init__(self, backend) -> None:
        self._backend = backend

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def node_entries(self, ids) -> int:
        """Summed estimated postings size of a node's id set.

        A subtree node's id set is the backend's memoized descendant
        tuple of its root (the set's minimum id).  Its sum — hundreds
        of per-id reads for a ``^Category`` — is a property of the
        (immutable) store, memoized per root.  Any other set is client
        input and is summed by the request that sent it, so the memo
        never holds more than one entry per vocabulary item."""
        backend = self._backend
        if len(ids) > 1 and backend._descendants_cache.get(ids[0]) is ids:
            cache = backend._cost_stat_cache
            key = ("under", ids[0])
            size = cache.get(key)
            if size is None:
                size = sum(map(backend._postings_size_estimate, ids))
                cache[key] = size
            return size
        return sum(map(backend._postings_size_estimate, ids))

    def length_stats(self) -> tuple[tuple[tuple[int, int], ...], float]:
        """The length histogram — ascending ``(length, patterns)``
        pairs — and the average pattern length, memoized."""
        cache = self._backend._cost_stat_cache
        stats = cache.get(("lengths",))
        if stats is None:
            histogram = tuple(
                sorted(
                    (length, len(group))
                    for length, group in self._backend._length_groups().items()
                )
            )
            count = sum(n for _, n in histogram)
            total = sum(length * n for length, n in histogram)
            stats = (histogram, total / count if count else 1.0)
            cache[("lengths",)] = stats
        return stats

    def scan_count(self, plan) -> int:
        """Patterns a length-range scan for this plan visits."""
        histogram, _ = self.length_stats()
        return sum(
            n
            for length, n in histogram
            if length >= plan.min_len
            and (plan.max_len is None or length <= plan.max_len)
        )

    def mask_nodes(self, plan) -> tuple[list, list]:
        """The plan's candidate-mask nodes as ``(entries, ids)`` pairs,
        split ``(included, skipped)`` by :func:`order_mask_nodes`.  Only
        positive nodes narrower than the vocabulary can mask.
        ``included`` is empty when none posts to fewer patterns than
        the length-range scan visits: the scan is then the candidate
        set."""
        vocab_size = len(self._backend.vocabulary)
        sized = [
            (self.node_entries(ids), ids)
            for node_kind, ids in plan.chain
            if node_kind == "in" and len(ids) < vocab_size
        ]
        if not sized:
            return [], []
        included, skipped = order_mask_nodes(sized)
        if included[0][0] >= self.scan_count(plan):
            return [], included + skipped
        return included, skipped

    # ------------------------------------------------------------------
    # the estimate
    # ------------------------------------------------------------------

    def estimate(self, plan) -> CostEstimate:
        if plan.unsatisfiable:
            return CostEstimate(
                cost=1.0, strategy="unsatisfiable", candidates=0
            )
        scan_count = self.scan_count(plan)
        if not plan.chain:
            # chainless queries read length groups straight through —
            # no mask, no propagation, just pattern decodes
            return CostEstimate(
                cost=1.0 + scan_count * COST_PATTERN_DECODE,
                strategy="wildcard",
                candidates=scan_count,
            )
        histogram, avg_len = self.length_stats()
        included, skipped = self.mask_nodes(plan)
        if included:
            cost = COST_POSTINGS_ENTRY * sum(
                entries for entries, _ in included
            )
            n_patterns = sum(n for _, n in histogram)
            candidates = float(included[0][0])
            for entries, _ in included[1:]:
                candidates *= min(1.0, entries / max(1, n_patterns))
            candidates = min(candidates, float(scan_count))
        else:
            # one bit per pattern the length-range scan visits
            cost = scan_count * COST_POSTINGS_ENTRY
            candidates = float(scan_count)

        skipped_sets = {ids for _, ids in skipped}
        vocab_size = len(self._backend.vocabulary)
        nodes: list[dict] = []
        for node_kind, ids in plan.chain:
            maps = dict.fromkeys(NODE_SOURCES, 0)
            entries = 0
            if not (node_kind == "in" and len(ids) == vocab_size):
                entries = self.node_entries(ids)
                source, map_cost = node_map_cost(entries, candidates, avg_len)
                maps[source] = 1
                cost += map_cost
            nodes.append(
                {
                    "kind": node_kind,
                    "ids": len(ids),
                    "postings": entries,
                    "skipped": node_kind == "in" and ids in skipped_sets,
                    "maps": maps,
                }
            )
        # the propagation sweeps the whole position space once per node
        max_len = max((length for length, _ in histogram), default=1)
        space_bytes = (
            sum((length + max_len) * n for length, n in histogram) // 8
        ) or 1
        cost += len(plan.chain) * space_bytes * COST_BITMAP_BYTE
        return CostEstimate(
            cost=cost,
            strategy="exact",
            candidates=int(candidates),
            nodes=tuple(nodes),
        )


__all__ = [
    "CostEstimate",
    "CostEstimator",
    "NODE_SOURCES",
    "combine_estimates",
    "node_map_cost",
    "order_mask_nodes",
]
