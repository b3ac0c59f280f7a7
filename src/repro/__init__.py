"""repro — a reproduction of "LASH: Large-Scale Sequence Mining with
Hierarchies" (Beedkar & Gemulla, SIGMOD 2015).

Public API::

    from repro import Hierarchy, SequenceDatabase, MiningParams, Lash, mine

    h = Hierarchy.from_parent_map({"lives": "live", "live": "VERB"})
    db = SequenceDatabase([["she", "lives", "here"], ...])
    result = mine(db, h, sigma=2, gamma=0, lam=3)
    result.top(10)

See README.md: "Layout" is the system inventory, "Tests and benchmarks"
says which tables and figures of the paper the benches reproduce, and
"Start-up" states the import rule this file follows (names resolve on
first use, so importing a leaf module never loads the mining stack).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.constants import BLANK, BLANK_SYMBOL
from repro.errors import (
    EncodingError,
    HierarchyError,
    InvalidParameterError,
    ReproError,
    UnknownItemError,
)

if TYPE_CHECKING:
    from repro.baselines import (
        GspAlgorithm,
        MgFsm,
        NaiveAlgorithm,
        SemiNaiveAlgorithm,
    )
    from repro.core import (
        ClosedLash,
        ClosedMiningResult,
        Lash,
        MiningParams,
        MiningResult,
        PivotSequenceMiner,
    )
    from repro.core.lash import mine
    from repro.hierarchy import (
        Hierarchy,
        Vocabulary,
        build_total_order,
        build_vocabulary,
        compute_generalized_flist,
    )
    from repro.mapreduce import MapReduceEngine
    from repro.miners import (
        BfsMiner,
        BruteForceMiner,
        DfsMiner,
        ExplorationStats,
        SpamMiner,
    )
    from repro.query import (
        PatternIndex,
        Q,
        code_patterns,
        normalize_query,
        parse_query,
    )
    from repro.sequence import EncodedDatabase, SequenceDatabase
    from repro.serve import (
        PatternStore,
        QueryService,
        ShardedPatternStore,
        merge_stores,
        open_store,
    )

_EXPORTS = {
    "Hierarchy": "repro.hierarchy.hierarchy",
    "Vocabulary": "repro.hierarchy.vocabulary",
    "build_total_order": "repro.hierarchy.flist",
    "build_vocabulary": "repro.hierarchy.flist",
    "compute_generalized_flist": "repro.hierarchy.flist",
    "SequenceDatabase": "repro.sequence.database",
    "EncodedDatabase": "repro.sequence.database",
    "Lash": "repro.core.lash",
    "MiningParams": "repro.core.params",
    "MiningResult": "repro.core.result",
    "PivotSequenceMiner": "repro.core.psm",
    "mine": "repro.core.lash",
    "ClosedLash": "repro.core.closedlash",
    "ClosedMiningResult": "repro.core.closedlash",
    "BfsMiner": "repro.miners.bfs",
    "BruteForceMiner": "repro.miners.brute",
    "DfsMiner": "repro.miners.dfs",
    "SpamMiner": "repro.miners.spam",
    "ExplorationStats": "repro.miners.base",
    "GspAlgorithm": "repro.baselines.gsp",
    "MgFsm": "repro.baselines.mgfsm",
    "NaiveAlgorithm": "repro.baselines.naive",
    "SemiNaiveAlgorithm": "repro.baselines.seminaive",
    "MapReduceEngine": "repro.mapreduce.engine",
    "PatternIndex": "repro.query.index",
    "PatternStore": "repro.serve.store",
    "ShardedPatternStore": "repro.serve.sharded",
    "open_store": "repro.serve.sharded",
    "merge_stores": "repro.serve.writer",
    "QueryService": "repro.serve.service",
    "Q": "repro.query.tokens",
    "code_patterns": "repro.query.build",
    "normalize_query": "repro.query.tokens",
    "parse_query": "repro.query.tokens",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "BLANK",
    "BLANK_SYMBOL",
    "ReproError",
    "HierarchyError",
    "UnknownItemError",
    "InvalidParameterError",
    "EncodingError",
    *_EXPORTS,
    "__version__",
]
