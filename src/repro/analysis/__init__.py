"""Output analysis: redundancy statistics (Table 3), fast closed/maximal
identification (Sec. 6.7 future work), analytical cost models
(Sec. 3.2/4.4/5.2), and result comparison."""

from repro.analysis.redundancy import (
    OutputStats,
    output_statistics,
    trivial_patterns,
    closed_patterns,
    maximal_patterns,
)
from repro.analysis.closedmax import (
    closed_patterns_fast,
    maximal_patterns_fast,
    filter_result,
    mine_closed,
)
from repro.analysis.compare import ResultDiff, compare_results, recode_patterns
from repro.analysis.interestingness import (
    ScoredPattern,
    lift_scores,
    r_interest_scores,
    r_interesting_patterns,
    rank_patterns,
)
from repro.analysis.costmodel import (
    g1_size,
    lash_emitted_sequences,
    lash_rewrite_operations,
    naive_emissions_contiguous,
    naive_emissions_unbounded,
    nonpivot_sequences,
    psm_explored_fraction,
    psm_search_space,
    total_sequences,
)

__all__ = [
    "g1_size",
    "lash_emitted_sequences",
    "lash_rewrite_operations",
    "naive_emissions_contiguous",
    "naive_emissions_unbounded",
    "nonpivot_sequences",
    "psm_explored_fraction",
    "psm_search_space",
    "total_sequences",
    "recode_patterns",
    "OutputStats",
    "output_statistics",
    "trivial_patterns",
    "closed_patterns",
    "maximal_patterns",
    "closed_patterns_fast",
    "maximal_patterns_fast",
    "filter_result",
    "mine_closed",
    "ResultDiff",
    "compare_results",
    "ScoredPattern",
    "lift_scores",
    "r_interest_scores",
    "r_interesting_patterns",
    "rank_patterns",
]
