"""Output analysis: redundancy statistics (Table 3) and the closed/maximal
filter (Sec. 6.7), analytical cost models (Sec. 3.2/4.4/5.2), and result
comparison."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.compare import (
        ResultDiff,
        compare_results,
        recode_patterns,
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
    from repro.analysis.redundancy import (
        OutputStats,
        closed_patterns,
        filter_result,
        maximal_patterns,
        output_statistics,
        trivial_patterns,
    )

# lazy: ``lash compare`` needs only the result diff, not the mining stack
# that the closed/maximal filter imports
_EXPORTS = {
    "OutputStats": "repro.analysis.redundancy",
    "output_statistics": "repro.analysis.redundancy",
    "filter_result": "repro.analysis.redundancy",
    "trivial_patterns": "repro.analysis.redundancy",
    "closed_patterns": "repro.analysis.redundancy",
    "maximal_patterns": "repro.analysis.redundancy",
    "ResultDiff": "repro.analysis.compare",
    "compare_results": "repro.analysis.compare",
    "recode_patterns": "repro.analysis.compare",
    "g1_size": "repro.analysis.costmodel",
    "lash_emitted_sequences": "repro.analysis.costmodel",
    "lash_rewrite_operations": "repro.analysis.costmodel",
    "naive_emissions_contiguous": "repro.analysis.costmodel",
    "naive_emissions_unbounded": "repro.analysis.costmodel",
    "nonpivot_sequences": "repro.analysis.costmodel",
    "psm_explored_fraction": "repro.analysis.costmodel",
    "psm_search_space": "repro.analysis.costmodel",
    "total_sequences": "repro.analysis.costmodel",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
