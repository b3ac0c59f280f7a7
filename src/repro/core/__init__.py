"""The LASH algorithm: hierarchy-aware partitioning + pivot sequence mining."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.closedlash import ClosedLash, ClosedMiningResult
    from repro.core.lash import Lash
    from repro.core.params import MiningParams
    from repro.core.partition import build_partitions, frequent_pivots
    from repro.core.psm import ExplorationStats, PivotSequenceMiner
    from repro.core.result import MiningResult
    from repro.core.rewrite import (
        FULL_REWRITE,
        NO_REWRITE,
        RewritePlan,
        blank_isolated_pivots,
        blank_unreachable,
        compress_blanks,
        pivot_distances,
        rewrite_for_pivot,
        w_generalize,
    )

# lazy because the leaves are imported from outside the package
# (`miners.base` -> `core.params`, and `core.psm` -> `miners.base` back):
# an eager fan-out here would make that a cycle for whoever imports
# `repro.miners` first
_EXPORTS = {
    "MiningParams": "repro.core.params",
    "FULL_REWRITE": "repro.core.rewrite",
    "NO_REWRITE": "repro.core.rewrite",
    "RewritePlan": "repro.core.rewrite",
    "w_generalize": "repro.core.rewrite",
    "blank_isolated_pivots": "repro.core.rewrite",
    "pivot_distances": "repro.core.rewrite",
    "blank_unreachable": "repro.core.rewrite",
    "compress_blanks": "repro.core.rewrite",
    "rewrite_for_pivot": "repro.core.rewrite",
    "frequent_pivots": "repro.core.partition",
    "build_partitions": "repro.core.partition",
    "PivotSequenceMiner": "repro.core.psm",
    "ExplorationStats": "repro.core.psm",
    "MiningResult": "repro.core.result",
    "Lash": "repro.core.lash",
    "ClosedLash": "repro.core.closedlash",
    "ClosedMiningResult": "repro.core.closedlash",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
