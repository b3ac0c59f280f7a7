"""MG-FSM (Miliaraki et al., SIGMOD 2013) as reproduced for Fig. 4(e).

MG-FSM is flat (hierarchy-free) frequent sequence mining with item-based
partitioning — LASH's direct ancestor.  The paper compares against it by
running both systems without hierarchies and attributes LASH's 2–5× edge to
PSM replacing MG-FSM's BFS local miner (Sec. 6.3, footnote 3: "LASH is
equivalent to MG-FSM with its local miner replaced by PSM").

Accordingly this driver *is* :class:`~repro.core.lash.Lash` with a BFS
local miner, mining flat whatever hierarchy or vocabulary it is handed;
``Lash`` with ``hierarchy=None`` and the default PSM miner is the "LASH
(no hierarchy)" configuration of the same figure.  It shares LASH's
engine, so it runs on the process engine as LASH does.
"""

from __future__ import annotations

from repro.core.lash import Lash, MinerFactory
from repro.core.params import MiningParams
from repro.core.result import MiningResult
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary
from repro.sequence.database import SequenceDatabase


class MgFsm(Lash):
    """Flat item-based partitioning with a BFS local miner."""

    def __init__(
        self,
        params: MiningParams,
        local_miner: str | MinerFactory = "bfs",
        num_map_tasks: int = 8,
        num_reduce_tasks: int = 8,
    ) -> None:
        super().__init__(params, local_miner, num_map_tasks, num_reduce_tasks)

    def mine(
        self,
        database: SequenceDatabase,
        hierarchy: Hierarchy | None = None,
        vocabulary: Vocabulary | None = None,
    ) -> MiningResult:
        """Mine without hierarchies: ``hierarchy`` and ``vocabulary`` are
        not read, the f-list job always runs flat."""
        result = super().mine(database)
        result.algorithm = "mg-fsm"
        return result
