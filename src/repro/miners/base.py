"""Local miner interface and exploration accounting.

A *local miner* runs inside a reduce task on one partition ``P_w`` and must
produce exactly the locally frequent pivot sequences
``G_{σ,γ,λ}(w, P_w)`` with their frequencies (paper Alg. 1, line 8).

Miners track an :class:`ExplorationStats` so the search-space comparison of
Fig. 4(d) (candidate sequences per output sequence) can be reproduced.  The
counting convention matches the paper's worked example (Sec. 5.2): every
candidate sequence whose support is evaluated counts once — including
infrequent ones — while sequences skipped by PSM's right-expansion index are
never evaluated and therefore never counted.

A miner's own ``stats`` count every call made on that object, and a
MapReduce job may run on a pickled copy or be retried.  The figures a
:class:`~repro.core.result.MiningResult` reports therefore come from the
job's counters instead: the mining reduce posts each partition's delta to
its task attempt, and only committed attempts count (Hadoop discards a
failed attempt's work, Sec. 3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.params import MiningParams
from repro.hierarchy.vocabulary import Vocabulary

#: weighted partition type: rewritten sequence → multiplicity
Partition = dict[tuple[int, ...], int]


@dataclass
class ExplorationStats:
    """Search-space accounting for one or more ``mine_partition`` calls."""

    candidates: int = 0
    outputs: int = 0

    def candidates_per_output(self) -> float:
        """Fig. 4(d)'s measure (∞-safe: 0 outputs → candidate count)."""
        return self.candidates / self.outputs if self.outputs else float(
            self.candidates
        )

    def merge(self, other: "ExplorationStats") -> "ExplorationStats":
        self.candidates += other.candidates
        self.outputs += other.outputs
        return self


class LocalMiner(ABC):
    """Base class: bind a vocabulary and parameters, mine partitions."""

    #: registry name used by drivers ("psm", "bfs", ...)
    name: str = "local"

    def __init__(self, vocabulary: Vocabulary, params: MiningParams) -> None:
        self.vocabulary = vocabulary
        self.params = params
        self.stats = ExplorationStats()

    @abstractmethod
    def mine_partition(
        self,
        partition: Partition,
        pivot: int,
    ) -> dict[tuple[int, ...], int]:
        """Return ``{pivot sequence: frequency}`` for one partition."""
