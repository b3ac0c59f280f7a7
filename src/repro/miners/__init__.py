"""Sequential (local) GSM miners used in the reduce phase (paper Sec. 5)."""

from repro.miners.base import LocalMiner, ExplorationStats
from repro.miners.brute import BruteForceMiner
from repro.miners.bfs import BfsMiner
from repro.miners.dfs import DfsMiner
from repro.miners.spam import SpamMiner

__all__ = [
    "LocalMiner",
    "ExplorationStats",
    "BruteForceMiner",
    "BfsMiner",
    "DfsMiner",
    "SpamMiner",
]
