"""Per-task timing metrics and phase summaries."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PhaseTimes:
    """Elapsed seconds per MapReduce phase (the paper's Fig. 5/6 breakdown)."""

    map_s: float
    shuffle_s: float
    reduce_s: float

    @property
    def total_s(self) -> float:
        return self.map_s + self.shuffle_s + self.reduce_s

    def __add__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(
            self.map_s + other.map_s,
            self.shuffle_s + other.shuffle_s,
            self.reduce_s + other.reduce_s,
        )

    def row(self) -> dict[str, float]:
        return {
            "Map": round(self.map_s, 4),
            "Shuffle": round(self.shuffle_s, 4),
            "Reduce": round(self.reduce_s, 4),
            "Total": round(self.total_s, 4),
        }


@dataclass
class JobMetrics:
    """Measured execution profile of one job run.

    ``map_task_s`` / ``reduce_task_s`` hold one wall-clock entry per task;
    ``shuffle_s`` is the measured grouping/partitioning time.
    """

    name: str = "job"
    map_task_s: list[float] = field(default_factory=list)
    reduce_task_s: list[float] = field(default_factory=list)
    shuffle_s: float = 0.0
    shuffle_bytes: int = 0
    #: durations of failed (discarded) task attempts — work the cluster did
    #: but Hadoop threw away
    failed_map_task_s: list[float] = field(default_factory=list)
    failed_reduce_task_s: list[float] = field(default_factory=list)

    def serial_phase_times(self) -> PhaseTimes:
        """Phase times when every task runs back-to-back on one worker.

        Failed attempts are excluded: they model work whose *slot time* is
        wasted, tracked separately by :meth:`wasted_s`.
        """
        return PhaseTimes(
            map_s=sum(self.map_task_s),
            shuffle_s=self.shuffle_s,
            reduce_s=sum(self.reduce_task_s),
        )

    def wasted_s(self) -> float:
        """Seconds burned by failed task attempts."""
        return sum(self.failed_map_task_s) + sum(self.failed_reduce_task_s)

    def merge(self, other: "JobMetrics") -> "JobMetrics":
        """Concatenate task profiles of a multi-job pipeline."""
        self.map_task_s.extend(other.map_task_s)
        self.reduce_task_s.extend(other.reduce_task_s)
        self.shuffle_s += other.shuffle_s
        self.shuffle_bytes += other.shuffle_bytes
        self.failed_map_task_s.extend(other.failed_map_task_s)
        self.failed_reduce_task_s.extend(other.failed_reduce_task_s)
        return self
