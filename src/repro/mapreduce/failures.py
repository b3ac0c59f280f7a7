"""Deterministic task-failure injection for the MapReduce engine.

The paper relies on Hadoop's fault tolerance (*"The MapReduce runtime takes
care of execution and transparently handles failures in the cluster"*,
Sec. 3.1).  The in-process engine models it: a :class:`FailurePlan` makes
chosen task attempts die partway through, the engine discards the failed
attempt's partial output and counters — exactly like Hadoop throwing away a
failed attempt — and re-runs the task, up to ``max_attempts`` times.

A correct fault-tolerance implementation is *invisible* in the final
answer: mined patterns, frequencies, and logical counters
(``MAP_OUTPUT_RECORDS`` etc.) must be byte-identical to a failure-free run,
while only the failure bookkeeping (``FAILED_*`` counters, wasted seconds)
differs.  The test suite asserts exactly that.

Failures are deterministic functions of ``(phase, task_index, attempt,
seed)`` — re-running a plan reproduces the identical execution, including
the record index at which each doomed attempt dies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ReproError
from repro.io.codec import stable_hash


class TaskRetriesExceededError(ReproError):
    """A task failed on every allowed attempt; the job is lost."""

    def __init__(self, phase: str, task_index: int, attempts: int) -> None:
        super().__init__(
            f"{phase} task {task_index} failed {attempts} attempts in a row"
        )
        self.phase = phase
        self.task_index = task_index
        self.attempts = attempts

    def __reduce__(self):
        # raised in a pool worker, it is pickled back to the driver
        return type(self), (self.phase, self.task_index, self.attempts)


class _InjectedFailure(Exception):
    """Internal signal: the current task attempt just 'crashed'."""


@dataclass(frozen=True)
class FailurePlan:
    """Which task attempts die, and where.

    Parameters
    ----------
    map_failures / reduce_failures:
        ``task_index → n``: the task's first ``n`` attempts fail.
    probability:
        Additional per-attempt failure probability (deterministically
        derived from ``seed``), applied to attempts not already doomed by
        the explicit plans.
    seed:
        Drives both the random failures and each failure's crash point.
    max_attempts:
        Hadoop's ``mapreduce.map.maxattempts`` analogue (default 4).
    """

    map_failures: Mapping[int, int] = field(default_factory=dict)
    reduce_failures: Mapping[int, int] = field(default_factory=dict)
    probability: float = 0.0
    seed: int = 0
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    # ------------------------------------------------------------------

    def _unit(self, phase: str, task_index: int, attempt: int, salt: str) -> float:
        """A deterministic uniform draw in [0, 1)."""
        h = stable_hash((salt, phase, task_index, attempt, self.seed))
        return (h % (1 << 53)) / float(1 << 53)

    def should_fail(self, phase: str, task_index: int, attempt: int) -> bool:
        """Whether this attempt (0-based) of the task dies."""
        planned = (
            self.map_failures if phase == "map" else self.reduce_failures
        ).get(task_index, 0)
        if attempt < planned:
            return True
        if self.probability:
            return self._unit(phase, task_index, attempt, "fail") < (
                self.probability
            )
        return False

    def crash_point(
        self, phase: str, task_index: int, attempt: int, num_records: int
    ) -> int:
        """How many input records the doomed attempt processes before dying."""
        if num_records <= 0:
            return 0
        fraction = self._unit(phase, task_index, attempt, "crash")
        return int(fraction * num_records)
