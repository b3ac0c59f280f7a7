"""Hadoop-style job counters.

The paper reports ``MAP_OUTPUT_BYTES`` ("total data transferred between map
and reduce task", Sec. 6.1); the engine additionally tracks record counts and
post-combine (materialized/shuffled) bytes.

A job reports measurements of its own the way a Hadoop task calls
``context.getCounter``: :func:`task_counters` is the running attempt's
:class:`Counters`, which the engine commits only when the attempt does.
"""

from __future__ import annotations

from collections import defaultdict
from contextvars import ContextVar
from typing import Iterator


class C:
    """Counter name constants."""

    MAP_INPUT_RECORDS = "MAP_INPUT_RECORDS"
    MAP_OUTPUT_RECORDS = "MAP_OUTPUT_RECORDS"
    #: serialized size of map emissions, before the combiner (Hadoop's
    #: MAP_OUTPUT_BYTES counter — what Fig. 4(b) reports)
    MAP_OUTPUT_BYTES = "MAP_OUTPUT_BYTES"
    COMBINE_INPUT_RECORDS = "COMBINE_INPUT_RECORDS"
    COMBINE_OUTPUT_RECORDS = "COMBINE_OUTPUT_RECORDS"
    #: serialized size after per-split combining — the bytes actually moved
    SHUFFLE_BYTES = "SHUFFLE_BYTES"
    REDUCE_INPUT_GROUPS = "REDUCE_INPUT_GROUPS"
    REDUCE_INPUT_RECORDS = "REDUCE_INPUT_RECORDS"
    REDUCE_OUTPUT_RECORDS = "REDUCE_OUTPUT_RECORDS"
    #: failed task attempts (Hadoop's NUM_FAILED_MAPS / NUM_FAILED_REDUCES);
    #: partial output and counters of failed attempts are discarded
    FAILED_MAP_TASKS = "FAILED_MAP_TASKS"
    FAILED_REDUCE_TASKS = "FAILED_REDUCE_TASKS"
    #: candidate sequences whose support the reduce-side local search
    #: evaluated, and the ones it output (Fig. 4(d)'s search space)
    LOCAL_CANDIDATES = "LOCAL_CANDIDATES"
    LOCAL_OUTPUTS = "LOCAL_OUTPUTS"


class Counters:
    """A mapping of counter name → non-negative integer."""

    def __init__(self) -> None:
        self._values: dict[str, int] = defaultdict(int)

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._values[name] += amount

    def __getitem__(self, name: str) -> int:
        return self._values.get(name, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def as_dict(self) -> dict[str, int]:
        return dict(self._values)

    def merge(self, other: "Counters") -> "Counters":
        """Accumulate another job's counters into this one (multi-job runs)."""
        for name, value in other._values.items():
            self._values[name] += value
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"


#: the counters of the task attempt running in this context; set by
#: :func:`repro.mapreduce.engine.run_task` around each attempt
ATTEMPT_COUNTERS: ContextVar[Counters | None] = ContextVar(
    "attempt_counters", default=None
)


def task_counters() -> Counters:
    """The running attempt's counters (a throwaway outside a task).

    What a job adds here is committed with the attempt and discarded
    with a failed one, under either engine.
    """
    counters = ATTEMPT_COUNTERS.get()
    return Counters() if counters is None else counters
