"""Mining results: patterns, frequencies, and execution measurements."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.params import MiningParams
from repro.hierarchy.vocabulary import Vocabulary
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.engine import JobResult
from repro.mapreduce.metrics import JobMetrics, PhaseTimes
from repro.miners.base import ExplorationStats


@dataclass
class MiningResult:
    """Output of one GSM run (LASH or a baseline).

    ``patterns`` maps integer-coded sequences to frequencies; use
    :meth:`decoded` / :meth:`top` for human-readable views.  The attached
    :class:`JobResult` objects carry counters and per-task timings of the
    underlying MapReduce jobs.
    """

    patterns: dict[tuple[int, ...], int]
    vocabulary: Vocabulary
    params: MiningParams
    algorithm: str = "lash"
    preprocess_job: JobResult | None = None
    mining_job: JobResult | None = None

    # ------------------------------------------------------------------
    # pattern access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.patterns)

    def frequency(self, *names: str) -> int:
        """Frequency of a pattern given item names; 0 when absent."""
        key = tuple(self.vocabulary.id(n) for n in names)
        return self.patterns.get(key, 0)

    def decoded(self) -> dict[tuple[str, ...], int]:
        """``{("a", "B"): 3, ...}`` rendering of all patterns."""
        return {
            self.vocabulary.decode_sequence(seq): freq
            for seq, freq in self.patterns.items()
        }

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most frequent patterns, rendered, ties broken by text."""
        rendered = sorted(
            (self.vocabulary.render(seq), freq)
            for seq, freq in self.patterns.items()
        )
        rendered.sort(key=lambda pair: -pair[1])
        return rendered[:n]

    def to_file(self, path: str | Path) -> None:
        """Write ``pattern<TAB>frequency`` lines, most frequent first."""
        with open(path, "w", encoding="utf-8") as f:
            for pattern, freq in self.top(len(self.patterns)):
                f.write(f"{pattern}\t{freq}\n")

    def to_store(
        self,
        path: str | Path,
        shards: int | None = None,
    ) -> None:
        """Export to a binary :class:`~repro.serve.store.PatternStore`
        for query serving (``lash serve``).  ``shards=N`` writes a
        sharded store directory instead of a single file — same
        answers, postings split across N mmaps.  The mined patterns
        stream straight into the store writers, so the export never
        builds a second in-memory copy of the result."""
        if shards is None:
            from repro.serve.writer import write_store

            write_store(path, self.patterns, self.vocabulary)
        else:
            from repro.serve.writer import write_sharded_store

            write_sharded_store(path, self.patterns, self.vocabulary, shards)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Counters:
        """Counters of the main (partitioning+mining) job."""
        if self.mining_job is None:
            return Counters()
        return self.mining_job.counters

    @property
    def local_stats(self) -> ExplorationStats:
        """The local miner's search space (Fig. 4(d)), read off the mining
        job's counters: committed reduce attempts only."""
        counters = self.counters
        return ExplorationStats(
            counters[C.LOCAL_CANDIDATES], counters[C.LOCAL_OUTPUTS]
        )

    @property
    def metrics(self) -> JobMetrics:
        if self.mining_job is None:
            return JobMetrics()
        return self.mining_job.metrics

    def phase_times(self) -> PhaseTimes:
        """Serial (single-worker) phase times of the mining job."""
        return self.metrics.serial_phase_times()

    def total_metrics(self) -> JobMetrics:
        """Merged task profile of preprocessing + mining."""
        merged = JobMetrics(name=self.algorithm)
        if self.preprocess_job is not None:
            merged.merge(self.preprocess_job.metrics)
        if self.mining_job is not None:
            merged.merge(self.mining_job.metrics)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MiningResult(algorithm={self.algorithm!r}, "
            f"patterns={len(self.patterns)}, params={self.params.describe()})"
        )
