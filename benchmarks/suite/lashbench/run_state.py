"""What one run of one workload accumulates."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from lashbench.spans import SpanRecorder


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    work: Path
    #: set on ``--trace`` runs only; end-to-end windows never touch it
    recorder: SpanRecorder | None = None
    metrics: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, n: int | None = None) -> None:
        entry = {"value": float(value), "unit": unit}
        if n is not None:
            entry["n"] = n
        self.metrics[name] = entry

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; a failed one is kept (first few) so the
        report can say what went wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
