"""Mined-pattern files: ``item item …<TAB>frequency`` lines."""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import EncodingError
from repro.io.lines import open_text

if TYPE_CHECKING:
    from repro.core.result import MiningResult

Patterns = dict[tuple[str, ...], int]


def write_patterns(
    patterns: MiningResult | Mapping[tuple[str, ...], int],
    path: str | Path,
) -> None:
    """Write patterns (a :class:`MiningResult` or a decoded mapping),
    most frequent first, ties in text order."""
    # a MiningResult is not a Mapping, which is how the two are told
    # apart without the reader of a TSV importing the mining core
    if isinstance(patterns, Mapping):
        decoded = dict(patterns)
    else:
        decoded = patterns.decoded()
    rows = sorted(decoded.items(), key=lambda kv: (-kv[1], kv[0]))
    with open_text(path, "w") as f:
        for pattern, freq in rows:
            f.write(" ".join(pattern))
            f.write(f"\t{freq}\n")


def read_patterns(path: str | Path) -> Patterns:
    """Read a pattern file back into ``{(item, ...): frequency}``."""
    out: Patterns = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                pattern, freq = line.rsplit("\t", 1)
                out[tuple(pattern.split(" "))] = int(freq)
            except ValueError as exc:
                raise EncodingError(
                    f"{path}:{lineno}: expected 'pattern<TAB>frequency', "
                    f"got {line!r}"
                ) from exc
    return out
