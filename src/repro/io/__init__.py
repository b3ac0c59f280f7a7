"""File formats for databases, hierarchies, f-lists and mined patterns.

Every reader/writer accepts plain and gzip-compressed files (``.gz``
suffix).  Formats:

* **sequence database** — one sequence per line, whitespace- (or
  custom-) separated items (:mod:`repro.io.database`);
* **hierarchy** — ``child<TAB>parent`` lines, or a JSON object
  ``{"item": ["parent", ...]}`` for ``.json`` paths
  (:mod:`repro.io.hierarchy`);
* **generalized f-list** — ``item<TAB>frequency`` lines in total-order
  rank order; together with a hierarchy this reconstructs the
  :class:`~repro.hierarchy.vocabulary.Vocabulary`, so preprocessing can be
  reused across runs exactly as Sec. 3.4 describes (:mod:`repro.io.flist`);
* **patterns** — ``item item …<TAB>frequency`` lines
  (:mod:`repro.io.patterns`).

:mod:`repro.io.codec` holds the binary primitives (varint, zigzag,
delta lists) behind the pattern-store format of :mod:`repro.serve`, and
:mod:`repro.io.runs` the package's one external sort.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.io.database import read_database, write_database
    from repro.io.flist import read_vocabulary, write_vocabulary
    from repro.io.hierarchy import read_hierarchy, write_hierarchy
    from repro.io.lines import open_text
    from repro.io.patterns import read_patterns, write_patterns

_EXPORTS = {
    "open_text": "repro.io.lines",
    "read_database": "repro.io.database",
    "write_database": "repro.io.database",
    "read_hierarchy": "repro.io.hierarchy",
    "write_hierarchy": "repro.io.hierarchy",
    "read_vocabulary": "repro.io.flist",
    "write_vocabulary": "repro.io.flist",
    "read_patterns": "repro.io.patterns",
    "write_patterns": "repro.io.patterns",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
