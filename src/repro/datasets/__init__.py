"""Dataset substrates: the paper's running example and synthetic stand-ins
for the NYT and Amazon datasets (README.md, "Tests and benchmarks", has
the substitution note).

numpy is a dependency of the text / products generators only
(:mod:`~repro.datasets.text`, :mod:`~repro.datasets.products`,
:mod:`~repro.datasets.zipf`); the names below resolve on first use, so
the running example, the event-log generator and the hierarchy
statistics work without it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datasets.events import (
        EventLog,
        EventLogConfig,
        generate_event_log,
    )
    from repro.datasets.example import (
        eq4_partition_sequences,
        example_database,
        example_hierarchy,
    )
    from repro.datasets.products import (
        ProductData,
        ProductDataConfig,
        generate_product_data,
    )
    from repro.datasets.stats import HierarchyStats, hierarchy_stats
    from repro.datasets.text import (
        TextCorpus,
        TextCorpusConfig,
        generate_text_corpus,
    )

_EXPORTS = {
    "EventLogConfig": "repro.datasets.events",
    "EventLog": "repro.datasets.events",
    "generate_event_log": "repro.datasets.events",
    "example_database": "repro.datasets.example",
    "example_hierarchy": "repro.datasets.example",
    "eq4_partition_sequences": "repro.datasets.example",
    "TextCorpusConfig": "repro.datasets.text",
    "TextCorpus": "repro.datasets.text",
    "generate_text_corpus": "repro.datasets.text",
    "ProductDataConfig": "repro.datasets.products",
    "ProductData": "repro.datasets.products",
    "generate_product_data": "repro.datasets.products",
    "hierarchy_stats": "repro.datasets.stats",
    "HierarchyStats": "repro.datasets.stats",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
