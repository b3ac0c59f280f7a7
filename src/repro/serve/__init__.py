"""Pattern serving: mine once, answer many queries fast.

The mining side of this library produces a pattern set; this package
turns it into a long-lived query-serving system:

* :class:`~repro.serve.store.PatternStore` — a compact binary on-disk
  index (vocabulary + varint-coded patterns + gap-coded postings) that
  opens in O(header) time via ``mmap`` and decodes sections lazily,
  with per-section checksums (:mod:`~repro.serve.format`,
  :mod:`~repro.serve.writer`);
* :class:`~repro.serve.sharded.ShardedPatternStore` — many shard files
  behind one backend: every read a k-way-merged ranked search,
  byte-identical to a single-file store;
* :func:`~repro.serve.writer.merge_stores` — incremental builds: fold
  new mining output into existing stores without re-mining, streaming
  in constant memory through :class:`~repro.serve.writer.PatternWriter`;
* :class:`~repro.serve.compact.StoreCompactor` /
  :class:`~repro.serve.compact.CompactionDaemon` — online compaction:
  fold delta stores into a *live* sharded store with an atomic,
  generation-tagged manifest swap (``lash index compact``, ``lash
  serve --compact-spool``);
* :class:`~repro.serve.ingest.Ingestor` — live ingestion: append or
  retire sequences against a live corpus, micro-mine just the delta
  and publish a signed (increment/decrement) store into the compaction
  spool, closing the build → ingest → compact → serve loop
  (``lash ingest``);
* :class:`~repro.serve.service.QueryService` — a thread-safe façade
  with an LRU result cache, batch API and serving stats.  That cache is
  the one place an answer is remembered: stores keep bounded caches of
  decoded bytes and facts derived from the vocabulary, shard servers
  and the router keep nothing between requests;
* :mod:`~repro.serve.http` — a dependency-free ``ThreadingHTTPServer``
  exposing ``/query``, ``/count``, ``/topk``, ``/batch``, ``/stats``,
  ``/metrics`` (Prometheus text) and ``/healthz``;
* the **distributed tier** — :class:`~repro.serve.distributed.ShardServer`
  processes each serving a shard slice over a varint-framed socket
  protocol (:mod:`~repro.serve.protocol`), and a
  :class:`~repro.serve.router.RouterBackend` that owns the cluster map,
  fans queries out, k-way merges the rank-ordered partials
  (byte-identical to a single process) and fails over across replicas
  (``lash shard-serve`` / ``lash route``);
* :func:`~repro.serve.advisor.advise_shards` — stats-driven shard-count
  advice from measured routing-group skew (``lash index info
  --advise``).

Build a store from a mining result and serve it::

    result.to_store("patterns.store")            # once, after mining
    result.to_store("patterns.shards", shards=8) # or sharded

    store = open_store("patterns.shards")        # either layout
    service = QueryService(store)
    run_server(create_server(service, port=8080))  # lash serve --store ...
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.advisor import advise_shards
    from repro.serve.compact import CompactionDaemon, StoreCompactor
    from repro.serve.distributed import ShardServer
    from repro.serve.http import (
        PatternHTTPServer,
        create_server,
        run_server,
    )
    from repro.serve.ingest import Ingestor
    from repro.serve.router import ClusterMap, RouterBackend, plan_placement
    from repro.serve.service import QueryService
    from repro.serve.sharded import ShardedPatternStore, open_store
    from repro.serve.store import PatternStore
    from repro.serve.writer import (
        PatternWriter,
        ShardedPatternWriter,
        merge_stores,
        write_sharded_store,
        write_store,
    )

# every name resolves on first use: a process that serves a store never
# loads the writer, the ingestor's mining core or (for a shard server
# without a sidecar) http.server, and one that builds a store never
# opens a socket module
_EXPORTS = {
    "PatternStore": "repro.serve.store",
    "ShardedPatternStore": "repro.serve.sharded",
    "open_store": "repro.serve.sharded",
    "PatternWriter": "repro.serve.writer",
    "ShardedPatternWriter": "repro.serve.writer",
    "write_store": "repro.serve.writer",
    "write_sharded_store": "repro.serve.writer",
    "merge_stores": "repro.serve.writer",
    "StoreCompactor": "repro.serve.compact",
    "CompactionDaemon": "repro.serve.compact",
    "Ingestor": "repro.serve.ingest",
    "QueryService": "repro.serve.service",
    "PatternHTTPServer": "repro.serve.http",
    "create_server": "repro.serve.http",
    "run_server": "repro.serve.http",
    "ShardServer": "repro.serve.distributed",
    "ClusterMap": "repro.serve.router",
    "RouterBackend": "repro.serve.router",
    "plan_placement": "repro.serve.router",
    "advise_shards": "repro.serve.advisor",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
