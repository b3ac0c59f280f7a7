"""The repo's end-to-end benchmark: mine → store → HTTP serve → route →
live ingest, with per-layer attribution.

Everything here drives the system through its public surface
(``repro.Lash``, ``MiningResult.to_store``, ``open_store``,
``QueryService``, ``Ingestor`` and the ``lash serve | shard-serve |
route`` processes over HTTP) and imports nothing from the legacy
``benchmarks/bench_*.py`` scripts.  See ``README.md`` next to ``run.py``.
"""
