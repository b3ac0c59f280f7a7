"""The metric and workload catalogue.

``BENCHMARK.json`` at the repo root is the one place workloads, metric
names, units, directions and bounds are written down; this module reads
it.  What its fixed shape has no room for is here (which of the issue's
readings each gated metric carries on each workload, the standard seeds)
or in ``README.md`` (which end-to-end metric each per-layer metric should
move, and where).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[3] / "BENCHMARK.json"

#: the seeds of a standard set of runs; anything >= 1000 is a hold-out
DEFAULT_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


@dataclass(frozen=True)
class Catalogue:
    run_seconds: int
    #: name -> why the workload was chosen
    workloads: dict[str, str]
    #: gated: name -> (unit, better, bound)
    end_to_end: dict[str, tuple[str, str, float]]
    #: name -> (unit, better); the layer is the module-path prefix
    per_layer: dict[str, tuple[str, str]]


@functools.lru_cache(maxsize=None)
def load(path: Path = BENCHMARK_JSON) -> Catalogue:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return Catalogue(
        run_seconds=spec["run_seconds"],
        workloads={w["name"]: w["why"] for w in spec["workloads"]},
        end_to_end={
            m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]
        },
        per_layer={
            m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
        },
    )


# The driver wants every gated metric, non-zero, on every workload, so the
# gated names are generic; this says which of the issue's named readings
# each one is on a workload.  "(= op_ms)" marks a slot that has no reading
# of its own there and repeats another.
_MINING = {
    "setup_s": "setup_s: input generation + one small untimed job per engine",
    "op_ms": "job_s x 1000, serial engine, median over repetitions",
    "tail_ms": "upper quartile of the serial repetitions' job_s x 1000",
    "fresh_s": "job_s: new corpus -> first answer that reflects it (= op_ms)",
    "peak_rss_mb": "VmHWM of the mining process (+ pool workers)",
    "store_bytes_per_pattern": "shard-file bytes / stored patterns",
}
_SERVING = {
    "setup_s": "setup_s: corpus -> mined store -> processes up -> warm-up",
    "op_ms": "p50_ms of GET /query",
    "tail_ms": "p90 of GET /query (p95_ms is bench.p95_ms)",
    "ops_per_s": "qps: correct responses / s, median over repetitions",
    "fresh_s": "store on disk -> processes started -> first correct answer, "
    "median of 3 cold starts",
    "peak_rss_mb": "summed VmHWM of the server processes",
    "store_bytes_per_pattern": "bytes / pattern of the served store",
}
CARRIES = {
    "mine_text": {
        **_MINING, "ops_per_s": "input sequences / job_s (= op_ms)",
    },
    "mine_products": {
        **_MINING,
        "ops_per_s": "input sequences / parallel_job_s (2-worker engine)",
    },
    "serve_mono": _SERVING,
    "serve_router": _SERVING,
    "ingest_live": {
        **_SERVING,
        "setup_s": "setup_s: corpus -> sigma=1 store -> ingest state -> "
        "server up -> warm-up",
        "op_ms": "p50_ms of GET /query while batches fold",
        "tail_ms": "p90 of GET /query while batches fold",
        "fresh_s": "visible_p50_s: batch due -> first answer covering it",
        "peak_rss_mb": "VmHWM of server + ingester",
        "store_bytes_per_pattern": "bytes / pattern of the live store "
        "after drain",
    },
}
