"""Golden test for the ``/metrics`` exposition text.

``render_metrics`` is a pure function of the ``/stats`` dict, so one
fixed dict with every optional block present (admission, store, router,
front end, wire, compaction + ingest, freshness, request latency) pins
the whole exposition byte-for-byte.  ``golden_metrics.txt`` was written
by the renderer as it stood before its histogram emitters were folded
into one helper; any diff is a scrape-visible change.
"""

from pathlib import Path

from repro.serve.http import render_metrics

GOLDEN = Path(__file__).with_name("golden_metrics.txt")


def _hist(buckets, total, count):
    return {"buckets": buckets, "sum_seconds": total, "count": count}


STATS = {
    "patterns": 711,
    "queries": 42,
    "cache_hits": 17,
    "cache_hit_rate": 0.4048,
    "cache_entries": 9,
    "cache_size": 1024,
    "cache_evictions": 3,
    "errors": 2,
    "total_latency_ms": 1234.567,
    "avg_latency_ms": 29.394,
    "admission": {
        "max_cost": 50000.0,
        "rejected": 1,
        "cost": _hist(
            [[10.0, 2], [100.0, 5], [1000.0, 11], [1e6, 24]], 98765.4321, 25
        ),
    },
    "store": {
        "file_bytes": 123456,
        "generation": 7,
        "shards": 2,
        "shard_stats": [{"patterns": 400}, {"patterns": 311}],
        "router": True,
        "fanouts": 30,
        "fanout_retries": 2,
        "server_failures": 1,
        "busy_sheds": 0,
        "partial_results": 1,
        "servers": {
            "127.0.0.1:7601": {"healthy": True, "in_flight": 0},
            "127.0.0.1:7602": {"healthy": False, "in_flight": 3},
        },
        "fanout_latency": {
            "0": _hist([[0.001, 3], [0.0025, 8], [2.5, 30]], 0.123456, 30),
            "1": _hist([[0.001, 0], [0.0025, 1], [2.5, 29]], 4.5, 31),
        },
        "wire": {
            "frames_sent": 60,
            "frames_received": 59,
            "raw_bytes_sent": 7000,
            "raw_bytes_received": 910000,
            "wire_bytes_sent": 7000,
            "wire_bytes_received": 150000,
            "compressed_frames_sent": 0,
            "compressed_frames_received": 12,
        },
    },
    "frontend": {
        "workers": 8,
        "max_in_flight": 16,
        "in_flight": 1,
        "rejected": 5,
        "gzipped_responses": 6,
    },
    "compaction": {
        "compactions": 3,
        "ingest": {
            "applied_deltas": 12,
            "pending_deltas": 2,
            "lag_seconds": 0.75,
        },
    },
    "freshness": {"ingested_through": 640, "retained_from": 128},
    "request_latency": {
        "/batch": _hist([[0.001, 0], [0.05, 2], [2.5, 3]], 3.25, 4),
        "/query": _hist([[0.001, 20], [0.05, 37], [2.5, 38]], 0.987654, 38),
    },
}


def test_metrics_exposition_is_byte_identical_to_golden():
    assert render_metrics(STATS) == GOLDEN.read_text(encoding="utf-8")


def test_empty_histograms_and_absent_blocks_emit_nothing():
    """The cost histogram is skipped until its first observation, and a
    stats dict without the optional blocks renders only the core lines."""
    core = {
        key: STATS[key]
        for key in (
            "patterns", "queries", "cache_hits", "cache_entries",
            "cache_size", "cache_evictions", "errors", "total_latency_ms",
        )
    }
    core["admission"] = {
        "rejected": 0, "cost": _hist([[10.0, 0]], 0.0, 0),
    }
    text = render_metrics(core)
    assert "histogram" not in text
    assert "lash_rejected_queries_total 0" in text
    assert "lash_router" not in text and "lash_ingest" not in text
