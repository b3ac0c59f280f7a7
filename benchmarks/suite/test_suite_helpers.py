"""Tier-1 checks of the benchmark suite's pure helpers (no subprocesses,
no servers): the percentile rule, span self-time, seeded generators and
``--compare`` verdicts, and that the catalogue covers ``BENCHMARK.json``.
"""

import itertools
import json
from pathlib import Path

import pytest

from lashbench import catalogue, gen, report, stats
from lashbench.spans import SpanRecorder, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond_it(samples, expected):
    assert stats.supported_percentile(samples) == expected


def test_capped_percentile_falls_back_to_what_the_sample_supports():
    values = list(range(1, 151))  # 150 samples support p90, not p95
    assert stats.capped_percentile(values, 95) == (90.0, stats.percentile(values, 90))
    assert stats.capped_percentile(list(range(1, 401)), 95)[0] == 95.0


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    assert stats.percentile([3, 1, 2], 100) == 3


# -- spans --------------------------------------------------------------


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        {"id": 0, "name": "request", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "router", "start": 1.0, "end": 9.0, "parent": 0},
        # two overlapping shard calls: the cover is their union, 2..7
        {"id": 2, "name": "shard", "start": 2.0, "end": 6.0, "parent": 1},
        {"id": 3, "name": "shard", "start": 3.0, "end": 7.0, "parent": 1},
    ]
    assert self_times(spans) == {"request": 2.0, "router": 3.0, "shard": 8.0}


def test_recorder_nests_by_thread_and_accepts_an_explicit_parent():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer", request=7) as outer:
        with recorder.span("inner"):
            pass
        with recorder.span("handed_off", parent=outer):
            pass
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == outer
    assert by_name["handed_off"]["parent"] == outer
    assert by_name["outer"]["parent"] is None and by_name["outer"]["request"] == 7
    assert recorder.current() is None
    # outer spans ticks 0..5, each child one tick
    assert self_times(recorder.spans)["outer"] == 3.0
    assert recorder.durations("inner") == [1.0]


# -- seeded generators ----------------------------------------------------

PATTERNS = [("the", "ADJ", "NOUN"), ("a", "NOUN"), ("she", "VERB", "it"),
            ("NOUN", "VERB"), ("it", "runs")]
PARENTS = {"the": "DET", "a": "DET", "she": "PRON", "it": "PRON",
           "ADJ": "ADJ", "NOUN": "NOUN", "VERB": "VERB", "runs": "VERB"}


def test_query_pool_is_deterministic_distinct_and_parseable():
    from repro.query import parse_query

    pool = gen.query_pool(PATTERNS, PARENTS, seed=3, size=30)
    assert pool == gen.query_pool(PATTERNS, PARENTS, seed=3, size=30)
    assert pool != gen.query_pool(PATTERNS, PARENTS, seed=4, size=30)
    assert len(set(pool)) == len(pool) == 30
    for query in pool:
        assert parse_query(query)


def test_query_pool_stops_when_the_template_space_is_exhausted():
    pool = gen.query_pool([("a", "b")], {"a": "A", "b": "B"}, seed=1, size=100)
    assert len(pool) == len(gen.QUERY_TEMPLATES)


def test_request_stream_is_deterministic_and_keeps_the_mix():
    pool = gen.query_pool(PATTERNS, PARENTS, seed=3, size=30)
    first = list(itertools.islice(gen.iter_requests(pool, 5, 0.9), 2000))
    again = list(itertools.islice(gen.iter_requests(pool, 5, 0.9), 2000))
    assert first == again
    kinds = [r.kind for r in first]
    assert 0.85 < kinds.count("query") / 2000 < 0.95
    assert all(len(r.queries) == gen.BATCH_SIZE for r in first if r.kind == "batch")
    # the skewed draw favours the head of the pool, the uniform one does not
    head = sum(r.queries[0] == pool[0] for r in first)
    uniform = list(itertools.islice(gen.iter_requests(pool, 5, None), 2000))
    assert head > 2 * sum(r.queries[0] == pool[0] for r in uniform)


def test_ingest_schedule_levels_off():
    schedule = gen.ingest_schedule(duration=4.0, period=0.5, batch=10, level=30)
    assert schedule == gen.ingest_schedule(4.0, 0.5, 10, 30)
    assert [t.due for t in schedule] == [0.5 * i for i in range(8)]
    assert [(t.first, t.last) for t in schedule[:2]] == [(0, 10), (10, 20)]
    assert [t.retire for t in schedule] == [0, 0, 0, 10, 10, 10, 10, 10]


# -- --compare verdicts -------------------------------------------------


def test_verdicts_on_hand_made_runs():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    ok = stats.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)
    assert ok["verdict"] == "ok" and ok["ratio"] == pytest.approx(1.05)
    worse = stats.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)
    assert worse["verdict"] == "regressed"
    # for a rate, lower is the regression
    assert stats.verdict(steady, [v * 0.8 for v in steady], "higher", 0.10)["verdict"] == "regressed"
    assert stats.verdict(steady, [v * 1.3 for v in steady], "higher", 0.10)["verdict"] == "ok"
    # spread wider than the bound: a 5 % shift cannot be told from noise ...
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert stats.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10)["verdict"] == "unresolved"
    # ... unless every run of the change beats every run of the base
    assert stats.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10)["verdict"] == "ok"


def _result(op_ms):
    return {
        "runs": [
            {"workload": "serve_mono", "metrics": {"op_ms": {"value": v, "unit": "ms"}}}
            for v in op_ms
        ]
    }


def test_compare_files_exits_non_zero_only_on_a_regression(tmp_path, capsys):
    base = tmp_path / "a.json"
    same = tmp_path / "b.json"
    slow = tmp_path / "c.json"
    base.write_text(json.dumps(_result([44.0, 44.1, 43.9])))
    same.write_text(json.dumps(_result([44.2, 44.0, 44.1])))
    slow.write_text(json.dumps(_result([66.0, 66.1, 65.9])))
    assert report.compare_files(str(base), str(same)) == 0
    assert report.compare_files(str(base), str(slow)) == 1
    printed = capsys.readouterr().out
    assert "regressed" in printed and "x1.5" in printed


def test_summary_gives_median_quartiles_and_run_count():
    result = {**_result([44.0, 46.0, 45.0, 43.0, 47.0]), "machine": {}, "seeds": [1]}
    row = report.summarize(result)["workloads"]["serve_mono"]["op_ms"]
    assert row["median"] == 45.0 and row["runs"] == 5
    assert row["spread"] == pytest.approx((row["q3"] - row["q1"]) / 45.0)


# -- the catalogue is BENCHMARK.json -------------------------------------


def test_catalogue_reads_benchmark_json_and_covers_every_gated_slot():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = catalogue.load()
    assert committed["paths"] == ["benchmarks/suite"]
    assert list(names.workloads) == [w["name"] for w in committed["workloads"]]
    assert all(len(why) <= 200 for why in names.workloads.values())
    assert all(bound <= 0.25 for _, _, bound in names.end_to_end.values())
    assert names.end_to_end["setup_s"] == ("s", "lower", 0.25)
    every = list(names.end_to_end) + list(names.per_layer)
    assert len(every) == len(set(every))
    # each workload says which reading every gated metric carries there
    assert set(catalogue.CARRIES) == set(names.workloads)
    for carries in catalogue.CARRIES.values():
        assert set(carries) == set(names.end_to_end)
