"""The streaming-merge memory guard (acceptance criterion of the
streaming store pipeline).

``merge_stores`` must run in memory bounded by its sort buffer, not by
the size of the source stores: merging stores several times larger must
not raise the tracemalloc peak more than a small fixed slack.  CI runs
this file as part of the store-pipeline smoke job, so a regression that
re-materializes pattern sets anywhere on the merge path fails the
build.
"""

import random
import tracemalloc

from repro.hierarchy import Hierarchy
from repro.query import code_patterns
from repro.serve import merge_stores, open_store, write_store

#: fixed vocabulary for every generated store, so the O(items) cost —
#: legitimately resident in both runs — cancels out of the comparison
ITEMS = [f"i{k:02d}" for k in range(40)]

#: small enough that both workloads fill it several times over (2× and
#: 10×) — peak memory is then the buffer itself plus a small
#: per-spill-run term, not the pattern count
SORT_BUFFER = 2048


def _build_pair(tmp_path, label, n_patterns, seed):
    rng = random.Random(seed)
    hierarchy = Hierarchy.flat(ITEMS)
    paths = []
    for part in range(2):
        patterns = {}
        while len(patterns) < n_patterns:
            length = rng.randint(1, 4)
            pattern = tuple(rng.choice(ITEMS) for _ in range(length))
            patterns[pattern] = rng.randint(1, 90)
        coded, vocabulary = code_patterns(patterns, hierarchy)
        path = tmp_path / f"{label}{part}.store"
        write_store(path, coded, vocabulary)
        paths.append(path)
    return paths


def _merge_peak(sources, out):
    """Peak traced bytes over one streaming merge."""
    tracemalloc.start()
    try:
        merge_stores(sources, out, sort_buffer=SORT_BUFFER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_merge_peak_memory_independent_of_store_size(tmp_path):
    small_sources = _build_pair(tmp_path, "small", 2_000, seed=1)
    large_sources = _build_pair(tmp_path, "large", 10_000, seed=2)

    small_peak = _merge_peak(small_sources, tmp_path / "small.merged")
    large_peak = _merge_peak(large_sources, tmp_path / "large.merged")

    # 5x the patterns may cost a little more (more spill-run handles,
    # allocator noise) but nothing close to 5x: a materializing merge
    # (a sort buffer larger than the input) grows ~5.5x here and
    # overshoots this bound ~3x; the streaming merge grows ~1.3x
    assert large_peak < small_peak * 1.4 + 512 * 1024, (
        f"streaming merge peak grew with store size: "
        f"{small_peak} -> {large_peak} bytes"
    )

    # and the bounded merge still produced the real union
    with open_store(tmp_path / "large.merged") as store:
        assert len(store) > 10_000


def test_bounded_merge_output_matches_unbounded(tmp_path):
    sources = _build_pair(tmp_path, "eq", 800, seed=3)
    bounded = tmp_path / "bounded.store"
    merge_stores(sources, bounded, sort_buffer=64)
    unbounded = tmp_path / "unbounded.store"
    merge_stores(sources, unbounded, sort_buffer=1 << 20)
    assert bounded.read_bytes() == unbounded.read_bytes()
