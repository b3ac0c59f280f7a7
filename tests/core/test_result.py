"""Unit tests for MiningResult."""

import pytest

from repro.core import MiningParams
from repro.core.lash import mine
from repro.core.result import MiningResult


@pytest.fixture
def result(fig1_database, fig1_hierarchy):
    return mine(fig1_database, fig1_hierarchy, sigma=2, gamma=1, lam=3)


class TestAccess:
    def test_len(self, result):
        assert len(result) == 10

    def test_iter(self, result):
        assert all(isinstance(seq, tuple) for seq in result)

    def test_decoded_keys_are_names(self, result):
        assert ("a", "B") in result.decoded()

    def test_top_sorted_by_frequency(self, result):
        top = result.top(3)
        assert top[0] == ("a B", 3)
        assert len(top) == 3
        freqs = [f for _, f in result.top(100)]
        assert freqs == sorted(freqs, reverse=True)

    def test_to_file(self, result, tmp_path):
        path = tmp_path / "patterns.tsv"
        result.to_file(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 10
        assert lines[0] == "a B\t3"


class TestMeasurements:
    def test_empty_result_defaults(self, result):
        empty = MiningResult(
            patterns={}, vocabulary=result.vocabulary,
            params=MiningParams(1, 0, 2),
        )
        assert empty.counters["MAP_OUTPUT_BYTES"] == 0
        assert empty.phase_times().total_s == 0
        assert empty.total_metrics().map_task_s == []
