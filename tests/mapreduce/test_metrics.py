"""Unit tests for per-task timing metrics and phase summaries."""

import pytest

from repro.mapreduce import JobMetrics, PhaseTimes


class TestPhaseTimes:
    def test_phase_times_addition(self):
        p = PhaseTimes(1.0, 0.5, 2.0) + PhaseTimes(1.0, 0.5, 1.0)
        assert p.map_s == 2.0
        assert p.total_s == pytest.approx(6.0)

    def test_row_rendering(self):
        row = PhaseTimes(1.0, 0.5, 2.0).row()
        assert row["Total"] == 3.5


class TestJobMetrics:
    def test_serial_phase_times(self):
        m = JobMetrics(map_task_s=[1, 2], reduce_task_s=[3], shuffle_s=0.5)
        p = m.serial_phase_times()
        assert p.map_s == 3
        assert p.reduce_s == 3
        assert p.shuffle_s == 0.5

    def test_merge(self):
        a = JobMetrics(map_task_s=[1.0], shuffle_bytes=10)
        b = JobMetrics(map_task_s=[2.0], reduce_task_s=[1.0], shuffle_bytes=5)
        a.merge(b)
        assert a.map_task_s == [1.0, 2.0]
        assert a.shuffle_bytes == 15
