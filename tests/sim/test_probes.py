"""Tests for measurement probes."""

import math

import numpy as np
import pytest

from repro.sim import Counter, LatencyRecorder, TimeSeries, WelfordStats


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().get("anything") == 0

    def test_increment(self):
        counter = Counter()
        counter.increment("a")
        counter.increment("a", 4)
        assert counter.get("a") == 5

    def test_as_dict_snapshot(self):
        counter = Counter()
        counter.increment("x")
        snapshot = counter.as_dict()
        counter.increment("x")
        assert snapshot == {"x": 1}


class TestWelfordStats:
    def test_empty_stats_are_nan(self):
        stats = WelfordStats()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.variance)
        assert math.isnan(stats.minimum)
        assert math.isnan(stats.maximum)

    def test_single_sample(self):
        stats = WelfordStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert math.isnan(stats.variance)
        assert stats.minimum == stats.maximum == 3.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10, 2, size=500)
        stats = WelfordStats()
        for x in samples:
            stats.add(float(x))
        assert stats.mean == pytest.approx(np.mean(samples))
        assert stats.variance == pytest.approx(np.var(samples, ddof=1))
        assert stats.stddev == pytest.approx(np.std(samples, ddof=1))
        assert stats.minimum == pytest.approx(samples.min())
        assert stats.maximum == pytest.approx(samples.max())
        assert stats.count == 500


class TestLatencyRecorder:
    def test_empty_summary_is_nan(self):
        recorder = LatencyRecorder()
        assert all(math.isnan(v) for v in recorder.summary().values())

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().add(-0.1)

    def test_mean_and_percentiles_match_numpy(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(0.004, size=2000)
        recorder = LatencyRecorder()
        recorder.extend(samples)
        assert recorder.mean() == pytest.approx(np.mean(samples))
        for q in (50, 95, 99, 99.9):
            assert recorder.percentile(q) == pytest.approx(
                np.percentile(samples, q)
            )

    def test_percentile_bounds_checked(self):
        recorder = LatencyRecorder()
        recorder.add(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)
        with pytest.raises(ValueError):
            recorder.percentile(-1)

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.add(1.0)
        assert set(recorder.summary()) == {"mean", "p95", "p99", "p999"}

    def test_len_and_samples(self):
        recorder = LatencyRecorder()
        recorder.extend([0.1, 0.2])
        assert len(recorder) == 2
        assert recorder.samples == (0.1, 0.2)

    def test_add_after_percentile_invalidates_cache(self):
        recorder = LatencyRecorder()
        recorder.add(1.0)
        assert recorder.percentile(50) == 1.0
        recorder.add(3.0)
        assert recorder.percentile(50) == 2.0

    @pytest.mark.parametrize("container", [list, tuple, iter])
    def test_extend_equals_repeated_add(self, container):
        values = [0.3, 0.1, 0.2, 0.0]
        one_by_one, bulk = LatencyRecorder(), LatencyRecorder()
        for recorder in (one_by_one, bulk):
            recorder.add(0.5)
            assert recorder.percentile(50) == 0.5  # sorted mirror built
        for value in values:
            one_by_one.add(value)
        bulk.extend(container(values))
        bulk.extend(container([]))
        assert bulk.samples == one_by_one.samples
        assert bulk.summary() == one_by_one.summary()
        assert bulk.percentile(50) == one_by_one.percentile(50)

    def test_extend_rejects_a_negative_sample(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError, match="negative latency: -0.1"):
            recorder.extend([0.2, -0.1, 0.3])
        assert len(recorder) == 0


class TestTimeSeries:
    def test_record_and_length(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(0.5, 2.0)

    def test_as_arrays(self):
        ts = TimeSeries()
        ts.record(0.0, 5.0)
        times, values = ts.as_arrays()
        assert times.tolist() == [0.0]
        assert values.tolist() == [5.0]

    def test_time_average_step_function(self):
        ts = TimeSeries()
        ts.record(0.0, 0.0)
        ts.record(1.0, 10.0)
        # 0 for [0,1), 10 for [1,2) -> average 5 over [0,2).
        assert ts.time_average(2.0) == pytest.approx(5.0)

    def test_time_average_empty_is_nan(self):
        assert math.isnan(TimeSeries().time_average(1.0))

    def test_time_average_before_first_raises(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.time_average(0.5)
