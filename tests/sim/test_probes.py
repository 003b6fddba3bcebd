"""Tests for the latency recorder."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.sim import LatencyRecorder


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
        assert type(recorder.samples) is tuple
        assert [type(value) for value in recorder.samples] == [float, float]

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

    @pytest.mark.parametrize("q", [0, 0.1, 25, 50, 62.5, 95, 99, 99.9, 100])
    def test_percentile_is_bit_equal_to_numpy(self, q):
        """Incremental (insort) and bulk (re-sorted) mirrors both give the
        exact float ``np.percentile`` does."""
        samples = np.random.default_rng(3).exponential(0.004, size=1001)
        incremental, bulk = LatencyRecorder(), LatencyRecorder()
        incremental.add(float(samples[0]))
        incremental.percentile(50)  # build the mirror, then keep it sorted
        for value in samples[1:]:
            incremental.add(float(value))
        bulk.extend(samples.tolist())
        expected = float(np.percentile(samples, q))
        assert incremental.percentile(q) == expected
        assert bulk.percentile(q) == expected

    def test_mean_follows_new_samples(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 3.0])
        assert recorder.mean() == 2.0
        assert recorder.mean() == 2.0  # cached
        recorder.add(5.0)
        assert recorder.mean() == 3.0

    @pytest.mark.parametrize(
        "block",
        [
            np.array([0.3, 0.1, 0.2]),
            np.array([0.3, 0.1, 0.2], dtype=np.float32),  # widened exactly
            np.array([0.3, 9.0, 0.1, 9.0, 0.2])[::2],  # a strided view
            np.array([[0.3, 0.1], [0.2, 0.7]]).T[0],  # a column
        ],
    )
    def test_extend_array_equals_extend(self, block):
        by_array, by_list = LatencyRecorder(), LatencyRecorder()
        for recorder in (by_array, by_list):
            recorder.add(0.4)
            recorder.percentile(50)
        by_array.extend_array(block)
        by_array.extend_array(np.array([]))
        by_list.extend(block.tolist())
        assert by_array.samples == by_list.samples
        assert by_array.summary() == by_list.summary()

    def test_a_bulk_sort_boxes_no_sample(self):
        """The sorted mirror is a float64 copy sorted in place: a query after
        a bulk append allocates about the buffer's 8 B a sample, not a
        boxed float's 32."""
        recorder = LatencyRecorder()
        recorder.extend_array(np.random.default_rng(5).exponential(0.004, size=20_000))
        tracemalloc.start()
        try:
            recorder.mean()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * len(recorder)

    def test_extend_array_rejects_a_negative_block_whole(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError, match="negative latency"):
            recorder.extend_array(np.array([0.2, -0.1]))
        assert len(recorder) == 0

