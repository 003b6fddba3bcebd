"""Tests for the network accelerator model."""

import pytest

from repro.network.accelerator import Accelerator
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def _make(env, cores=1, service=5e-6, link=1.25e-6):
    return Accelerator(
        env, "acc", cores=cores, service_time=service, link_delay=link
    )


class TestValidation:
    def test_cores_positive(self, env):
        with pytest.raises(ValueError):
            _make(env, cores=0)

    def test_service_time_positive(self, env):
        with pytest.raises(ValueError):
            _make(env, service=0.0)

    def test_link_delay_non_negative(self, env):
        with pytest.raises(ValueError):
            _make(env, link=-1e-9)


class TestProcessing:
    def test_single_packet_timing(self, env):
        acc = _make(env)
        finished = []
        acc.submit("p", work=lambda p, t: finished.append(t))
        env.run()
        # link + service = 1.25 + 5 us
        assert finished == [pytest.approx(6.25e-6)]

    def test_fifo_queueing_single_core(self, env):
        acc = _make(env)
        finish_times = []
        for i in range(3):
            acc.submit(i, work=lambda p, t: finish_times.append(t))
        env.run()
        # Arrivals at 1.25us; service completions at 6.25, 11.25, 16.25.
        assert finish_times == [
            pytest.approx(6.25e-6),
            pytest.approx(11.25e-6),
            pytest.approx(16.25e-6),
        ]

    def test_multicore_parallelism(self, env):
        acc = _make(env, cores=2)
        finish_times = []
        for i in range(2):
            acc.submit(i, work=lambda p, t: finish_times.append(t))
        env.run()
        assert finish_times == [pytest.approx(6.25e-6), pytest.approx(6.25e-6)]

    def test_queue_length_peak_tracked(self, env):
        acc = _make(env)
        for i in range(5):
            acc.submit(i, work=lambda p, t: None)
        assert acc.max_queue_seen == 0  # still on the link
        env.run(until=2e-6)
        assert acc.queue_length == acc.max_queue_seen == 4
        env.run(until=1e-3)
        assert acc.max_queue_seen == 4
        assert acc.queue_length == 0

    def test_processed_counter(self, env):
        acc = _make(env)
        for i in range(4):
            acc.submit(i, work=lambda p, t: None)
        env.run(until=12e-6)  # completions at 6.25, 11.25, 16.25, 21.25 us
        assert acc.processed == 2
        env.run(until=1e-3)
        assert acc.processed == 4


class TestUtilization:
    def test_capacity(self, env):
        acc = _make(env, cores=2, service=5e-6)
        assert acc.capacity == pytest.approx(400_000.0)

    def test_utilization_fraction(self, env):
        acc = _make(env)
        acc.submit(1, work=lambda p, t: None)
        env.run(until=12.5e-6)  # one 5 us service in a 12.5 us window
        assert acc.utilization() == pytest.approx(0.4)

    def test_reset_utilization(self, env):
        acc = _make(env)
        acc.submit(1, work=lambda p, t: None)
        env.run(until=1e-3)
        assert acc.busy_time == 5e-6
        acc.reset_utilization()
        assert acc.utilization() == 0.0
        assert acc.busy_time == 0.0

    def test_reset_mid_service_keeps_the_completion_for_the_new_window(self, env):
        acc = _make(env)
        acc.submit(1, work=lambda p, t: None)
        env.run(until=3e-6)  # in service until 6.25 us
        acc.reset_utilization()
        env.run(until=13e-6)
        assert acc.busy_time == 5e-6
        assert acc.utilization() == pytest.approx(0.5)

    def test_work_is_told_its_completion_instant(self, env):
        acc = _make(env)
        told = []
        for i in range(2):
            acc.submit(i, work=lambda p, t: told.append(t))
        assert told == [pytest.approx(6.25e-6), pytest.approx(11.25e-6)]

    def test_idle_utilization_zero(self, env):
        acc = _make(env)
        env.call_in(1.0, lambda: None)
        env.run()
        assert acc.utilization() == 0.0
