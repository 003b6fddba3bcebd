"""Tests for the network accelerator model."""

import pytest

from repro.errors import ProtocolError
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


class TestAdmissionModes:
    """One accelerator takes ``submit`` with ``note_at``, or ``submit_at``:
    the call that mixes the two modes raises, whichever came first."""

    def test_submit_at_after_a_note_raises(self, env):
        acc = _make(env)
        acc.submit("p", work=lambda p, t: None)  # submit and note_at mix freely
        acc.note_at(1e-3, "clone", lambda job, t: None)
        with pytest.raises(ProtocolError, match="mixes admission modes"):
            acc.submit_at(2e-3, "q", work=lambda p, t: None)

    def test_note_after_a_submit_at_raises(self, env):
        acc = _make(env)
        acc.submit_at(1e-3, "p", work=lambda p, t: None)
        with pytest.raises(ProtocolError, match="mixes admission modes"):
            acc.note_at(2e-3, "clone", lambda job, t: None)


class TestProcessing:
    def test_single_packet_timing(self, env):
        acc = _make(env)
        done = []
        acc.submit("p", work=lambda p, t: p, done=lambda p: done.append(env.now))
        env.run()
        # link + service + link = 1.25 + 5 + 1.25 us
        assert done == [pytest.approx(7.5e-6)]

    def test_submit_at_equals_submit_called_then(self, env):
        """A driver that knows the hand-off instants in closed form declares
        them up front; queueing and completion times must not notice."""
        instants = [0.0, 1e-6, 2e-6, 40e-6]  # a burst that queues, then a lone one
        called, declared = _make(env), _make(env)
        done_called, done_declared = [], []
        for index, when in enumerate(instants):
            env.call_at(
                when, called.submit, index, lambda p, t: p,
                lambda p: done_called.append((env.now, p)),
            )
            declared.submit_at(
                when, index, lambda p, t: p, lambda p: done_declared.append((env.now, p))
            )
        env.run()
        assert done_declared == done_called
        assert len(done_called) == len(instants)
        assert declared.max_queue_seen == called.max_queue_seen == 2
        assert declared.busy_time == called.busy_time

    def test_work_transforms_packet(self, env):
        acc = _make(env)
        results = []
        acc.submit(1, work=lambda p, t: p + 10, done=results.append)
        env.run()
        assert results == [11]

    def test_absorbing_work_skips_done(self, env):
        acc = _make(env)
        results = []
        acc.submit(1, work=lambda p, t: None, done=results.append)
        env.run(until=1e-3)  # nothing is scheduled for absorbed work
        assert results == []
        assert acc.processed == 1

    def test_fifo_queueing_single_core(self, env):
        acc = _make(env)
        finish_times = []
        for i in range(3):
            acc.submit(i, work=lambda p, t: p, done=lambda p: finish_times.append(env.now))
        env.run()
        # Arrivals at 1.25us; service completions at 6.25, 11.25, 16.25 (+link).
        assert finish_times == [
            pytest.approx(7.5e-6),
            pytest.approx(12.5e-6),
            pytest.approx(17.5e-6),
        ]

    def test_multicore_parallelism(self, env):
        acc = _make(env, cores=2)
        finish_times = []
        for i in range(2):
            acc.submit(i, work=lambda p, t: p, done=lambda p: finish_times.append(env.now))
        env.run()
        assert finish_times == [pytest.approx(7.5e-6), pytest.approx(7.5e-6)]

    def test_queue_length_peak_tracked(self, env):
        acc = _make(env)
        for i in range(5):
            acc.submit(i, work=lambda p, t: p)
        assert acc.max_queue_seen == 0  # still on the link
        env.run(until=2e-6)
        assert acc.queue_length == acc.max_queue_seen == 4
        env.run(until=1e-3)
        assert acc.max_queue_seen == 4
        assert acc.queue_length == 0

    def test_processed_counter(self, env):
        acc = _make(env)
        for i in range(4):
            acc.submit(i, work=lambda p, t: p)
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
        acc.submit(1, work=lambda p, t: p)
        env.run(until=12.5e-6)  # one 5 us service in a 12.5 us window
        assert acc.utilization() == pytest.approx(0.4)

    def test_reset_utilization(self, env):
        acc = _make(env)
        acc.submit(1, work=lambda p, t: p)
        env.run(until=1e-3)
        assert acc.busy_time == 5e-6
        acc.reset_utilization()
        assert acc.utilization() == 0.0
        assert acc.busy_time == 0.0

    def test_reset_mid_service_keeps_the_completion_for_the_new_window(self, env):
        acc = _make(env)
        acc.submit(1, work=lambda p, t: p)
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
