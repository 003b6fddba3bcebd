"""The closed-form accelerator against the event machine it replaced.

``EventDrivenAccelerator`` is the accelerator as it stood before the station
model: a busy count, a queue and three scheduler events per packet.  It is
kept here as the oracle.  Hypothesis drives both with the same packets and
reads both at the same instants; completion times and order, hand-back
times, and every counter must be bit-equal.

Instants that coincide exactly are left out: which of two events at one
timestamp the event machine runs first depends on when each was scheduled,
and the station schedules fewer of them.  Simulated runs draw their instants
from continuous distributions and never meet the case.
"""

from collections import deque

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.network.accelerator import Accelerator
from repro.sim import Environment


class EventDrivenAccelerator:
    """The reference: FIFO queue drained by ``cores`` servers, event by event."""

    def __init__(self, env, *, cores, service_time, link_delay):
        self.env = env
        self.cores = cores
        self.service_time = service_time
        self.link_delay = link_delay
        self._busy = 0
        self._queue = deque()
        self.processed = 0
        self.busy_time = 0.0
        self._started_at = env.now
        self.max_queue_seen = 0
        self.arrivals, self.completions = set(), set()  # for tie detection

    @property
    def queue_length(self):
        return len(self._queue)

    def utilization(self):
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (self.cores * elapsed)

    def reset_utilization(self):
        self.busy_time = 0.0
        self._started_at = self.env.now

    def submit(self, packet, work, done=None):
        self.env.post_in(self.link_delay, self._enqueue, (packet, work, done))

    def submit_at(self, when, packet, work, done=None):
        self.env.post_at(when + self.link_delay, self._enqueue, (packet, work, done))

    def _enqueue(self, packet, work, done):
        self.arrivals.add(self.env.now)
        if self._busy < self.cores:
            self._busy += 1
            self.env.post_in(self.service_time, self._complete, (packet, work, done))
        else:
            self._queue.append((packet, work, done))
            if len(self._queue) > self.max_queue_seen:
                self.max_queue_seen = len(self._queue)

    def _complete(self, packet, work, done):
        self.completions.add(self.env.now)
        self.processed += 1
        self.busy_time += self.service_time
        result = work(packet, self.env.now)
        if done is not None and result is not None:
            self.env.post_in(self.link_delay, done, (result,))
        if self._queue:
            self.env.post_in(self.service_time, self._complete, self._queue.popleft())
        else:
            self._busy -= 1


def _drive(make, declared, bursts, reads, horizon):
    """Run one accelerator through the scenario; return what it did and showed."""
    env = Environment()
    acc = make(env)
    worked, handed_back, seen = [], [], []

    def work(packet, finish):
        worked.append((finish, packet))
        return None if packet % 3 == 0 else packet  # every third is absorbed

    def done(packet):
        handed_back.append((env.now, packet))

    def read(reset):
        seen.append(
            (
                env.now,
                acc.processed,
                acc.busy_time,
                acc.queue_length,
                acc.max_queue_seen,
                acc.utilization(),
            )
        )
        if reset:
            acc.reset_utilization()
            seen.append((env.now, acc.busy_time, acc.utilization()))

    packet = 0
    for when, count in bursts:
        for _ in range(count):
            if declared:
                acc.submit_at(when, packet, work, done)
            else:
                env.call_at(when, acc.submit, packet, work, done)
            packet += 1
    for when, reset in reads:
        env.call_at(when, read, reset)
    env.run(until=horizon)  # past every completion, whoever's events led there
    read(False)
    return acc, worked, handed_back, seen


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    cores=st.sampled_from([1, 2, 4]),
    service_time=st.floats(min_value=1e-7, max_value=1e-3),
    link_factor=st.floats(min_value=0.0, max_value=3.0),
    declared=st.booleans(),
    bursts=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=12.0), st.integers(1, 5)),
        min_size=1,
        max_size=12,
    ),
    reads=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=40.0), st.booleans()),
        max_size=10,
    ),
)
def test_station_is_bit_equal_to_the_event_machine(
    cores, service_time, link_factor, declared, bursts, reads
):
    """``submit`` bursts at call instants, or ``submit_at`` instants declared
    up front in any order, with reads and window resets in between."""
    link_delay = link_factor * service_time
    bursts = [(when * service_time, count) for when, count in bursts]
    reads = [(when * service_time, reset) for when, reset in reads]
    settings_ = dict(cores=cores, service_time=service_time, link_delay=link_delay)
    horizon = 100 * service_time  # 60 packets at most, the last arriving by 15

    oracle, worked, handed_back, seen = _drive(
        lambda env: EventDrivenAccelerator(env, **settings_), declared, bursts, reads, horizon
    )
    # No two differently-scheduled events at one timestamp (see module docstring):
    # an arrival never meets a completion, a read meets neither.
    assume(not oracle.arrivals & oracle.completions)
    assume(not {when for when, _ in reads} & (oracle.arrivals | oracle.completions))

    station, s_worked, s_handed_back, s_seen = _drive(
        lambda env: Accelerator(env, "acc", **settings_), declared, bursts, reads, horizon
    )
    assert s_worked == worked  # completion instants, in completion order
    assert s_handed_back == handed_back
    assert s_seen == seen
    assert station.processed == oracle.processed == sum(count for _, count in bursts)


def test_reads_between_the_hand_off_and_the_arrival_see_nothing_yet():
    """``submit`` decides a packet's fate a link delay before it arrives; the
    counters must not show it early."""
    env = Environment()
    station = Accelerator(env, "acc", cores=1, service_time=5e-6, link_delay=2e-6)
    for packet in range(3):
        station.submit(packet, lambda p, t: None)
    env.run(until=1e-6)
    assert (station.queue_length, station.max_queue_seen, station.processed) == (0, 0, 0)
    env.run(until=3e-6)
    assert (station.queue_length, station.max_queue_seen, station.processed) == (2, 2, 0)
    env.run(until=8e-6)
    assert (station.queue_length, station.max_queue_seen, station.processed) == (1, 2, 1)
