"""The closed-form accelerator against the event machine it replaced.

``EventDrivenAccelerator`` is the accelerator as it stood before the station
model: a busy count, a queue and three scheduler events per packet.  It is
kept here as the oracle.  Hypothesis drives both with the same packets and
reads both at the same instants; completion times and order, and every
counter must be bit-equal.

Instants that coincide exactly are left out: which of two events at one
timestamp the event machine runs first depends on when each was scheduled,
and the station schedules fewer of them.  Simulated runs draw their instants
from continuous distributions and never meet the case.

The dated inbox (``note_at``) is held to the station itself: the same
hand-offs all made as events, ties in arrival included, must run the same
work in the same order with the same ``finish`` and show the same counters.
``NetRSMonitor.note_at`` likewise, against ``observe`` called at the instant.
"""

from collections import deque

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.monitor import NetRSMonitor
from repro.core.operator_node import NetRSOperator
from repro.core.placement.problem import OperatorSpec
from repro.network.accelerator import Accelerator
from repro.network.addressing import SourceMarker
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.packet import MAGIC_MONITOR, Packet, ServerStatus
from repro.network.switch import ProgrammableSwitch
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

    def submit(self, packet, work):
        self.env.post_in(self.link_delay, self._enqueue, (packet, work))

    def _enqueue(self, packet, work):
        self.arrivals.add(self.env.now)
        if self._busy < self.cores:
            self._busy += 1
            self.env.post_in(self.service_time, self._complete, (packet, work))
        else:
            self._queue.append((packet, work))
            if len(self._queue) > self.max_queue_seen:
                self.max_queue_seen = len(self._queue)

    def _complete(self, packet, work):
        self.completions.add(self.env.now)
        self.processed += 1
        self.busy_time += self.service_time
        work(packet, self.env.now)
        if self._queue:
            self.env.post_in(self.service_time, self._complete, self._queue.popleft())
        else:
            self._busy -= 1


def _drive(make, bursts, reads, horizon):
    """Run one accelerator through the scenario; return what it did and showed."""
    env = Environment()
    acc = make(env)
    worked, seen = [], []

    def work(packet, finish):
        worked.append((finish, packet))

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
            env.call_at(when, acc.submit, packet, work)
            packet += 1
    for when, reset in reads:
        env.call_at(when, read, reset)
    env.run(until=horizon)  # past every completion, whoever's events led there
    read(False)
    return acc, worked, seen


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    cores=st.sampled_from([1, 2, 4]),
    service_time=st.floats(min_value=1e-7, max_value=1e-3),
    link_factor=st.floats(min_value=0.0, max_value=3.0),
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
    cores, service_time, link_factor, bursts, reads
):
    """``submit`` bursts at call instants, with reads and window resets in
    between."""
    link_delay = link_factor * service_time
    bursts = [(when * service_time, count) for when, count in bursts]
    reads = [(when * service_time, reset) for when, reset in reads]
    settings_ = dict(cores=cores, service_time=service_time, link_delay=link_delay)
    horizon = 100 * service_time  # 60 packets at most, the last arriving by 15

    oracle, worked, seen = _drive(
        lambda env: EventDrivenAccelerator(env, **settings_), bursts, reads, horizon
    )
    # No two differently-scheduled events at one timestamp (see module docstring):
    # an arrival never meets a completion, a read meets neither.
    assume(not oracle.arrivals & oracle.completions)
    assume(not {when for when, _ in reads} & (oracle.arrivals | oracle.completions))

    station, s_worked, s_seen = _drive(
        lambda env: Accelerator(env, "acc", **settings_), bursts, reads, horizon
    )
    assert s_worked == worked  # completion instants, in completion order
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


# ---------------------------------------------------------------------------
# The dated inbox
# ---------------------------------------------------------------------------
def _drive_inbox(noted, arrivals, reads, settings_, horizon):
    """Hand ``arrivals`` -- (instant, noted how long before, or None for a
    call at the instant) -- to one station: notes through the inbox
    (``noted``) or, the reference, as one more call at their instant."""
    env = Environment()
    acc = Accelerator(env, "acc", **settings_)
    worked, seen = [], []

    def work(job, finish):
        worked.append((finish, job))

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

    # The clock's own calls first: at one instant they go before a note
    # for it, on both sides (the station's rule for a tie).
    for job, (when, ahead) in enumerate(arrivals):
        if ahead is None:
            env.call_at(when, acc.submit, job, work)
    notes = [
        (max(when - ahead, 0.0), job, when)
        for job, (when, ahead) in enumerate(arrivals)
        if ahead is not None
    ]
    if noted:
        for noted_at, job, when in notes:  # any order of instants
            env.call_at(noted_at, acc.note_at, when, job, work)
    else:
        for _noted_at, job, when in sorted(notes):  # the order they were noted in
            env.call_at(when, acc.submit, job, work)
    for when, reset in reads:
        env.call_at(when, read, reset)
    env.run(until=horizon)
    read(False)
    return worked, seen


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    cores=st.sampled_from([1, 2, 4]),
    service_time=st.floats(min_value=1e-7, max_value=1e-3),
    link_factor=st.floats(min_value=0.0, max_value=3.0),
    arrivals=st.lists(
        st.tuples(
            # A coarse grid: arrivals tie, and bursts outrun the service.
            st.integers(0, 60).map(lambda tick: tick / 4),
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0)),
        ),
        min_size=1,
        max_size=40,
    ),
    reads=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=60.0), st.booleans()), max_size=10
    ),
)
def test_notes_are_the_events_they_replace(cores, service_time, link_factor, arrivals, reads):
    """``submit`` calls in clock order among ``note_at`` hand-offs declared
    ahead in any order: work order, every ``finish`` and the
    counters at random instants are those of the same hand-offs as events."""
    arrivals = [
        (when * service_time, None if ahead is None else ahead * service_time)
        for when, ahead in arrivals
    ]
    reads = [(when * service_time, reset) for when, reset in reads]
    # A read at the very instant of a hand-off is an event tie of its own.
    assume(not {when for when, _ in reads} & {when for when, _ in arrivals})
    settings_ = dict(
        cores=cores, service_time=service_time, link_delay=link_factor * service_time
    )
    horizon = 100 * service_time  # 40 packets at most, the last arriving by 18
    expected = _drive_inbox(False, arrivals, reads, settings_, horizon)
    assert _drive_inbox(True, arrivals, reads, settings_, horizon) == expected
    assert len(expected[0]) == len(arrivals)


def test_a_note_is_no_event_and_waits_its_turn():
    env = Environment()
    station = Accelerator(env, "acc", cores=1, service_time=5e-6, link_delay=1e-6)
    worked = []
    station.note_at(10e-6, "late", lambda job, finish: worked.append((job, finish)))
    station.note_at(2e-6, "early", lambda job, finish: worked.append((job, finish)))
    env.run(until=1e-6)
    assert env.events_executed == 0
    assert station.processed == 0 and worked == []  # not due: not admitted
    env.run(until=4e-6)
    station.submit("called", lambda job, finish: worked.append((job, finish)))
    # The earlier note goes first and the call queues behind it.
    assert [job for job, _ in worked] == ["early", "called"]
    assert [finish for _, finish in worked] == pytest.approx([8e-6, 13e-6])
    env.run(until=30e-6)
    assert station.processed == 3
    assert worked[2] == ("late", pytest.approx(18e-6))
    assert env.events_executed == 0


def test_a_deactivated_operator_keeps_no_note():
    """Clones already due are folded -- they met the selector -- and those
    dated later are dropped: nothing is cloned into an idle accelerator."""
    env = Environment()
    network = Network(env, build_fat_tree(4))
    accelerator = Accelerator(env, "acc")
    switch = ProgrammableSwitch("agg0.0", network, operator_id=7, accelerator=accelerator)
    spec = OperatorSpec(operator_id=7, switch="agg0.0", tier=1, pod=0, capacity=1000.0)
    operator = NetRSOperator(spec, switch, accelerator)

    class Folds:
        def __init__(self):
            self.folded = []

        def fold(self, clone, now):
            self.folded.append(clone[0])

    selector = Folds()
    operator.activate(selector, {7: "agg0.0"})
    status = ServerStatus(queue_size=1, service_rate=500.0, timestamp=0.0)
    for when, server in ((1e-3, "due"), (3e-3, "later"), (2e-3, "due-too")):
        # A response clone, as express delivery notes one passing the switch.
        accelerator.note_at(when, (server, 0.0, status), selector.fold)
    env.run(until=2.5e-3)
    operator.deactivate()
    assert selector.folded == ["due", "due-too"]
    assert not accelerator._inbox
    env.run(until=1.0)
    assert switch.responses_cloned == 2 == accelerator.processed


# ---------------------------------------------------------------------------
# The monitor's dated counts
# ---------------------------------------------------------------------------
_GROUPS = {"host0.0.0": 1, "host0.0.1": 1, "host0.1.0": 2}  # host3.0.0: no group
_MARKERS = [SourceMarker(pod=0, rack=0), SourceMarker(pod=0, rack=1), SourceMarker(pod=2, rack=0)]


def _drive_monitor(noted, counts, reads):
    env = Environment()
    monitor = NetRSMonitor(env, marker=_MARKERS[0], group_lookup=_GROUPS.get)
    seen = []

    def observe(dst, marker):
        monitor.observe(
            Packet(src="s", dst=dst, magic=MAGIC_MONITOR, request_id=1, source_marker=marker)
        )

    def read(reset):
        seen.append(
            (env.now, monitor.counts(), monitor.rates(), monitor.observed, monitor.unmatched)
        )
        if reset:
            monitor.reset()
            seen.append((monitor.counts(), monitor.window_started_at))

    for when, ahead, dst, marker in counts:
        if noted and ahead is not None:
            env.call_at(max(when - ahead, 0.0), monitor.note_at, when, dst, marker)
        else:
            env.call_at(when, observe, dst, marker)
    for when, reset in reads:
        env.call_at(when, read, reset)
    env.run(until=100.0)
    read(False)
    return seen


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(
        st.tuples(
            st.integers(0, 40).map(lambda tick: tick / 2),
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
            st.sampled_from(sorted(_GROUPS) + ["host3.0.0"]),
            st.sampled_from(_MARKERS),
        ),
        min_size=1,
        max_size=30,
    ),
    reads=st.lists(
        st.tuples(st.integers(0, 80).map(lambda tick: tick / 4 + 0.125), st.booleans()),
        max_size=8,
    ),
)
def test_monitor_notes_are_the_counts_they_replace(counts, reads):
    """Counts dated ahead, in any order, across reads and window resets --
    one may fall between a note's declaration and its instant -- equal
    ``observe`` called at each instant (reads sit off the counts' grid)."""
    assert _drive_monitor(True, counts, reads) == _drive_monitor(False, counts, reads)
