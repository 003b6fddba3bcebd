"""Stateful property test: the engine's schedule against a reference model."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim import Environment

DELAYS = st.floats(min_value=0, max_value=10)


class EnvironmentClockMachine(RuleBasedStateMachine):
    """Callbacks, cancellable (``call_in``) or not (``post_in``), run in
    ``(when, scheduling order)`` order, on time, once, and never once
    cancelled -- across ``run(until=)`` splits and compaction passes."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.scheduled = {}  # tag (scheduling order) -> due time
        self.handles = {}  # tag -> handle of a cancellable entry still due
        self.cancelled = set()
        self.fired = []  # tags in execution order
        self.fired_at = {}
        self.counter = 0
        self.compactions = 0
        compact = self.env._compact

        def counted():
            self.compactions += 1
            compact()

        self.env._compact = counted

    def _fire(self, tag):
        assert tag not in self.fired_at, "callback ran twice"
        assert tag not in self.cancelled, "cancelled callback ran"
        self.fired.append(tag)
        self.fired_at[tag] = self.env.now
        self.handles.pop(tag, None)

    def _tag(self, delay):
        self.counter += 1
        self.scheduled[self.counter] = self.env.now + delay
        return self.counter

    def _call_in(self, delay):
        tag = self._tag(delay)
        self.handles[tag] = self.env.call_in(delay, self._fire, tag)
        return tag

    def _cancel(self, tag):
        self.handles.pop(tag).cancel()
        self.cancelled.add(tag)

    def _due(self, until):
        """The reference order: live entries due by ``until``."""
        due = [
            tag
            for tag, when in self.scheduled.items()
            if when <= until and tag not in self.cancelled
        ]
        return sorted(due, key=lambda tag: (self.scheduled[tag], tag))

    @rule(delay=DELAYS)
    def call_in(self, delay):
        self._call_in(delay)

    @rule(delay=DELAYS)
    def post_in(self, delay):
        self.env.post_in(delay, self._fire, (self._tag(delay),))

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        self._cancel(data.draw(st.sampled_from(sorted(self.handles))))

    @rule(
        size=st.integers(min_value=64, max_value=96),
        delay=DELAYS,
        keep=st.integers(min_value=0, max_value=3),
    )
    def burst(self, size, delay, keep):
        """Schedule a same-time burst and cancel all of it but ``keep``
        entries: at least 64 cancellations and more than the rest of the
        schedule, so a compaction pass must run."""
        size = max(size, len(self.env._heap) + len(self.env._dq) + keep)
        tags = [self._call_in(delay) for _ in range(size + keep)]
        before = self.compactions
        for tag in tags[keep:]:
            self._cancel(tag)
        assert self.compactions > before

    @rule(step=st.floats(min_value=0, max_value=5))
    def advance(self, step):
        before = self.env.now
        self.env.run(until=before + step)
        assert self.env.now == before + step
        assert self.fired == self._due(self.env.now)

    @invariant()
    def fired_on_time_and_counted(self):
        for tag, at in self.fired_at.items():
            assert at == self.scheduled[tag]
        assert self.env.events_executed == len(self.fired)

    def teardown(self):
        self.env.run()
        assert self.fired == self._due(float("inf"))
        assert set(self.fired) == set(self.scheduled) - self.cancelled
        assert self.env.events_executed == len(self.fired)


TestEnvironmentClockMachine = EnvironmentClockMachine.TestCase

TestEnvironmentClockMachine.settings = settings(
    max_examples=30, stateful_step_count=30
)
