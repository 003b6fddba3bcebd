"""Tests for the event loop: scheduling, ordering, cancellation, stop semantics."""

import cProfile
import gc
import heapq
import random

import pytest

from repro.sim import Environment, SimulationError, StopSimulation
from repro.sim.core import collector_parked


@pytest.fixture
def env():
    return Environment()


class TestClockAndCallbacks:
    def test_initial_time_is_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_call_in_advances_clock(self, env):
        seen = []
        env.call_in(1.5, lambda: seen.append(env.now))
        env.run()
        assert seen == [1.5]

    def test_call_at_absolute_time(self, env):
        seen = []
        env.call_at(2.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [2.0]

    def test_call_at_past_raises(self, env):
        env.call_in(1.0, lambda: None)
        env.run()
        with pytest.raises(SimulationError):
            env.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self, env):
        with pytest.raises(SimulationError):
            env.call_in(-0.1, lambda: None)

    def test_callback_args_passed(self, env):
        seen = []
        env.call_in(0.0, seen.append, 42)
        env.run()
        assert seen == [42]

    def test_fifo_order_at_same_time(self, env):
        seen = []
        for i in range(5):
            env.call_in(1.0, seen.append, i)
        env.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_time_order(self, env):
        seen = []
        env.call_in(3.0, seen.append, "c")
        env.call_in(1.0, seen.append, "a")
        env.call_in(2.0, seen.append, "b")
        env.run()
        assert seen == ["a", "b", "c"]

    def test_cancel_prevents_execution(self, env):
        seen = []
        handle = env.call_in(1.0, seen.append, 1)
        handle.cancel()
        env.run()
        assert seen == []

    def test_nested_scheduling(self, env):
        seen = []

        def outer():
            seen.append(("outer", env.now))
            env.call_in(1.0, inner)

        def inner():
            seen.append(("inner", env.now))

        env.call_in(1.0, outer)
        env.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]

    def test_events_executed_counter(self, env):
        for _ in range(7):
            env.call_in(0.1, lambda: None)
        env.run()
        assert env.events_executed == 7


class TestRunUntil:
    def test_run_until_stops_clock_at_bound(self, env):
        env.call_in(10.0, lambda: None)
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_until_executes_due_events(self, env):
        seen = []
        env.call_in(1.0, seen.append, 1)
        env.call_in(9.0, seen.append, 2)
        env.run(until=5.0)
        assert seen == [1]

    def test_run_until_past_raises(self, env):
        env.call_in(1.0, lambda: None)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=0.5)

    def test_resume_after_run_until(self, env):
        seen = []
        env.call_in(1.0, seen.append, 1)
        env.call_in(9.0, seen.append, 2)
        env.run(until=5.0)
        env.run()
        assert seen == [1, 2]

    def test_stop_from_callback(self, env):
        seen = []
        env.call_in(1.0, lambda: env.stop("bail"))
        env.call_in(2.0, seen.append, "never")
        value = env.run()
        assert value == "bail"
        assert seen == []

    def test_peek_empty_heap(self, env):
        assert env.peek() == float("inf")

    def test_peek_next_time(self, env):
        env.call_in(3.0, lambda: None)
        assert env.peek() == 3.0

    def test_run_until_runs_an_entry_due_exactly_then(self, env):
        seen = []
        env.call_in(2.0, seen.append, "due")
        env.run(until=2.0)
        assert seen == ["due"]
        assert env.now == 2.0

    def test_run_until_past_the_last_entry_parks_the_clock_there(self, env):
        env.call_in(1.0, lambda: None)
        assert env.run(until=7.5) is None
        assert env.now == 7.5
        assert env.peek() == float("inf")

    def test_events_executed_accumulates_across_runs(self, env):
        for delay in (1.0, 2.0, 3.0):
            env.call_in(delay, lambda: None)
        env.run(until=1.5)
        assert env.events_executed == 1
        env.run()
        assert env.events_executed == 3

    def test_stop_outside_a_run_raises_with_its_value(self, env):
        with pytest.raises(StopSimulation) as stopped:
            env.stop("outside")
        assert stopped.value.value == "outside"

    def test_a_failing_callback_propagates_and_the_run_resumes(self, env):
        seen = []

        def boom():
            raise RuntimeError("boom")

        env.call_in(1.0, boom)
        env.call_in(2.0, seen.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 1.0
        assert env.events_executed == 1  # the callback ran, then raised
        env.run()
        assert seen == ["after"]
        assert env.events_executed == 2

    @pytest.mark.parametrize("fails", [False, True])
    def test_the_collector_is_restored_after_a_run(self, env, fails):
        def check():
            assert not gc.isenabled()  # paused while the loop runs
            if fails:
                raise RuntimeError("boom")

        env.call_in(1.0, check)
        assert gc.isenabled()
        if fails:
            with pytest.raises(RuntimeError):
                env.run()
        else:
            env.run()
        assert gc.isenabled()

    def test_a_run_leaves_a_paused_collector_paused(self, env):
        env.call_in(1.0, lambda: None)
        gc.disable()
        try:
            env.run()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestTimeout:
    """A timer is a ``call_in`` whose handle the arming side may cancel:
    the request timeouts of clients."""

    def test_timeout_fires_after_delay(self, env):
        seen = []

        def arm():
            env.call_in(2.5, lambda: seen.append(env.now))

        env.call_in(1.0, arm)
        env.run()
        assert seen == [3.5]  # relative to the clock at arming

    def test_timeout_carries_value(self, env):
        payload = {"request": 7}
        seen = []
        env.call_in(1.0, lambda *args: seen.append(args), payload, "tag")
        env.run()
        assert seen == [(payload, "tag")]
        assert seen[0][0] is payload

    def test_negative_timeout_raises(self, env):
        with pytest.raises(SimulationError, match="negative delay"):
            env.call_in(-1.0, lambda: None)
        assert env.peek() == float("inf")  # nothing was scheduled
        env.run()
        assert env.events_executed == 0

    def test_zero_timeout_runs_this_instant(self, env):
        seen = []

        def arm():
            seen.append(("arm", env.now))
            env.call_in(0.0, lambda: seen.append(("zero", env.now)))

        env.call_in(1.0, arm)
        env.call_in(1.0, lambda: seen.append(("queued", env.now)))
        env.run()
        # Same instant, but behind what was already due at it.
        assert seen == [("arm", 1.0), ("queued", 1.0), ("zero", 1.0)]


class TestLazyDeletion:
    def test_cancelled_entries_do_not_count_as_executed(self, env):
        handles = [env.call_in(0.1, lambda: None) for _ in range(5)]
        handles[1].cancel()
        handles[3].cancel()
        env.run()
        assert env.events_executed == 3

    def test_cancelled_entries_do_not_advance_clock(self, env):
        env.call_in(1.0, lambda: None).cancel()
        env.run()
        assert env.now == 0.0

    def test_peek_skips_cancelled_prefix(self, env):
        env.call_in(1.0, lambda: None).cancel()
        env.call_in(2.0, lambda: None)
        assert env.peek() == 2.0

    def test_peek_all_cancelled_is_inf(self, env):
        for _ in range(3):
            env.call_in(1.0, lambda: None).cancel()
        assert env.peek() == float("inf")

    def test_run_until_does_not_stop_at_cancelled_timestamp(self, env):
        """run(until) must not advance ``now`` to a cancelled entry's time."""
        seen = []
        env.call_in(1.0, seen.append, 1)
        env.call_in(3.0, seen.append, "never").cancel()
        env.run(until=2.0)
        assert seen == [1]
        assert env.now == 2.0
        env.run()
        assert env.now == 2.0  # the cancelled 3.0 entry never ran

    def test_step_skips_cancelled(self, env):
        """step() must run exactly one *live* entry, skipping cancelled ones."""
        seen = []
        env.call_in(1.0, seen.append, "cancelled").cancel()
        env.call_in(2.0, seen.append, "live")
        env.step()
        assert seen == ["live"]
        assert env.now == 2.0
        assert env.events_executed == 1

    def test_cancel_after_execution_is_noop(self, env):
        seen = []
        handle = env.call_in(0.5, seen.append, 1)
        env.run()
        handle.cancel()
        handle.cancel()
        assert seen == [1]
        assert env.pending_cancelled == 0

    def test_compaction_purges_cancelled_timers(self):
        env = Environment()
        handles = [env.call_in(1.0, lambda: None) for _ in range(500)]
        for handle in handles:
            handle.cancel()
        # Threshold compaction ran: far fewer than 500 entries remain.
        assert len(env._heap) + len(env._dq) < 500
        env.run()
        assert env.events_executed == 0

    def test_compaction_off_keeps_lazy_entries(self):
        env = Environment(compaction=False)
        handles = [env.call_in(1.0, lambda: None) for _ in range(500)]
        for handle in handles:
            handle.cancel()
        assert len(env._heap) + len(env._dq) == 500
        env.run()  # drains lazily, still runs nothing
        assert env.events_executed == 0
        assert env.now == 0.0

    def test_cancel_twice_counts_once(self, env):
        handle = env.call_in(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert env.pending_cancelled == 1
        env.run()
        assert env.pending_cancelled == 0

    def test_step_on_an_empty_schedule_raises_index_error(self, env):
        with pytest.raises(IndexError):
            env.step()

    def test_step_over_only_cancelled_entries_raises_and_settles(self, env):
        env.call_in(1.0, lambda: None).cancel()
        env.call_in(2.0, lambda: None).cancel()
        with pytest.raises(IndexError):
            env.step()
        assert env.pending_cancelled == 0
        assert env.now == 0.0 and env.events_executed == 0

    def test_below_the_floor_nothing_is_compacted(self, env):
        floor = Environment.COMPACTION_MIN_CANCELLED
        handles = [env.call_in(1.0, lambda: None) for _ in range(floor)]
        for handle in handles[:-1]:
            handle.cancel()
        assert len(env._dq) == floor  # every entry is cancelled but one
        handles[-1].cancel()
        assert len(env._dq) == 0 and env.pending_cancelled == 0

    def test_compaction_waits_for_half_the_schedule(self, env):
        floor = Environment.COMPACTION_MIN_CANCELLED
        handles = [env.call_in(1.0 + i, lambda: None) for i in range(4 * floor)]
        for handle in handles[: 2 * floor - 1]:
            handle.cancel()
        assert len(env._dq) == 4 * floor  # under half: still lazy
        handles[2 * floor - 1].cancel()
        assert len(env._dq) == 2 * floor and env.pending_cancelled == 0
        env.run()
        assert env.events_executed == 2 * floor

    def test_compaction_keeps_the_entries_that_cannot_be_cancelled(self, env):
        seen = []
        for i in range(100):
            env.post_in(1.0 + i, seen.append, (i,))
        handles = [env.call_in(0.5 + i, lambda: None) for i in range(100)]
        for handle in handles:
            handle.cancel()
        assert env.pending_cancelled == 0  # compacted on the last cancel
        assert len(env._heap) + len(env._dq) == 100
        env.run()
        assert seen == list(range(100))

    def test_compaction_inside_a_callback_keeps_the_run_going(self, env):
        seen = []
        handles = []

        sizes = []

        def purge():
            seen.append("purge")
            for handle in handles[::3]:
                handle.cancel()
            for handle in handles[1::3]:
                handle.cancel()
            sizes.append(len(env._heap) + len(env._dq))

        env.call_in(1.0, purge)
        for i in range(150):
            handles.append(env.call_in(2.0 + i * 0.01, seen.append, i))
        env.run()
        # The 75th cancel reached half the schedule: 75 entries were purged
        # under the running loop, the last 25 cancels stayed lazy.
        assert sizes == [75]
        assert seen == ["purge"] + list(range(2, 150, 3))
        assert env.events_executed == 1 + 50
        assert env.pending_cancelled == 0

    def test_cancel_after_compaction_is_noop(self, env):
        handles = [env.call_in(1.0, lambda: None) for _ in range(100)]
        for handle in handles[:64]:
            handle.cancel()
        assert env.pending_cancelled == 0 and len(env._dq) == 36
        handles[0].cancel()
        assert env.pending_cancelled == 0

    def test_a_cancel_reads_the_schedule_s_size_only_at_a_mark(self, env):
        """Under half the schedule, a check at most every floor's worth of
        cancels: two ``len`` calls each (two on every cancel past the floor
        before)."""
        for i in range(10_000):
            env.call_in(1.0 + i, lambda: None)
        doomed = [env.call_in(0.5, lambda: None) for _ in range(1_000)]
        profiler = cProfile.Profile()
        profiler.enable()
        for handle in doomed:
            handle.cancel()
        profiler.disable()
        lens = sum(
            entry.callcount
            for entry in profiler.getstats()
            if isinstance(entry.code, str) and "builtins.len" in entry.code
        )
        floor = Environment.COMPACTION_MIN_CANCELLED
        assert lens == 2 * (len(doomed) // floor)
        assert env.pending_cancelled == len(doomed)  # under half: still lazy

    def test_compaction_finds_half_the_schedule_after_it_shrank(self, env):
        """The mark set by a check that found too few is at most a floor's
        worth of cancels on, so a schedule that drained meanwhile is still
        compacted."""
        seen = []
        handles = [env.call_in(5.0, lambda: None) for _ in range(200)]
        for i in range(1_000):
            env.post_in(1.0 + i * 1e-3, seen.append, (i,))
        floor = Environment.COMPACTION_MIN_CANCELLED
        for handle in handles[:floor]:
            handle.cancel()  # 64 of 1 200: too few, next check within 64
        env.run(until=2.5)  # drains the 1 000 plain entries
        for handle in handles[floor : 2 * floor]:
            handle.cancel()
        assert env.pending_cancelled == 0 and len(env._heap) + len(env._dq) == 72
        assert len(seen) == 1_000

    def test_compaction_on_off_same_behaviour(self):
        def run_once(compaction):
            env = Environment(compaction=compaction)
            seen = []
            handles = []
            for i in range(300):
                handles.append(env.call_in(0.1 + i * 1e-3, seen.append, i))
            for handle in handles[::2]:
                handle.cancel()
            env.run()
            return seen, env.events_executed, env.now

        assert run_once(True) == run_once(False)


class TestFastPostPath:
    def test_post_in_runs_callback(self, env):
        seen = []
        env.post_in(1.5, seen.append, (42,))
        env.run()
        assert seen == [42]
        assert env.now == 1.5

    def test_post_at_absolute(self, env):
        seen = []
        env.post_at(2.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [2.0]

    def test_post_and_call_fifo_at_same_time(self, env):
        seen = []
        env.call_in(1.0, seen.append, "a")
        env.post_in(1.0, seen.append, ("b",))
        env.call_in(1.0, seen.append, "c")
        env.run()
        assert seen == ["a", "b", "c"]

    def test_posts_count_as_executed(self, env):
        for _ in range(4):
            env.post_in(0.1, lambda: None)
        env.run()
        assert env.events_executed == 4


class TestDequeHeapOrdering:
    def test_out_of_order_scheduling_is_globally_ordered(self, env):
        """Interleaved in-order (deque) and out-of-order (heap) entries must
        execute in exact (time, insertion) order."""
        seen = []
        times = [5.0, 1.0, 3.0, 3.0, 0.5, 5.0, 2.0, 4.0, 0.5, 3.0]
        for i, t in enumerate(times):
            env.call_in(t, seen.append, (t, i))
        env.run()
        assert seen == sorted(seen)

    def test_mixed_nested_scheduling_order(self, env):
        seen = []

        def at_two():
            seen.append(("outer", env.now))
            env.call_in(0.5, lambda: seen.append(("nested", env.now)))
            env.post_in(0.25, lambda: seen.append(("posted", env.now)))

        env.call_in(2.0, at_two)
        env.call_in(1.0, lambda: seen.append(("early", env.now)))
        env.call_in(2.3, lambda: seen.append(("mid", env.now)))
        env.run()
        assert seen == [
            ("early", 1.0),
            ("outer", 2.0),
            ("posted", 2.25),
            ("mid", 2.3),
            ("nested", 2.5),
        ]


class TestSameTimestampOrder:
    """Entries sharing a timestamp dispatch in ``seq`` order, whichever of
    the deque and the heap holds them, across cancels, stops and resumes.

    Every schedule here puts a far-future entry at the deque front so the
    same-time cluster lands in the heap.
    """

    def test_batch_merges_deque_and_heap_in_seq_order(self, env):
        seen = []
        env.call_in(1.0, seen.append, "dq-a")  # deque (in order)
        env.call_in(2.0, seen.append, "later")  # deque
        env.call_in(1.0, seen.append, "heap-b")  # heap (out of order now)
        env.post_in(1.0, seen.append, ("heap-c",))
        env.run()
        assert seen == ["dq-a", "heap-b", "heap-c", "later"]
        assert env.events_executed == 4

    def test_entries_scheduled_mid_batch_run_after_it(self, env):
        seen = []

        def first():
            seen.append("first")
            # Same timestamp, but a higher seq: must run after the cluster.
            env.call_in(0.0, lambda: seen.append("nested"))

        env.call_in(2.0, seen.append, "later")
        env.call_in(1.0, first)
        env.call_in(1.0, seen.append, "second")
        env.run()
        assert seen == ["first", "second", "nested", "later"]

    def test_cancel_landing_mid_batch_skips_without_counter_drift(self, env):
        seen = []
        handles = {}

        def canceller():
            seen.append("canceller")
            handles["victim"].cancel()

        env.call_in(2.0, seen.append, "later")
        env.call_in(1.0, seen.append, "lead")
        env.call_in(1.0, canceller)  # cancels the entry right behind it
        handles["victim"] = env.call_in(1.0, seen.append, "victim")
        env.run()
        assert seen == ["lead", "canceller", "later"]
        assert env.events_executed == 3
        # Dropping the victim settled its cancellation.
        assert env._cancelled == 0

    def test_entry_cancelled_before_drain_is_settled_in_batch(self, env):
        seen = []

        def canceller():
            seen.append("canceller")
            victim.cancel()  # victim is still *in* the heap here

        env.call_in(2.0, seen.append, "later")
        env.call_in(1.0, canceller)
        victim = env.call_in(1.0, seen.append, "victim")
        env.run()
        assert seen == ["canceller", "later"]
        assert env.events_executed == 2
        assert env._cancelled == 0

    def test_stop_mid_batch_requeues_tail_for_resume(self, env):
        seen = []
        env.call_in(2.0, seen.append, "later")
        env.call_in(1.0, seen.append, "lead")
        env.call_in(1.0, lambda: env.stop("halt"))
        env.call_in(1.0, seen.append, "tail1")
        env.call_in(1.0, seen.append, "tail2")
        assert env.run() == "halt"
        assert seen == ["lead"]
        assert env.events_executed == 2  # lead + the stop callback
        assert env.now == 1.0
        # Resuming picks up exactly past the entry that raised.
        assert env.run() is None
        assert seen == ["lead", "tail1", "tail2", "later"]
        assert env.events_executed == 5

    def test_stop_mid_batch_restores_cancelled_tail_bookkeeping(self, env):
        seen = []
        handles = {}

        def cancel_and_stop():
            handles["victim"].cancel()
            env.stop("halt")

        env.call_in(2.0, seen.append, "later")
        env.call_in(1.0, seen.append, "lead")
        env.call_in(1.0, cancel_and_stop)
        handles["victim"] = env.call_in(1.0, seen.append, "victim")
        assert env.run() == "halt"
        # The cancelled victim is still scheduled, so its cancellation
        # counts toward lazy deletion until the resume drops it.
        assert env._cancelled == 1
        assert env.run() is None
        assert seen == ["lead", "later"]
        assert env.events_executed == 3
        assert env._cancelled == 0

    def test_batched_and_stepwise_runs_agree(self):
        def run_once(batched):
            env = Environment()
            seen = []
            # Clustered timestamps: thirds collide, interleaved dq/heap.
            for i in range(60):
                env.call_in((i % 20) * 0.1, seen.append, i)
            if batched:
                env.run()
            else:
                while env.peek() != float("inf"):
                    env.step()
            return seen, env.events_executed

        assert run_once(batched=True) == run_once(batched=False)

    def test_fanout_pair_across_deque_and_heap_and_a_run_split(self, env):
        """The quorum fan-out shape: two ``post_in`` entries at one
        timestamp, one on the deque and one on the heap, the first of which
        schedules a third at that same timestamp."""
        seen = []

        def first():
            seen.append("first")
            env.post_in(0.0, seen.append, ("third",))

        env.post_in(1.0, first)  # deque
        env.post_in(2.0, seen.append, ("later",))  # deque
        env.post_in(1.0, seen.append, ("second",))  # heap: 1.0 < deque tail
        assert len(env._dq) == 2 and len(env._heap) == 1
        env.run(until=1.0)
        assert seen == ["first", "second", "third"]
        assert env.events_executed == 3
        env.run()
        assert seen == ["first", "second", "third", "later"]
        assert env.events_executed == 4


DELAYS = (0.0, 0.1, 0.1, 0.2, 0.5, 1.0, 2.5)


def _random_workload(env, seed, log):
    """Schedule a seeded mix of both entry kinds on ``env``.

    Callbacks append ``(now, tag)`` to ``log``; tags number the scheduling
    calls in order, so the reference order is ``(when, tag)``.  Some
    callbacks schedule more work or cancel a pending timer mid-run.
    Returns the set of tags cancelled before they could fire.
    """
    rng = random.Random(seed)
    pending = {}
    cancelled = set()
    counter = [0]

    def fire(tag):
        pending.pop(tag, None)
        log.append((env.now, tag))
        roll = rng.random()
        if roll < 0.3 and counter[0] < 400:
            schedule(rng.choice(DELAYS))
        elif roll < 0.45 and pending:
            victim = rng.choice(sorted(pending))
            pending.pop(victim).cancel()
            cancelled.add(victim)

    def schedule(delay, style=None):
        counter[0] += 1
        tag = counter[0]
        if style is None:
            style = rng.randrange(4)
        if style == 0:
            pending[tag] = env.call_in(delay, fire, tag)
        elif style == 1:
            pending[tag] = env.call_at(env.now + delay, fire, tag)
        elif style == 2:
            env.post_in(delay, fire, (tag,))
        else:
            env.post_at(env.now + delay, fire, (tag,))
        return tag

    for _ in range(200):
        schedule(rng.choice(DELAYS))
    # Timers armed out of order and cancelled in bulk, as answered requests'
    # timeouts are: enough cancels to compact the heap (compaction on).
    burst = [schedule(rng.choice(DELAYS) + rng.random(), 0) for _ in range(150)]
    others = sorted(set(pending) - set(burst))
    for tag in burst + rng.sample(others, len(others) // 2):
        pending.pop(tag).cancel()
        cancelled.add(tag)
    return cancelled, counter


class TestTwoEntryKinds:
    """``run()``, stepping and ``run(until=)`` splits dispatch a mixed
    schedule of cancellable and handle-free callbacks identically, with
    compaction on or off, in ``(when, scheduling order)``."""

    @staticmethod
    def _drive(seed, compaction, how):
        env = Environment(compaction=compaction)
        log = []
        cancelled, counter = _random_workload(env, seed, log)
        if how == "run":
            env.run()
        elif how == "step":
            while env.peek() != float("inf"):
                env.step()
        else:
            split = 0.0
            while env.peek() != float("inf"):
                split += 0.35
                env.run(until=split)
        return log, cancelled, counter[0], env.events_executed

    @pytest.mark.parametrize("compaction", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_every_driver_matches_the_reference_order(self, seed, compaction):
        log, cancelled, scheduled, executed = self._drive(seed, compaction, "run")
        assert log == sorted(log)  # (when, tag): time, then scheduling order
        fired = [tag for _, tag in log]
        assert len(fired) == len(set(fired)) == executed
        assert set(fired) == set(range(1, scheduled + 1)) - cancelled
        for how in ("step", "split"):
            assert self._drive(seed, compaction, how) == (
                log, cancelled, scheduled, executed,
            ), how


class TestLedgerCarryingEntries:
    def test_kind_two_entries_may_carry_trailing_fields(self, env):
        """The fabric pushes ``(when, seq, 2, fn, args, *ledger)`` straight
        onto the schedule; the loop, stepping, ``peek`` and compaction read
        only the first five fields."""
        seen = []

        def push(when, tag):
            env._seq += 1
            entry = (when, env._seq, 2, seen.append, (tag,), 0.0, 1e-6, 3, 64, 0)
            if not env._dq or when >= env._dq[-1][0]:
                env._dq.append(entry)
            else:
                heapq.heappush(env._heap, entry)

        push(2.0, "dq")
        push(1.0, "heap")
        floor = Environment.COMPACTION_MIN_CANCELLED
        handles = [env.call_in(0.5, lambda: None) for _ in range(floor)]
        for handle in handles:
            handle.cancel()  # compacts around the ledger entries
        assert len(env._heap) + len(env._dq) == 2
        assert env.peek() == 1.0
        env.step()
        assert seen == ["heap"]
        env.run()
        assert seen == ["heap", "dq"]
        assert env.events_executed == 2


class TestDeterminism:
    def test_same_schedule_same_order(self):
        def run_once():
            env = Environment()
            seen = []
            for i in range(50):
                env.call_in((i * 7919) % 13 * 0.1, seen.append, i)
            env.run()
            return seen

        assert run_once() == run_once()


class TestCollectorParked:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_caller_s_state_is_restored_on_every_exit(self, enabled):
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with collector_parked():
                assert not gc.isenabled()
                with collector_parked():
                    assert not gc.isenabled()
                assert not gc.isenabled()  # a nested park restores "off"
            assert gc.isenabled() is enabled
            with pytest.raises(KeyError):
                with collector_parked():
                    raise KeyError("boom")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
