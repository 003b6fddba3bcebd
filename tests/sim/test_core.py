"""Tests for the event loop: scheduling, ordering, events, stop semantics."""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.core import AllOf, AnyOf, Event, Timeout


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


class TestEvent:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(99)
        env.run()
        assert seen == [99]

    def test_event_not_triggered_initially(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_succeed_raises(self, env):
        event = env.event()
        event.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().ok

    def test_ok_after_succeed(self, env):
        event = env.event()
        event.succeed()
        assert event.ok

    def test_ok_after_fail(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        assert not event.ok

    def test_callback_after_processing_raises(self, env):
        event = env.event()
        event.succeed()
        env.run()
        with pytest.raises(SimulationError):
            event.add_callback(lambda e: None)

    def test_callbacks_fifo(self, env):
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(1))
        event.add_callback(lambda e: seen.append(2))
        event.succeed()
        env.run()
        assert seen == [1, 2]


class TestTimeout:
    def test_timeout_fires_after_delay(self, env):
        timeout = env.timeout(2.5)
        seen = []
        timeout.add_callback(lambda e: seen.append(env.now))
        env.run()
        assert seen == [2.5]

    def test_timeout_carries_value(self, env):
        timeout = env.timeout(1.0, value="payload")
        seen = []
        timeout.add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["payload"]

    def test_negative_timeout_raises(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_timeout_runs_this_instant(self, env):
        timeout = env.timeout(0.0)
        seen = []
        timeout.add_callback(lambda e: seen.append(env.now))
        env.run()
        assert seen == [0.0]


class TestCombinators:
    def test_any_of_first_wins(self, env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(2.0, value="slow")
        combined = env.any_of([fast, slow])
        seen = []
        combined.add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == [{fast: "fast"}]

    def test_any_of_empty_succeeds_immediately(self, env):
        combined = env.any_of([])
        assert combined.triggered

    def test_all_of_waits_for_all(self, env):
        a = env.timeout(1.0, value="a")
        b = env.timeout(3.0, value="b")
        combined = env.all_of([a, b])
        seen = []
        combined.add_callback(lambda e: seen.append((env.now, e.value)))
        env.run()
        assert seen == [(3.0, {a: "a", b: "b"})]

    def test_all_of_empty_succeeds_immediately(self, env):
        assert env.all_of([]).triggered

    def test_any_of_propagates_failure(self, env):
        event = env.event()
        combined = env.any_of([event])
        event.fail(RuntimeError("bad"))
        env.run()
        assert combined.triggered
        assert not combined.ok

    def test_all_of_with_already_processed_event(self, env):
        a = env.timeout(0.5)
        env.run()
        combined = env.all_of([a])
        assert isinstance(combined, AllOf)
        assert combined.triggered

    def test_any_of_with_already_processed_event(self, env):
        a = env.timeout(0.5, value=1)
        env.run()
        combined = env.any_of([a])
        assert isinstance(combined, AnyOf)
        assert combined.triggered


class TestAnyOfPreProcessedChildren:
    def test_pre_processed_failed_child_fails_anyof(self, env):
        """Regression: a child processed as *failed* before construction
        must fail the AnyOf, not succeed it with the exception as value."""
        child = env.event()
        child.fail(RuntimeError("boom"))
        env.run()  # child is now processed
        combined = env.any_of([child])
        assert combined.triggered
        assert not combined.ok
        assert isinstance(combined.value, RuntimeError)

    def test_pre_processed_failed_child_beats_pending_children(self, env):
        failed = env.event()
        failed.fail(ValueError("first"))
        env.run()
        pending = env.event()
        combined = env.any_of([failed, pending])
        assert combined.triggered
        assert not combined.ok
        assert isinstance(combined.value, ValueError)

    def test_no_callbacks_registered_after_trigger(self, env):
        """Regression: once a pre-processed child triggers the AnyOf, the
        remaining children must not get _on_child registered."""
        done = env.timeout(0.5, value=1)
        env.run()
        late_a = env.event()
        late_b = env.event()
        combined = env.any_of([done, late_a, late_b])
        assert combined.triggered and combined.ok
        assert late_a.callbacks == []
        assert late_b.callbacks == []

    def test_pre_processed_success_still_succeeds(self, env):
        done = env.timeout(0.5, value="v")
        env.run()
        combined = env.any_of([done])
        assert combined.triggered and combined.ok
        assert combined.value == {done: "v"}


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
