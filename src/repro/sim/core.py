"""Core of the discrete-event engine: the clock, the heap, and events.

Time is a ``float`` in **seconds**.  All scheduling goes through
:class:`Environment`; entities never touch the heap directly.

Two scheduling styles coexist:

* **Callbacks** -- ``env.call_in(delay, fn, *args)`` runs ``fn`` at
  ``env.now + delay``.  This is the cheap path used for packet hops.
* **Events** -- :class:`Event` objects that processes can wait on.  An event
  is *triggered* exactly once (``succeed``/``fail``) and then notifies its
  callbacks in FIFO order.

Ties in time are broken by insertion order, so the simulation is fully
deterministic for a fixed seed.

Schedule entries are flat tuples ``(time, seq, kind, ...)`` -- ``seq`` is
unique, so tuple comparison never inspects the payload and entries of
different lengths can share a container:

* ``kind 0`` -- cancellable callback ``(time, seq, 0, fn, args, handle)``,
* ``kind 1`` -- event processing ``(time, seq, 1, event)``,
* ``kind 2`` -- fast non-cancellable callback ``(time, seq, 2, fn, args)``
  (the packet-hop hot path; no handle allocation).  It may carry trailing
  fields of its scheduler's own (the fabric's settlement ledger): the loop,
  ``_dispatch``, ``_compact`` and ``peek`` read only the first five.

The schedule is split across two structures (a "lazy queue"):

* a FIFO **deque** that absorbs entries scheduled in non-decreasing time
  order -- O(1) push and pop, which covers most of a simulation's traffic
  (arrival processes, same-instant bursts, drain phases);
* a binary **heap** for out-of-order arrivals.

The next entry to execute is whichever of the two front entries compares
smaller; since ``seq`` totally orders ties, execution order is *identical*
to a single-heap engine, preserving determinism bit-for-bit.

Cancelled ``kind 0`` entries stay in place (lazy deletion) and are counted;
once they exceed both a floor and half the schedule, both structures are
compacted in one O(n) pass.  Cancelled entries never run, never advance the
clock, and do not count toward :attr:`Environment.events_executed`.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Iterable, Optional


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process that is interrupted by another process."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the event is placed on the heap at the current time and,
    when popped, its callbacks run with the event as sole argument.

    Attributes:
        env: The owning :class:`Environment`.
        callbacks: Callables invoked when the event is processed.  ``None``
            after processing (late ``wait`` attempts raise).
        value: Payload passed to :meth:`succeed`, or the exception passed to
            :meth:`fail`.
    """

    __slots__ = ("env", "callbacks", "value", "_ok", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self.value: Any = None
        self._ok: Optional[bool] = None  # None => pending
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether ``succeed``/``fail`` has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event is not triggered yet")
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self.value = value
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception as its outcome."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self.value = exception
        self.env._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} was already processed")
        self.callbacks.append(callback)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self.value = value
        env._schedule_event(self, delay=delay)


class AnyOf(Event):
    """Succeeds when the first of ``events`` is processed.

    The value is a dict mapping the completed event(s) to their values (events
    already processed before construction are included immediately).
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                if event.ok:
                    self.succeed({event: event.value})
                else:
                    self.fail(event.value)
                break
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed({event: event.value})


class AllOf(Event):
    """Succeeds when every one of ``events`` has been processed."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = 0
        for event in self._events:
            if event.callbacks is not None:
                self._remaining += 1
                event.add_callback(self._on_child)
        if self._remaining == 0:
            self.succeed({e: e.value for e in self._events})

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e.value for e in self._events})


class _Handle:
    """Cancellation handle returned by :meth:`Environment.call_at`.

    ``_env`` back-references the environment while the entry is still in the
    heap so a cancellation can be counted toward lazy-deletion bookkeeping;
    it is dropped when the callback runs (or the entry is compacted away) so
    late ``cancel()`` calls are harmless no-ops.
    """

    __slots__ = ("cancelled", "_env")

    def __init__(self, env: Optional["Environment"] = None) -> None:
        self.cancelled = False
        self._env = env

    def cancel(self) -> None:
        """Prevent the scheduled callback from running."""
        if self.cancelled:
            return
        self.cancelled = True
        env = self._env
        if env is not None:
            self._env = None
            env._note_cancelled()


class Environment:
    """The simulation environment: virtual clock plus event heap.

    Args:
        initial_time: Starting value of the clock, in seconds.
        compaction: Enable threshold-triggered compaction of cancelled
            entries.  Disabling it (determinism audits) falls back to pure
            lazy deletion; observable behaviour is identical either way.

    See the module docstring for the heap-entry layout.
    """

    #: Cancelled entries below this floor never trigger a compaction pass.
    COMPACTION_MIN_CANCELLED = 64

    def __init__(self, initial_time: float = 0.0, *, compaction: bool = True) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple] = []  # out-of-order entries
        self._dq: deque = deque()  # entries pushed in non-decreasing time
        self._seq = 0
        self._event_count = 0
        self._cancelled = 0  # cancelled kind-0 entries still scheduled
        self._compaction = bool(compaction)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Heap entries whose callbacks actually ran (throughput metric).

        Cancelled callbacks are bookkeeping, not work: they are excluded.
        """
        return self._event_count

    @property
    def pending_cancelled(self) -> int:
        """Cancelled entries currently awaiting lazy deletion (diagnostics)."""
        return self._cancelled

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def call_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> _Handle:
        """Run ``fn(*args)`` at absolute time ``when``; returns a handle."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now={self._now}"
            )
        handle = _Handle(self)
        self._seq += 1
        dq = self._dq
        if not dq or when >= dq[-1][0]:
            dq.append((when, self._seq, 0, fn, args, handle))
        else:
            heapq.heappush(self._heap, (when, self._seq, 0, fn, args, handle))
        return handle

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> _Handle:
        """Run ``fn(*args)`` after ``delay`` seconds; returns a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        handle = _Handle(self)
        self._seq += 1
        when = self._now + delay
        dq = self._dq
        if not dq or when >= dq[-1][0]:
            dq.append((when, self._seq, 0, fn, args, handle))
        else:
            heapq.heappush(self._heap, (when, self._seq, 0, fn, args, handle))
        return handle

    def post_at(self, when: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Hot-path variant of :meth:`call_at`: no handle, no validation.

        The caller must guarantee ``when >= now``; there is no way to cancel.
        Used by the fabric for per-packet-hop delivery, where the handle
        allocation and bounds check of :meth:`call_at` are measurable.
        """
        self._seq += 1
        dq = self._dq
        if not dq or when >= dq[-1][0]:
            dq.append((when, self._seq, 2, fn, args))
        else:
            heapq.heappush(self._heap, (when, self._seq, 2, fn, args))

    def post_in(self, delay: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Hot-path variant of :meth:`call_in`; ``delay`` must be >= 0.

        ``Network.transmit`` inlines this body (it runs once per packet
        hop); keep the two in sync when changing the scheduling layout.
        """
        self._seq += 1
        when = self._now + delay
        dq = self._dq
        if not dq or when >= dq[-1][0]:
            dq.append((when, self._seq, 2, fn, args))
        else:
            heapq.heappush(self._heap, (when, self._seq, 2, fn, args))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        when = self._now + delay
        dq = self._dq
        if not dq or when >= dq[-1][0]:
            dq.append((when, self._seq, 1, event))
        else:
            heapq.heappush(self._heap, (when, self._seq, 1, event))

    # ------------------------------------------------------------------
    # Lazy deletion / compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._compaction
            and self._cancelled >= self.COMPACTION_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap) + len(self._dq)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the schedule in one O(n) pass.

        Mutates the containers in place: ``run`` holds local references to
        them while dispatching, and a cancellation (hence a compaction) can
        happen inside a callback mid-run.
        """
        heap = self._heap
        heap[:] = [e for e in heap if not (e[2] == 0 and e[5].cancelled)]
        heapq.heapify(heap)
        dq = self._dq
        live = [e for e in dq if not (e[2] == 0 and e[5].cancelled)]
        dq.clear()
        dq.extend(live)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event succeeding when the first of ``events`` completes."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event succeeding when all of ``events`` complete."""
        return AllOf(self, events)

    def process(self, generator: Any) -> "Process":
        """Start a generator as a simulated :class:`Process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self) -> tuple:
        """Remove and return the globally next entry (deque vs heap front).

        Raises ``IndexError`` when the schedule is empty.
        """
        dq = self._dq
        heap = self._heap
        if dq:
            if heap and heap[0] < dq[0]:
                return heapq.heappop(heap)
            return dq.popleft()
        return heapq.heappop(heap)

    def _dispatch(self, entry: tuple) -> bool:
        """Run one schedule entry; False if it was a cancelled callback."""
        kind = entry[2]
        if kind == 0:
            handle = entry[5]
            if handle.cancelled:
                self._cancelled -= 1
                return False
            handle._env = None
            self._now = entry[0]
            self._event_count += 1
            entry[3](*entry[4])
        elif kind == 1:
            self._now = entry[0]
            self._event_count += 1
            entry[3]._process()
        else:
            self._now = entry[0]
            self._event_count += 1
            entry[3](*entry[4])
        return True

    def step(self) -> None:
        """Execute the next *runnable* schedule entry.

        Cancelled entries are discarded without running, without advancing
        the clock, and without counting toward ``events_executed``; raises
        ``IndexError`` when nothing runnable remains (as an empty heap did
        before lazy deletion existed).
        """
        while not self._dispatch(self._pop_next()):
            pass

    def peek(self) -> float:
        """Time of the next *runnable* entry, or ``inf`` if none.

        Cancelled entries at the front of the schedule are dropped on the
        way, so ``peek``/``run(until=...)`` never report (or advance to)
        the timestamp of work that will not happen.
        """
        self._drop_cancelled_front()
        dq = self._dq
        heap = self._heap
        if dq:
            if heap and heap[0] < dq[0]:
                return heap[0][0]
            return dq[0][0]
        if heap:
            return heap[0][0]
        return float("inf")

    def _drop_cancelled_front(self) -> None:
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] == 0 and entry[5].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
            else:
                break
        dq = self._dq
        while dq:
            entry = dq[0]
            if entry[2] == 0 and entry[5].cancelled:
                dq.popleft()
                self._cancelled -= 1
            else:
                break

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the schedule drains or the clock passes ``until``.

        Returns the value carried by :class:`StopSimulation` if something
        stopped the run early, else ``None``.

        The dispatch loop is inlined (rather than delegating to
        :meth:`step`) because the per-event call overhead is measurable at
        paper scale; :meth:`step` remains for tests and debugging.

        The cyclic garbage collector is paused while the loop runs: events
        are tuples of floats and callables and packets hold no back
        references, so everything the loop churns through is freed by
        reference counting alone, while the allocation rate (tens of
        objects per event) makes generation-0 scans a measurable tax.
        Collection resumes on exit; anything cyclic created by callbacks is
        picked up then.
        """
        heap = self._heap
        dq = self._dq
        pop = heapq.heappop
        popleft = dq.popleft
        executed = 0
        if until is not None:
            until = float(until)
            if until < self._now:
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self._now})"
                )
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                # Select the globally next entry across both structures.
                if dq:
                    if heap and heap[0] < dq[0]:
                        if until is not None and heap[0][0] > until:
                            break
                        entry = pop(heap)
                    else:
                        if until is not None and dq[0][0] > until:
                            break
                        entry = popleft()
                elif heap:
                    if until is not None and heap[0][0] > until:
                        break
                    entry = pop(heap)
                else:
                    break
                kind = entry[2]
                if kind == 2:
                    self._now = entry[0]
                    executed += 1
                    entry[3](*entry[4])
                elif kind == 0:
                    handle = entry[5]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    handle._env = None
                    self._now = entry[0]
                    executed += 1
                    entry[3](*entry[4])
                else:
                    self._now = entry[0]
                    executed += 1
                    entry[3]._process()
        except StopSimulation as stop:
            return stop.value
        finally:
            if gc_was_enabled:
                gc.enable()
            self._event_count += executed
        if until is not None and self._now < until:
            self._now = until
        return None

    def stop(self, value: Any = None) -> None:
        """Stop the current :meth:`run` immediately (callable from callbacks)."""
        raise StopSimulation(value)
