"""Core of the discrete-event engine: the clock and the schedule.

Time is a ``float`` in **seconds**.  All scheduling goes through
:class:`Environment`; entities never touch the heap directly.

Everything scheduled is a callback, cancellable or not:

* ``env.call_in(delay, fn, *args)`` / ``call_at`` run ``fn`` at
  ``env.now + delay`` and return a handle whose ``cancel()`` stops it;
* ``env.post_in(delay, fn, args)`` / ``post_at`` do the same with no handle
  and no validation.  This is the cheap path used for packet hops.

Ties in time are broken by insertion order, so the simulation is fully
deterministic for a fixed seed.

Schedule entries are flat tuples ``(time, seq, kind, ...)`` -- ``seq`` is
unique, so tuple comparison never inspects the payload and entries of
different lengths can share a container:

* ``kind 0`` -- cancellable callback ``(time, seq, 0, fn, args, handle)``,
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
compacted in one O(n) pass.  The schedule's size is read only when the count
reaches a mark: the floor, and after a check that found too few the soonest
count that could reach half the schedule as it stood (at most a floor's
worth of cancels later), so a cancel costs no ``len`` calls in between.
Cancelled entries never run, never advance the clock, and do not count
toward :attr:`Environment.events_executed`.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from typing import Any, Callable, Optional


class collector_parked:
    """The cyclic garbage collector off inside; the caller's state after.

    A build and a run allocate tens of thousands of tracked objects (set-up)
    or tens of objects an event (the loops), nearly all acyclic and freed by
    reference counting, so the collector's generation-0 passes find nothing
    and cost a fifth of a large build.  Whatever was enabled on entry is
    enabled again on every exit, an exception included; a nested park
    restores "off".  ``with collector_parked():`` wraps a whole build or
    run: ``build_scenario``, the flow engines' constructors,
    :meth:`Environment.run` and the flow tier's run.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: Any) -> None:
        if self._was_enabled:
            gc.enable()


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class _Handle:
    """Cancellation handle returned by :meth:`Environment.call_at`.

    ``_env`` back-references the environment while the entry is still in the
    heap so a cancellation can be counted toward lazy-deletion bookkeeping
    (and trigger the compaction pass itself: a cancelled timer costs one
    frame); it is dropped when the callback runs (or the entry is compacted
    away) so late ``cancel()`` calls are harmless no-ops.
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
            cancelled = env._cancelled = env._cancelled + 1
            if cancelled >= env._compact_mark:
                size = len(env._heap) + len(env._dq)
                if cancelled * 2 >= size:
                    env._compact()
                else:
                    # The soonest this count can reach half the schedule as
                    # it stands, and at most a floor's worth of cancels on.
                    env._compact_mark = cancelled + min(
                        (size + 1) // 2 - cancelled, env.COMPACTION_MIN_CANCELLED
                    )


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
        #: Current simulation time in seconds.  A plain attribute, read on
        #: every event; only the run loop (``run``, ``step``) writes it.
        self.now = float(initial_time)
        self._heap: list[tuple] = []  # out-of-order entries
        self._dq: deque = deque()  # entries pushed in non-decreasing time
        self._seq = 0
        self._event_count = 0
        self._cancelled = 0  # cancelled kind-0 entries still scheduled
        self._compaction = bool(compaction)
        # The cancelled count at which a cancel next reads the schedule's
        # size (see the module docstring); never, with compaction off.
        self._compact_mark: float = (
            self.COMPACTION_MIN_CANCELLED if self._compaction else math.inf
        )

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
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now={self.now}"
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
        when = self.now + delay
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
        when = self.now + delay
        dq = self._dq
        if not dq or when >= dq[-1][0]:
            dq.append((when, self._seq, 2, fn, args))
        else:
            heapq.heappush(self._heap, (when, self._seq, 2, fn, args))

    # ------------------------------------------------------------------
    # Lazy deletion / compaction
    # ------------------------------------------------------------------
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
        if self._compaction:
            self._compact_mark = self.COMPACTION_MIN_CANCELLED

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
        if entry[2] == 0:
            handle = entry[5]
            if handle.cancelled:
                self._cancelled -= 1
                return False
            handle._env = None
        self.now = entry[0]
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

        The cyclic garbage collector is parked while the loop runs
        (:func:`collector_parked`): events are tuples of floats and
        callables and packets hold no back references, so everything the
        loop churns through is freed by reference counting alone, while the
        allocation rate (tens of objects per event) makes generation-0 scans
        a measurable tax.  Collection resumes on exit; anything cyclic
        created by callbacks is picked up then.
        """
        heap = self._heap
        dq = self._dq
        pop = heapq.heappop
        popleft = dq.popleft
        executed = 0
        if until is not None:
            until = float(until)
            if until < self.now:
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self.now})"
                )
        with collector_parked():
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
                    if entry[2] == 2:
                        self.now = entry[0]
                        executed += 1
                        entry[3](*entry[4])
                    else:
                        handle = entry[5]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        handle._env = None
                        self.now = entry[0]
                        executed += 1
                        entry[3](*entry[4])
            except StopSimulation as stop:
                return stop.value
            finally:
                self._event_count += executed
        if until is not None and self.now < until:
            self.now = until
        return None

    def stop(self, value: Any = None) -> None:
        """Stop the current :meth:`run` immediately (callable from callbacks)."""
        raise StopSimulation(value)
