"""Network accelerator model (paper sections II and V-A).

An accelerator is a small multicore packet processor attached to a
programmable switch.  The paper uses low-end devices: 1 core, 5 us of
processing per packet, and a 2.5 us round-trip to the co-located switch
(numbers measured by IncBricks).  That is a FIFO station with ``cores``
servers and one deterministic service time, so every completion instant is
known the moment a packet is admitted (Lindley's recursion): it starts when
it arrives or when the ``cores``-th packet before it finishes, whichever is
later.  The accelerator therefore keeps no busy/queue state machine and
spends no scheduler event on service.  The work itself (replica selection or
state update) is an injected callable, told the instant it completes, so the
accelerator stays agnostic of NetRS logic; what happens next (the rebuilt
request sent on as of the hand-back) is the work's to schedule.  What nobody
waits for -- a response's clone -- is no event at all:
:meth:`Accelerator.note_at` dates it ahead of the clock, to be admitted in its
place by the next packet or read to get there.

Work runs at admission, in admission order -- which is completion order, so
state that only accelerator work touches evolves exactly as if each piece
ran at its completion instant.  The counters, however, describe the
accelerator *as of the clock*: completions are folded into them lazily, from
a record of the packets still inside, whenever something reads them.

Utilization accounting feeds two consumers: the placement problem's capacity
constraint (``T_max = U * cores / service_time``) and the controller's
overload detection (section III-C, exception ii).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.core import Environment

#: Work applied to a packet, told when its service completes.
Work = Callable[[Any, float], None]

#: Admissions between folds of the in-flight record: completions are counted
#: when something reads a counter, or at the latest this many packets on.
_FOLD_EVERY = 8


class Accelerator:
    """FIFO multicore packet processor with deterministic service time."""

    def __init__(
        self,
        env: Environment,
        name: str,
        *,
        cores: int = 1,
        service_time: float = 5e-6,
        link_delay: float = 1.25e-6,
    ) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if service_time <= 0:
            raise ValueError(f"service_time must be positive, got {service_time}")
        if link_delay < 0:
            raise ValueError(f"link_delay must be non-negative, got {link_delay}")
        self.env = env
        self.name = name
        self.cores = cores
        self.service_time = service_time
        self.link_delay = link_delay
        # When each core comes free.  Service times are equal, so cores free
        # up in admission order and ``_turn`` walks them round-robin: the next
        # packet can start no earlier than ``_free_at[_turn]``.
        self._free_at: List[float] = [-math.inf] * cores
        self._turn = 0
        # Admissions not yet folded into the counters, oldest first:
        # (arrival, finish, queue length its arrival made).  Both instants
        # are non-decreasing along it.
        self._inside: List[Tuple[float, float, int]] = []
        # Notes not yet admitted, a heap of (arrival, order, job, work); the
        # order is the count of notes so far.
        self._inbox: List[Tuple[float, int, Any, Work]] = []
        self._noted = 0
        self._discarded = 0
        # Accounting, as of the last fold
        self._processed = 0
        self._busy_time = 0.0
        self._max_queue = 0
        self._started_at = env.now

    @property
    def capacity(self) -> float:
        """Maximum processing rate in packets per second."""
        return self.cores / self.service_time

    def _fold(self) -> None:
        """Admit the notes the clock has passed, count the completions."""
        now = self.env.now
        inbox = self._inbox
        if inbox and inbox[0][0] < now + self.link_delay:
            self.submit()  # a note is due: admitted first
        inside = self._inside
        done = 0
        for _arrival, finish, queued in inside:
            if finish > now:
                break
            done += 1
            self._busy_time += self.service_time
            if queued > self._max_queue:
                self._max_queue = queued
        del inside[:done]
        self._processed += done

    @property
    def processed(self) -> int:
        """Packets whose service has completed."""
        self._fold()
        return self._processed

    @property
    def notes_admitted(self) -> int:
        """Notes whose work has run, as of the clock."""
        self._fold()
        return self._noted - self._discarded - len(self._inbox)

    @property
    def busy_time(self) -> float:
        """Core-seconds of completed service in the utilization window."""
        self._fold()
        return self._busy_time

    @property
    def queue_length(self) -> int:
        """Packets waiting (not counting those in service)."""
        self._fold()
        now = self.env.now
        arrived = sum(1 for entry in self._inside if entry[0] <= now)
        return max(0, arrived - self.cores)

    @property
    def max_queue_seen(self) -> int:
        """Longest the queue has been."""
        self._fold()
        now = self.env.now
        return max(
            [self._max_queue] + [entry[2] for entry in self._inside if entry[0] <= now]
        )

    def utilization(self) -> float:
        """Fraction of core-time spent busy since construction."""
        self._fold()
        now = self.env.now
        elapsed = now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (self.cores * elapsed)

    def reset_utilization(self) -> None:
        """Start a fresh utilization window (controller epochs)."""
        self._fold()
        self._busy_time = 0.0
        self._started_at = self.env.now

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def submit(self, packet: Any = None, work: Optional[Work] = None) -> None:
        """Called by the co-located switch: ship ``packet`` over the link, to
        be served by ``work``.  With no packet, only the notes due by now are.

        Costs no event: calls come in clock order, so the packet's place in
        the queue is already decided.  The notes that reach the accelerator
        before it are admitted first, in (arrival, noting) order, each with
        the ``finish`` its own hand-off would have got.
        """
        now = self.env.now
        arrival = now + self.link_delay
        inbox = self._inbox
        inside = self._inside
        cores = self.cores
        last = False
        while not last:
            if inbox and inbox[0][0] < arrival:  # noted ahead of this one
                at, _order, job, job_work = heappop(inbox)
            elif work is None:
                return  # a read's admission: only notes were due
            else:
                at, job, job_work, last = arrival, packet, work, True
            turn = self._turn
            start = self._free_at[turn]
            if start > at:
                # Every core is busy: it waits, behind whatever else still does.
                queued = len(inside) - cores + 1
                for entry in inside:
                    if entry[1] > at:
                        break
                    queued -= 1  # not folded yet, but gone by the arrival
            else:
                start = at
                queued = 0
            finish = start + self.service_time
            self._free_at[turn] = finish
            self._turn = turn + 1 if turn + 1 < cores else 0
            inside.append((at, finish, queued))
            job_work(job, finish)
        if len(inside) > _FOLD_EVERY:
            self._fold()  # last: it may admit notes, whose work comes after ours

    def note_at(self, when: float, job: Any, work: Work) -> None:
        """:meth:`submit` as if called at ``when`` (not before now), for a ``job``
        nobody waits for: no event.  Noted in any order; admitted
        in (arrival, noting) order ahead of the first admission to arrive after
        it and of any read once the clock is past ``when``, so ``work`` runs in
        the place, and with the ``finish``, of the event it replaces."""
        self._noted += 1
        heappush(self._inbox, (when + self.link_delay, self._noted, job, work))

    def settle(self, discard_later: bool = False) -> None:
        """Bring the station to the clock, for a reader of what ``work`` keeps;
        ``discard_later`` forgets the notes not yet due: ``work`` stops listening."""
        self._fold()
        if discard_later:
            self._discarded += len(self._inbox)
            self._inbox.clear()
