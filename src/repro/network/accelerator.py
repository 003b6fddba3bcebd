"""Network accelerator model (paper sections II and V-A).

An accelerator is a small multicore packet processor attached to a
programmable switch.  The paper uses low-end devices: 1 core, 5 us of
processing per packet, and a 2.5 us round-trip to the co-located switch
(numbers measured by IncBricks).  We model it as a FIFO queue drained by
``cores`` servers with deterministic service time; the work itself (replica
selection or state update) is an injected callable so the accelerator stays
agnostic of NetRS logic.

Utilization accounting feeds two consumers: the placement problem's capacity
constraint (``T_max = U * cores / service_time``) and the controller's
overload detection (section III-C, exception ii).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.core import Environment

#: Work applied to a packet at service completion; returns the (possibly
#: rebuilt) packet, or ``None`` to absorb it.
Work = Callable[[Any], Optional[Any]]
#: Invoked back on the switch with the work's result (skipped when ``None``).
Done = Optional[Callable[[Any], None]]


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
        self._busy = 0
        self._queue: Deque[Tuple[Any, Work, Done]] = deque()
        # Accounting
        self.processed = 0
        self.busy_time = 0.0
        self._started_at = env.now
        self.max_queue_seen = 0

    @property
    def capacity(self) -> float:
        """Maximum processing rate in packets per second."""
        return self.cores / self.service_time

    @property
    def queue_length(self) -> int:
        """Packets waiting (not counting those in service)."""
        return len(self._queue)

    def utilization(self) -> float:
        """Fraction of core-time spent busy since construction."""
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (self.cores * elapsed)

    def reset_utilization(self) -> None:
        """Start a fresh utilization window (controller epochs)."""
        self.busy_time = 0.0
        self._started_at = self.env.now

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def submit(self, packet: Any, work: Work, done: Done = None) -> None:
        """Called by the co-located switch: ship the packet over the link."""
        self.env.post_in(self.link_delay, self._enqueue, (packet, work, done))

    def submit_at(self, when: float, packet: Any, work: Work, done: Done = None) -> None:
        """:meth:`submit` as if called at time ``when`` (not before now).

        For a driver that knows in closed form when the packet reaches the
        switch and so schedules no event there (the flow engine).
        """
        self.env.post_at(when + self.link_delay, self._enqueue, (packet, work, done))

    def _enqueue(self, packet: Any, work: Work, done: Done) -> None:
        if self._busy < self.cores:
            self._busy += 1
            self.env.post_in(self.service_time, self._complete, (packet, work, done))
        else:
            self._queue.append((packet, work, done))
            if len(self._queue) > self.max_queue_seen:
                self.max_queue_seen = len(self._queue)

    def _complete(self, packet: Any, work: Work, done: Done) -> None:
        self.processed += 1
        self.busy_time += self.service_time
        result = work(packet)
        if done is not None and result is not None:
            # Ship the result back over the accelerator<->switch link.
            self.env.post_in(self.link_delay, done, (result,))
        if self._queue:
            self.env.post_in(self.service_time, self._complete, self._queue.popleft())
        else:
            self._busy -= 1
