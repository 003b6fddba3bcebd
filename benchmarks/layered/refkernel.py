"""Frozen reference kernel: the yardstick host time is divided by.

This host's CPU clock swings by tens of percent between runs, so a cell's
CPU seconds do not repeat.  The kernel below has the event loop's memory and
allocator profile -- a ``heapq`` push/pop loop that allocates a small slotted
object, a dict and a list per step -- so it speeds up and slows down with the
simulator.  A cell's cost is reported as CPU(cell) / CPU(adjacent kernel
passes), which repeats far better than either number alone.

Stdlib only and nothing from ``repro``: a change to the simulator must not
be able to move the yardstick.  Changing anything here is a benchmark change;
bump :data:`VERSION` so reports taken with different kernels refuse to compare.
"""

import heapq
import time

VERSION = 1
STEPS = 100_000
CHECKSUM = 5023046750  # reference_pass() result; a different value means the kernel changed


class _Item:
    __slots__ = ("when", "seq", "payload", "route")

    def __init__(self, when, seq, payload, route):
        self.when = when
        self.seq = seq
        self.payload = payload
        self.route = route


def reference_pass(steps=STEPS):
    """One pass of the kernel; returns a checksum of the work done."""
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    state = 12345
    checksum = 0
    for seq in range(256):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (state, seq, _Item(state, seq, {"rid": seq}, [seq])))
    for seq in range(256, 256 + steps):
        when, _, item = pop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        payload = {"rid": seq, "parent": item.seq}
        route = [item.seq, seq & 7, when & 15]
        push(heap, (when + (state & 0xFFFF) + 1, seq, _Item(when, seq, payload, route)))
        checksum += item.payload["rid"] + len(item.route)
    return checksum


def timed_pass():
    """CPU seconds one pass takes, checked against the frozen checksum."""
    started = time.process_time()
    checksum = reference_pass()
    elapsed = time.process_time() - started
    if checksum != CHECKSUM:
        raise RuntimeError(
            f"reference kernel checksum {checksum} != {CHECKSUM}: the kernel "
            "was edited without updating CHECKSUM and VERSION"
        )
    return elapsed
