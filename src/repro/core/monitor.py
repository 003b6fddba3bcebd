"""The NetRS monitor: per-traffic-group tier counters on ToR egress.

Implements paper section IV-D.  The monitor lives in the egress pipeline of
a ToR switch and counts *responses leaving the network* -- the only packets
that (a) reflect the replica NetRS actually chose and (b) belong to traffic
groups of this rack.  Each response is classified by comparing its source
marker against the ToR's own marker: same rack -> Tier-2, same pod ->
Tier-1, otherwise Tier-0.  The controller periodically collects these
counters to build the ILP's traffic matrix ``T``.

Nothing waits on a count: :meth:`NetRSMonitor.note_at` dates one ahead of the
clock, for no event, and every read first counts what the clock has passed.
Between reads the notes pile up, counted every few notes so that they stay
as many as the responses in flight toward the ToR, plus a few.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.network.addressing import SourceMarker, tier_between
from repro.network.packet import Packet
from repro.sim.core import Environment

#: Maps a destination host name to its traffic-group ID (None = untracked).
GroupLookup = Callable[[str], Optional[int]]

#: Notes between settlements when nothing reads the counters.  Each waiting
#: note holds ~120 bytes on every monitor: at 32 the benchmark's NetRS cell
#: peaked 50 KB (3.5 %) higher, for a quarter call per response less.
_SETTLE_EVERY = 4


class NetRSMonitor:
    """Match-action counters for one ToR switch."""

    def __init__(
        self,
        env: Environment,
        *,
        marker: SourceMarker,
        group_lookup: GroupLookup,
    ) -> None:
        self.env = env
        self.marker = marker
        self.group_lookup = group_lookup
        self._counts: Dict[int, List[int]] = {}
        self.window_started_at = env.now
        self._observed = 0
        self._unmatched = 0
        # Counts dated ahead of the clock, a heap of (when, order, dst, marker).
        self._notes: List[Tuple[float, int, str, SourceMarker]] = []
        self._noted = 0

    def observe(self, packet: Packet) -> None:
        """Egress pipeline hook: count one monitor-labeled response, now."""
        self.note_at(self.env.now, packet.dst, packet.source_marker)

    def note_at(self, when: float, dst: Optional[str], marker: Optional[SourceMarker]) -> None:
        """Count a response that leaves for ``dst`` at ``when`` (not before now)."""
        if marker is None or dst is None:
            raise ProtocolError(f"monitored response to {dst} needs a marker and a destination")
        self._noted += 1
        heappush(self._notes, (when, self._noted, dst, marker))
        if not self._noted % _SETTLE_EVERY:
            self._settle()  # the backlog stays bounded

    def _settle(self) -> None:
        """Count, in the order they left, the responses the clock has passed."""
        now, notes = self.env.now, self._notes
        while notes and notes[0][0] <= now:
            _when, _order, dst, marker = heappop(notes)
            group_id = self.group_lookup(dst)
            if group_id is None:
                self._unmatched += 1
                continue
            counters = self._counts.setdefault(group_id, [0, 0, 0])
            counters[tier_between(marker, self.marker)] += 1
            self._observed += 1

    @property
    def observed(self) -> int:
        """Responses counted into a traffic group, as of the clock."""
        self._settle()
        return self._observed

    @property
    def unmatched(self) -> int:
        """Responses for hosts of no traffic group, as of the clock."""
        self._settle()
        return self._unmatched

    def counts(self) -> Dict[int, Tuple[int, int, int]]:
        """Raw per-group counters ``(tier0, tier1, tier2)`` this window."""
        self._settle()
        return {g: (c[0], c[1], c[2]) for g, c in self._counts.items()}

    def rates(self) -> Dict[int, Tuple[float, float, float]]:
        """Per-group traffic rates in requests/second over the window."""
        self._settle()
        elapsed = self.env.now - self.window_started_at
        if elapsed <= 0:
            return {g: (0.0, 0.0, 0.0) for g in self._counts}
        return {
            g: (c[0] / elapsed, c[1] / elapsed, c[2] / elapsed)
            for g, c in self._counts.items()
        }

    def reset(self) -> None:
        """Start a fresh measurement window."""
        self._settle()
        self._counts.clear()
        self.window_started_at = self.env.now
