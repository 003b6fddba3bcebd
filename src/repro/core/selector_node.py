"""The NetRS selector: replica selection on a network accelerator.

Implements paper section IV-C, as the one selector every tier drives.  For a
NetRS request the selector resolves the RGID against its local replica-group
database and runs the configured replica-selection algorithm; for a cloned
NetRS response it folds the piggybacked server status, and the response time
derived from the retaining value, into the algorithm's state.  What carries
a request -- a packet the switch rewrites around :meth:`NetRSSelector.select`,
or a flow-tier job tuple -- is the caller's business; a clone is
``(server, rv, status)`` on both tiers, and :meth:`NetRSSelector.fold` its work.

The accelerator runs its work on admission and tells it the instant its
service completes, so ``now`` may lie ahead of the clock by the packet's
stay in the accelerator.  The two counters report what has completed by the
clock, as the accelerator's own do.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.packet import ServerStatus
from repro.selection.base import ReplicaSelector
from repro.sim.core import Environment

#: Calls between prunings of the instants noted as ahead of the clock; only
#: pruning reads the clock, which the per-packet path otherwise never does.
_PRUNE_EVERY = 16


class NetRSSelector:
    """Selector software running on one NetRS operator's accelerator."""

    def __init__(
        self,
        env: Environment,
        *,
        algorithm: ReplicaSelector,
        ring: ConsistentHashRing,
    ) -> None:
        self.env = env
        self.algorithm = algorithm
        self.ring = ring
        self._selected = 0
        self._folded = 0
        # Completion instants the clock had not reached when last pruned
        # (non-decreasing: one accelerator, first in, first out).
        self._selects_ahead: List[float] = []
        self._folds_ahead: List[float] = []

    def select(self, rgid: int, now: float) -> str:
        """Choose a replica of group ``rgid`` for a request served at ``now``."""
        try:
            replicas = self.ring.groups[rgid]
        except IndexError:
            raise ConfigurationError(f"unknown RGID {rgid}") from None
        algorithm = self.algorithm
        server = algorithm.select(replicas, now)
        algorithm.note_sent(server, now)
        self._selected += 1
        self._selects_ahead.append(now)
        if not self._selected % _PRUNE_EVERY:
            _still_ahead(self._selects_ahead, self.env.now)
        return server

    def fold(self, clone: Tuple[str, float, ServerStatus], now: float) -> None:
        """Accelerator work for a response clone ``(server, rv, status)``:
        fold it, served at ``now``, into local information.

        ``rv`` is the retaining value the request left with: the instant it
        was selected, so ``now - rv`` is the response time seen from here.
        """
        server, rv, status = clone
        if status is None:
            raise ProtocolError(f"NetRS response from {server} carries no status")
        self.algorithm.note_response(server, now - rv, status, now)
        self._folded += 1
        self._folds_ahead.append(now)
        if not self._folded % _PRUNE_EVERY:
            _still_ahead(self._folds_ahead, self.env.now)

    @property
    def requests_handled(self) -> int:
        """Requests whose selection has completed."""
        return self._selected - _still_ahead(self._selects_ahead, self.env.now)

    @property
    def responses_handled(self) -> int:
        """Response clones whose fold has completed."""
        return self._folded - _still_ahead(self._folds_ahead, self.env.now)


def _still_ahead(ahead: List[float], clock: float) -> int:
    """Drop the instants the clock has reached; how many it has not."""
    del ahead[: bisect_right(ahead, clock)]
    return len(ahead)
