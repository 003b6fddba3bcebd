"""Consistent hashing with virtual nodes and replica groups.

Keys are placed on a hash ring; each server owns several virtual points.  A
key's replica group is the first ``replication_factor`` *distinct* servers
clockwise from the key's hash.  Every ring segment therefore maps to one
replica group, and the segment index doubles as the paper's **RGID** (Fig. 2):
a compact ID a NetRS selector resolves to candidate servers through its local
replica-group database, keeping packet headers fixed-size.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

_HASH_SPACE = 2**64


def stable_hash(text: str) -> int:
    """64-bit stable hash (md5-based, independent of PYTHONHASHSEED)."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Hash ring mapping keys to replica groups.

    Args:
        servers: Server host names participating in the ring.
        replication_factor: Distinct replicas per key (paper: 3).
        virtual_nodes: Ring points per server; more points smooth the load
            distribution at the cost of a larger replica-group database.
    """

    def __init__(
        self,
        servers: Sequence[str],
        *,
        replication_factor: int = 3,
        virtual_nodes: int = 16,
    ) -> None:
        if replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")
        if virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be >= 1")
        unique = list(dict.fromkeys(servers))
        if len(unique) != len(servers):
            raise ConfigurationError("duplicate server names in ring")
        if len(unique) < replication_factor:
            raise ConfigurationError(
                f"need at least {replication_factor} servers, got {len(unique)}"
            )
        self.servers: Tuple[str, ...] = tuple(unique)
        self.replication_factor = replication_factor
        self.virtual_nodes = virtual_nodes

        points: List[Tuple[int, str]] = []
        for server in self.servers:
            for v in range(virtual_nodes):
                points.append((stable_hash(f"{server}#{v}"), server))
        points.sort()
        self._hashes: List[int] = [h for h, _ in points]
        self._owners: List[str] = [s for _, s in points]
        # The replica-group database: RGID -> candidate servers.
        self.groups: List[Tuple[str, ...]] = [
            self._walk_replicas(i) for i in range(len(points))
        ]
        # Key-lookup memo: the ring is frozen after construction and
        # group_for_key is a pure function of the key, so Zipf-skewed
        # workloads (hot keys repeat constantly) hit this cache instead of
        # re-hashing md5 per request.  Bounded to keep huge key spaces from
        # accumulating; clearing is deterministic, so results are unchanged.
        self._key_cache: Dict[int, Tuple[int, Tuple[str, ...]]] = {}

    _KEY_CACHE_LIMIT = 1 << 17

    def _walk_replicas(self, start: int) -> Tuple[str, ...]:
        """First ``replication_factor`` distinct servers clockwise of a point."""
        replicas: List[str] = []
        n = len(self._owners)
        index = start
        while len(replicas) < self.replication_factor:
            owner = self._owners[index % n]
            if owner not in replicas:
                replicas.append(owner)
            index += 1
            if index - start > n:  # pragma: no cover - guarded by ctor checks
                raise ConfigurationError("not enough distinct servers on ring")
        return tuple(replicas)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of ring segments (= number of RGIDs)."""
        return len(self._hashes)

    def group_for_key(self, key: int) -> Tuple[int, Tuple[str, ...]]:
        """Map a key to ``(rgid, replica servers)``."""
        hit = self._key_cache.get(key)
        if hit is not None:
            return hit
        point = stable_hash(f"key:{key}") % _HASH_SPACE
        index = bisect.bisect_left(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        if len(self._key_cache) >= self._KEY_CACHE_LIMIT:
            self._key_cache.clear()
        result = (index, self.groups[index])
        self._key_cache[key] = result
        return result

    def group_database(self) -> Dict[int, Tuple[str, ...]]:
        """Full RGID -> replicas mapping (what a selector would hold)."""
        return dict(enumerate(self.groups))

    def ownership_counts(self) -> Dict[str, int]:
        """Primary-ownership counts per server (for balance diagnostics)."""
        counts: Dict[str, int] = {server: 0 for server in self.servers}
        for group in self.groups:
            counts[group[0]] += 1
        return counts


def shared_ring(
    servers: Sequence[str],
    *,
    replication_factor: int = 3,
    virtual_nodes: int = 16,
) -> ConsistentHashRing:
    """Memoized :class:`ConsistentHashRing` for repeated identical topologies.

    The ring is frozen after construction and every lookup is a pure
    function of its arguments, so engines built over the same
    ``(servers, replication_factor, virtual_nodes)`` triple can share one
    instance.  Sweeps, best-of-N benchmarks and shard workers construct
    hundreds of engines over one topology; sharing skips the md5 point
    hashing per construction and keeps the key-lookup memo warm across
    runs.  Results are unchanged -- only the per-construction cost.  A
    :class:`~repro.kvstore.membership.ChurnableRing` borrows the same
    instance's points, groups and memo; it never changes the points or
    groups, and fills the memo only with membership-independent RGIDs.
    """
    return _shared_ring(tuple(servers), replication_factor, virtual_nodes)


@lru_cache(maxsize=8)
def _shared_ring(
    servers: Tuple[str, ...], replication_factor: int, virtual_nodes: int
) -> ConsistentHashRing:
    """:func:`shared_ring` by a hashable key (callers pass lists)."""
    return ConsistentHashRing(
        servers,
        replication_factor=replication_factor,
        virtual_nodes=virtual_nodes,
    )
