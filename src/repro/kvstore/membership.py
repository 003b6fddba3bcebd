"""Membership churn on the hash ring: graceful join/leave plus key migration.

Churn here is *planned* rebalancing, not failure (docs/CONSISTENCY.md).  A
:class:`ChurnableRing` keeps every server's virtual points on the ring for
the whole run and toggles an **active set**: inactive owners are skipped
when walking replica groups, so the RGID universe (one ID per ring segment)
never changes and RGIDs stamped into in-flight NetRS requests stay
resolvable across membership changes.

The :class:`ChurnCoordinator` applies scheduled
:class:`~repro.faults.events.NodeJoin` / ``NodeLeave`` events (dispatched by
:class:`~repro.faults.injector.FaultInjector`), diffs replica-group
ownership before/after each change, and ships the affected key ranges as
``is_migration`` packets through the real fabric -- background transfer
traffic that competes with foreground requests for links, exactly like a
rebalance would.  Everything is deterministic: donors iterate their version
stores in write-application order and no RNG streams are involved.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.events import NodeJoin, NodeLeave
from repro.kvstore.hashing import ConsistentHashRing, shared_ring
from repro.network.packet import MAGIC_PLAIN, Packet

#: Keys per migration packet.  Chunking keeps individual transfer packets
#: bounded (a whole key range in one jumbo frame would under-model the
#: fabric cost) without flooding the event queue with per-key packets.
MIGRATION_CHUNK_KEYS = 64


class ChurnableRing(ConsistentHashRing):
    """A consistent-hash ring whose membership can change mid-run.

    The virtual-point universe is fixed at construction over *all* servers;
    :meth:`activate` / :meth:`deactivate` toggle which owners count when
    walking replica groups.  With every server active the ring is
    positionally identical to a frozen :class:`ConsistentHashRing` over the
    same arguments -- static-membership runs are unaffected by the subclass.

    Mutable by design, so never memoized itself; what membership cannot
    change it borrows from ``shared_ring`` over the same arguments: the
    points, their owners, the all-active groups and the key -> RGID memo
    (a key's segment does not depend on membership).  It never changes
    that ring's points or groups; a memo miss looks the key up on that
    ring, which only adds a membership-independent RGID to the memo.  Every
    lookup is answered from this ring's own live ``groups``.
    """

    def __init__(
        self,
        servers: Sequence[str],
        *,
        replication_factor: int = 3,
        virtual_nodes: int = 16,
    ) -> None:
        frozen = shared_ring(
            servers,
            replication_factor=replication_factor,
            virtual_nodes=virtual_nodes,
        )
        self.servers = frozen.servers
        self.replication_factor = replication_factor
        self.virtual_nodes = virtual_nodes
        self._hashes = frozen._hashes
        self._owners = frozen._owners
        self.groups = list(frozen.groups)
        self._active = set(self.servers)
        self._frozen = frozen
        # The frozen ring's memo, under a name of its own: its groups are the
        # all-active ones, so only its RGIDs are read.
        self._rgid_cache = frozen._key_cache

    def _walk_replicas(self, start: int) -> Tuple[str, ...]:
        """First ``replication_factor`` distinct *active* servers clockwise."""
        replicas: List[str] = []
        n = len(self._owners)
        index = start
        while len(replicas) < self.replication_factor:
            owner = self._owners[index % n]
            if owner in self._active and owner not in replicas:
                replicas.append(owner)
            index += 1
            if index - start > n:
                raise ConfigurationError(
                    "not enough active servers on ring to form replica "
                    f"groups of {self.replication_factor}"
                )
        return tuple(replicas)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def active_servers(self) -> Tuple[str, ...]:
        """Currently active servers, in ring-universe order."""
        return tuple(s for s in self.servers if s in self._active)

    def is_active(self, server: str) -> bool:
        return server in self._active

    def group_snapshot(self) -> List[Tuple[str, ...]]:
        """Copy of the current RGID -> replicas table (for ownership diffs)."""
        return list(self.groups)

    def activate(self, server: str) -> None:
        """Admit ``server``; recomputes every replica group."""
        self._require_member(server)
        if server in self._active:
            raise ConfigurationError(f"{server} is already active on the ring")
        self._active.add(server)
        self._rebuild()

    def deactivate(self, server: str) -> None:
        """Retire ``server``; recomputes every replica group."""
        self._require_member(server)
        if server not in self._active:
            raise ConfigurationError(f"{server} is not active on the ring")
        if len(self._active) - 1 < self.replication_factor:
            raise ConfigurationError(
                f"removing {server} would leave "
                f"{len(self._active) - 1} active servers, fewer than "
                f"replication_factor={self.replication_factor}"
            )
        self._active.discard(server)
        self._rebuild()

    def _require_member(self, server: str) -> None:
        if server not in self.servers:
            raise ConfigurationError(
                f"{server} is not part of the ring universe"
            )

    def _rebuild(self) -> None:
        self.groups = [self._walk_replicas(i) for i in range(len(self._hashes))]

    def group_for_key(self, key: int) -> Tuple[int, Tuple[str, ...]]:
        """Map a key to ``(rgid, replica servers)`` under the current
        membership: the RGID from the shared memo, the group live."""
        hit = self._rgid_cache.get(key)
        rgid = hit[0] if hit is not None else self._frozen.group_for_key(key)[0]
        return rgid, self.groups[rgid]


class ChurnCoordinator:
    """Applies churn events to a :class:`ChurnableRing` and migrates keys.

    On each membership change the coordinator diffs replica-group ownership
    and, for every RGID that gained members, picks a **donor** -- the first
    member of the *old* group whose server is not crashed (a leaver can
    donate: it is retired from the ring, not down).  Each donor makes one
    pass over its version store, buckets entries by receiver, and ships
    them as chunked ``is_migration`` packets via its host, so rebalance
    traffic traverses the fabric and is charged to the run's byte counters.

    Transfers are fire-and-forget version metadata: receivers fold chunks
    LWW (:meth:`KVServer._install_migration`), so migration commutes with
    concurrent writes and duplicate delivery is harmless.
    """

    __slots__ = (
        "env",
        "ring",
        "servers",
        "value_size",
        "chunk_keys",
        "joins",
        "leaves",
        "migrated_keys",
        "migration_bytes",
        "migration_transfers",
        "migration_unserved_groups",
    )

    def __init__(
        self,
        env,
        ring: ChurnableRing,
        servers: Dict[str, object],
        *,
        value_size: int,
        chunk_keys: int = MIGRATION_CHUNK_KEYS,
    ) -> None:
        if chunk_keys < 1:
            raise ConfigurationError("chunk_keys must be >= 1")
        self.env = env
        self.ring = ring
        self.servers = servers
        self.value_size = value_size
        self.chunk_keys = chunk_keys
        self.joins = 0
        self.leaves = 0
        self.migrated_keys = 0
        self.migration_bytes = 0
        self.migration_transfers = 0
        # RGIDs whose entire old group was crashed when ownership moved:
        # nobody could donate, the new owners start cold.
        self.migration_unserved_groups = 0

    @property
    def churn_applied(self) -> int:
        return self.joins + self.leaves

    # ------------------------------------------------------------------
    # Static validation
    # ------------------------------------------------------------------
    def preflight(self, events: Iterable) -> None:
        """Reject impossible churn sequences before the run starts.

        Simulates the active set through the resolved event sequence:
        leaves must target active servers, joins inactive ones, and the
        active count may never drop below the replication factor.  Called
        by :class:`~repro.faults.injector.FaultInjector` at build time so
        bad schedules fail at config time, not mid-run.
        """
        active = set(self.ring.active_servers)
        for event in events:
            name = event.server
            if name not in self.ring.servers:
                raise ConfigurationError(
                    f"churn target {name!r} is not part of the ring universe"
                )
            if isinstance(event, NodeLeave):
                if name not in active:
                    raise ConfigurationError(
                        f"node-leave@{event.at:g} targets {name}, which is "
                        "not active at that point in the churn schedule"
                    )
                active.discard(name)
                if len(active) < self.ring.replication_factor:
                    raise ConfigurationError(
                        f"node-leave@{event.at:g}:{name} would leave "
                        f"{len(active)} active servers, fewer than "
                        f"replication_factor={self.ring.replication_factor}"
                    )
            elif isinstance(event, NodeJoin):
                if name in active:
                    raise ConfigurationError(
                        f"node-join@{event.at:g} targets {name}, which is "
                        "already active at that point in the churn schedule"
                    )
                active.add(name)
            else:  # pragma: no cover - injector filters to churn events
                raise ConfigurationError(
                    f"unexpected churn event {type(event).__name__}"
                )

    # ------------------------------------------------------------------
    # Event application (called by FaultInjector at scheduled times)
    # ------------------------------------------------------------------
    def leave(self, server: str) -> None:
        """Retire ``server`` and migrate its key ranges to the new owners."""
        before = self.ring.group_snapshot()
        self.ring.deactivate(server)
        self.leaves += 1
        self._migrate(before)

    def join(self, server: str) -> None:
        """Admit ``server``; previous owners stream its new ranges to it."""
        before = self.ring.group_snapshot()
        self.ring.activate(server)
        self.joins += 1
        self._migrate(before)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _migrate(self, before: List[Tuple[str, ...]]) -> None:
        """Diff ownership against ``before`` and ship gained key ranges."""
        after = self.ring.group_snapshot()
        # donor -> rgid -> receivers.  Built in RGID order, so iteration
        # (and therefore packet emission) is deterministic.
        donor_tasks: Dict[str, Dict[int, Tuple[str, ...]]] = {}
        for rgid, (old_group, new_group) in enumerate(zip(before, after)):
            gained = tuple(s for s in new_group if s not in old_group)
            if not gained:
                continue
            donor = next(
                (s for s in old_group if not self.servers[s].down), None
            )
            if donor is None:
                self.migration_unserved_groups += 1
                continue
            donor_tasks.setdefault(donor, {})[rgid] = gained
        for donor, tasks in donor_tasks.items():
            self._donate(donor, tasks)

    def _donate(self, donor: str, tasks: Dict[int, Tuple[str, ...]]) -> None:
        """One pass over the donor's version store; bucket and ship chunks."""
        donor_server = self.servers[donor]
        buckets: Dict[str, List[Tuple[int, float, int]]] = {}
        for key, (version_ts, version_id) in donor_server.version_items():
            # A key's ring segment (RGID) depends only on the key's hash
            # point, never on membership, so the lookup stays valid across
            # the change that triggered this migration.
            rgid = self.ring.group_for_key(key)[0]
            receivers = tasks.get(rgid)
            if receivers is None:
                continue
            for receiver in receivers:
                buckets.setdefault(receiver, []).append(
                    (key, version_ts, version_id)
                )
        for receiver, entries in buckets.items():
            for start in range(0, len(entries), self.chunk_keys):
                chunk = tuple(entries[start : start + self.chunk_keys])
                self._ship(donor_server, receiver, chunk)

    def _ship(
        self,
        donor_server,
        receiver: str,
        chunk: Tuple[Tuple[int, float, int], ...],
    ) -> None:
        packet = Packet(
            src=donor_server.name,
            dst=receiver,
            magic=MAGIC_PLAIN,
            request_id=0,
            value_size=len(chunk) * self.value_size,
            client=donor_server.name,
            server=receiver,
            issued_at=self.env.now,
            is_migration=True,
            migration_entries=chunk,
        )
        self.migration_transfers += 1
        self.migrated_keys += len(chunk)
        self.migration_bytes += packet.value_size
        donor_server.host.send(packet)
