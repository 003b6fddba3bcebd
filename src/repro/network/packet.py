"""The NetRS packet format (paper section IV-A, Fig. 2).

NetRS messages ride in UDP payloads.  Request and response carry different
segments to keep protocol overhead low:

===============  =========  =====================================================
Segment          Size       Meaning
===============  =========  =====================================================
RID              2 bytes    ID of the NetRS operator acting as RSNode
MF               6 bytes    magic field: packet-type label
RV               2 bytes    retaining value, set by the RSNode, echoed back
RGID (request)   3 bytes    replica-group ID; selector resolves to candidates
SM (response)    4 bytes    source marker (pod + rack of the server)
SSL (response)   2 bytes    length of the piggybacked server status
SS (response)    variable   piggybacked server status
payload          variable   application content
===============  =========  =====================================================

The magic field distinguishes NetRS requests (``MAGIC_REQUEST``), NetRS
responses (``MAGIC_RESPONSE``) and monitor-visible non-NetRS packets
(``MAGIC_MONITOR``), plus their images under an invertible transform
``f`` (:func:`magic_transform`).  The transform implements the paper's
request/response magic dance:

* the selector rebuilds a request with ``f(MAGIC_RESPONSE)`` -- switches stop
  treating it as NetRS, yet the server's ``f^-1`` restores ``MAGIC_RESPONSE``
  on the reply;
* a ToR enabling DRS stamps ``f(MAGIC_MONITOR)`` -- the reply comes back as
  ``MAGIC_MONITOR``, counted by the monitor but never sent to an accelerator.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ProtocolError
from repro.network.addressing import SourceMarker
from repro.network.routing import NO_ROUTE, Route

# Magic-field constants.  Values are arbitrary but distinct, including under
# the transform; 6 bytes on the wire.
MAGIC_REQUEST = 0x4E52_5351  # "NRSQ"
MAGIC_RESPONSE = 0x4E52_5350  # "NRSP"
MAGIC_MONITOR = 0x4E52_534D  # "NRSM"
MAGIC_PLAIN = 0x0000_0000  # ordinary (non-NetRS) traffic

_TRANSFORM_MASK = 0x00F0_F0F0

#: RSNode ID meaning "no operator assigned" (packet not yet stamped).
RSNODE_UNSET = 0
#: Illegal RSNode ID used to request Degraded Replica Selection (section IV-B).
RSNODE_ILLEGAL = -1

# Fixed segment sizes in bytes (Fig. 2), used by wire_size().
_SIZE_RID = 2
_SIZE_MF = 6
_SIZE_RV = 2
_SIZE_RGID = 3
_SIZE_SM = 4
_SIZE_SSL = 2
_SIZE_SS = 4 + 4 + 4  # queue size + service rate + timestamp
_SIZE_UDP_HEADERS = 8 + 20 + 14  # UDP + IPv4 + Ethernet


def magic_transform(magic: int) -> int:
    """The invertible function ``f(.)`` applied to magic fields."""
    return magic ^ _TRANSFORM_MASK


def magic_untransform(magic: int) -> int:
    """``f^-1(.)``; XOR is an involution so this equals ``f``."""
    return magic ^ _TRANSFORM_MASK


@dataclass(slots=True)
class ServerStatus:
    """Piggybacked server state (Fig. 2 ``SS`` segment).

    This is what C3 calls the server-side feedback: the instantaneous queue
    size and the server's own estimate of its service rate.  A value: built
    once per reply, positionally (``ServerStatus(queue, rate, now)``, one
    call), and never changed after; not frozen, whose ``__init__`` pays a
    call per field.
    """

    queue_size: int
    service_rate: float  # requests per second, EWMA kept by the server
    timestamp: float  # server clock when the status was sampled

    def wire_size(self) -> int:
        """Bytes of the encoded status: queue (4) + rate (4) + stamp (4)."""
        return _SIZE_SS


@dataclass(slots=True)
class Packet:
    """One simulated key-value message (request or response).

    ``src``/``dst`` are end-host names; ``dst`` is ``None`` for a NetRS
    request until an RSNode selects the replica.  ``route``/``route_pos``/
    ``route_target`` are used only where the fabric forwards hop by hop
    (the default fabric delivers by distance and attaches no route): they
    hold the source-routed path being followed -- the deterministic ECMP
    choice a chain of switches would make, looked up again whenever a NetRS
    rule redirects the packet.  ``route`` is an immutable tuple shared with
    every other packet on the same path (and with clones), never a copy.
    """

    src: str
    dst: Optional[str]
    magic: int
    request_id: int
    # --- NetRS header segments -------------------------------------------
    rsnode_id: int = RSNODE_UNSET
    retaining_value: float = 0.0
    rgid: int = -1  # request only
    source_marker: Optional[SourceMarker] = None  # response only
    server_status: Optional[ServerStatus] = None  # response only
    # --- application payload ---------------------------------------------
    key: int = 0
    value_size: int = 0  # bytes carried by a response
    client: str = ""  # issuing client host (src of the original request)
    server: str = ""  # serving host (filled once selected)
    backup_replica: str = ""  # client-chosen DRS fallback (request only)
    issued_at: float = 0.0  # client clock at issue time
    is_redundant: bool = False  # duplicate sent by CliRS-R95
    is_write: bool = False  # replicated write (fans out to all replicas)
    # --- consistency protocol segments (see docs/CONSISTENCY.md) ----------
    is_digest: bool = False  # version-only read probe (quorum reads)
    is_repair: bool = False  # asynchronous read-repair write
    is_migration: bool = False  # key-range transfer between servers (churn)
    version_ts: float = 0.0  # LWW logical timestamp (client issue clock)
    version_id: int = 0  # LWW tie-break (globally monotone request id)
    migration_entries: tuple = ()  # ((key, version_ts, version_id), ...)
    # --- latency-decomposition stamps (simulation metadata, not wire data) --
    selected_at: float = 0.0  # when an RSNode finished selecting (0 = client)
    server_queue_delay: float = 0.0  # waiting time at the server
    server_service_time: float = 0.0  # actual service duration
    # --- in-flight routing state ------------------------------------------
    route: Route = NO_ROUTE
    route_pos: int = 0
    route_target: str = ""
    hops: int = 0  # forwarding count, for overhead accounting

    @property
    def is_request(self) -> bool:
        """True for request-shaped packets (NetRS or plain).

        Every response piggybacks a :class:`ServerStatus` (that is the C3
        feedback channel), so its absence identifies a request.
        """
        return self.server_status is None

    def flow_key(self, salt: str = "") -> int:
        """Deterministic ECMP hash for this packet's 5-tuple-ish identity."""
        identity = f"{self.src}|{self.dst}|{self.request_id}|{salt}"
        return zlib.crc32(identity.encode("ascii"))

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes (headers + payload)."""
        size = _SIZE_UDP_HEADERS
        if self.magic != MAGIC_PLAIN:
            size += _SIZE_RID + _SIZE_MF + _SIZE_RV
        if self.rgid >= 0:
            size += _SIZE_RGID
        if self.source_marker is not None:
            size += _SIZE_SM
        if self.server_status is not None:
            size += _SIZE_SSL + _SIZE_SS
        size += 16 if self.value_size == 0 else self.value_size  # app payload
        return size

    def wire_accounting(self) -> "tuple[int, int]":
        """``(wire_size(), netrs_header_bytes())`` in one pass.

        The fabric charges both on every hop; evaluating the shared segment
        branches once halves the accounting cost on the hot path.
        """
        common = 0
        if self.rgid >= 0:
            common += _SIZE_RGID
        if self.source_marker is not None:
            common += _SIZE_SM
        if self.magic != MAGIC_PLAIN:
            fixed = _SIZE_RID + _SIZE_MF + _SIZE_RV
            overhead = fixed + common
        else:
            fixed = 0
            overhead = 0
        size = _SIZE_UDP_HEADERS + fixed + common
        if self.server_status is not None:
            size += _SIZE_SSL + _SIZE_SS
        size += 16 if self.value_size == 0 else self.value_size  # app payload
        return size, overhead

    def netrs_header_bytes(self) -> int:
        """Bytes attributable to the NetRS protocol itself.

        The piggybacked server status is excluded: load-aware selection
        needs it with or without NetRS (C3 piggybacks it under CliRS too).
        """
        if self.magic == MAGIC_PLAIN:
            return 0
        size = _SIZE_RID + _SIZE_MF + _SIZE_RV
        if self.rgid >= 0:
            size += _SIZE_RGID
        if self.source_marker is not None:
            size += _SIZE_SM
        return size

    def clone(self) -> "Packet":
        """Deep-enough copy for redundant requests and accelerator clones."""
        duplicate = Packet(
            src=self.src,
            dst=self.dst,
            magic=self.magic,
            request_id=self.request_id,
            rsnode_id=self.rsnode_id,
            retaining_value=self.retaining_value,
            rgid=self.rgid,
            source_marker=self.source_marker,
            server_status=self.server_status,
            key=self.key,
            value_size=self.value_size,
            client=self.client,
            server=self.server,
            backup_replica=self.backup_replica,
            issued_at=self.issued_at,
            is_redundant=self.is_redundant,
            is_write=self.is_write,
            is_digest=self.is_digest,
            is_repair=self.is_repair,
            is_migration=self.is_migration,
            version_ts=self.version_ts,
            version_id=self.version_id,
            migration_entries=self.migration_entries,
        )
        duplicate.selected_at = self.selected_at
        duplicate.server_queue_delay = self.server_queue_delay
        duplicate.server_service_time = self.server_service_time
        duplicate.route = self.route
        duplicate.route_pos = self.route_pos
        duplicate.route_target = self.route_target
        duplicate.hops = self.hops
        return duplicate

    def reply(self, server: str, status: ServerStatus, value_size: int) -> "Packet":
        """Rewrite this request, in place, into ``server``'s reply; returns it.

        The magic is ``f^-1`` of the request's (paper section IV-C): a
        request rebuilt by a selector (``f(MAGIC_RESPONSE)``) yields a NetRS
        response, a DRS request (``f(MAGIC_MONITOR)``) a monitor-only one, a
        plain request a plain response.  What identifies the request, its
        RSNode and retaining value and its latency stamps stay; what only a
        request carries -- RGID, source marker, backup replica, repair and
        migration payload, the version, the route state and hop count -- is
        reset, so the reply starts out as a freshly built packet would.
        Whoever still needs the request afterwards replies on a
        :meth:`clone`.
        """
        magic = self.magic
        if magic != MAGIC_PLAIN:
            self.magic = magic ^ _TRANSFORM_MASK
        self.src = server
        self.dst = self.client
        self.server = server
        self.server_status = status
        self.value_size = value_size
        self.rgid = -1
        self.source_marker = None
        self.backup_replica = ""
        self.is_repair = False
        self.is_migration = False
        self.migration_entries = ()
        self.version_ts = 0.0
        self.version_id = 0
        self.route = NO_ROUTE
        self.route_pos = 0
        self.route_target = ""
        self.hops = 0
        return self


def make_request(
    *,
    client: str,
    request_id: int,
    key: int,
    rgid: int,
    backup_replica: str,
    issued_at: float,
    netrs: bool,
    dst: Optional[str] = None,
) -> Packet:
    """Build a fresh read request.

    With ``netrs=True`` the destination is left open (an RSNode will choose);
    otherwise ``dst`` must name the replica the client selected.
    """
    if netrs:
        magic = MAGIC_REQUEST
        if dst is not None:
            raise ProtocolError("NetRS requests must not pre-select a destination")
    else:
        magic = MAGIC_PLAIN
        if dst is None:
            raise ProtocolError("plain requests require a destination replica")
    return Packet(
        src=client,
        dst=dst,
        magic=magic,
        request_id=request_id,
        rgid=rgid if netrs else -1,
        key=key,
        client=client,
        backup_replica=backup_replica,
        issued_at=issued_at,
        server="" if netrs else (dst or ""),
    )
