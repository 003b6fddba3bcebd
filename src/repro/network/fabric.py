"""The network fabric: device registry plus link model.

``Network`` owns every simulated device (hosts, switches) and moves packets
between directly-linked devices with the configured per-hop latency.  The
paper's parameters (section V-A, taken from IncBricks measurements): 30 us
between directly connected switches; we default host links to the same value.

Links are pure delays, as in the paper: its requests are ~1 KB and its
bottleneck is server/accelerator service time.  Every byte transferred is
accounted, so protocol overhead is measurable.
"""

from __future__ import annotations

from heapq import heappush
from itertools import chain
from typing import Callable, Dict, Iterator, Optional, Protocol, Sequence, Tuple

from repro.errors import TopologyError
from repro.network.addressing import SourceMarker
from repro.network.packet import (
    _SIZE_MF,
    _SIZE_RGID,
    _SIZE_RID,
    _SIZE_RV,
    _SIZE_SM,
    _SIZE_SS,
    _SIZE_SSL,
    _SIZE_UDP_HEADERS,
    MAGIC_MONITOR,
    MAGIC_PLAIN,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    Packet,
)
from repro.network.routing import DEFAULT_PATH_CACHE_SIZE, Router
from repro.network.topology import NodeKind, Topology
from repro.sim.core import Environment

_SIZE_FIXED_NETRS = _SIZE_RID + _SIZE_MF + _SIZE_RV


def hops_not_sent(base: float, delays: Sequence[float], stop: float) -> int:
    """How many hops of a leg accounted whole at its send a run stopped at
    ``stop`` never transmitted.

    The leg leaves at ``base`` and crosses one link of each of ``delays``; a
    hop leaves when the one before arrives (chained float additions, as hop
    by hop).  The first hop was transmitted unless the leg is dated past the
    stop; a later one was not if it would leave at or after the stop.  Both
    tiers settle what is still in flight by this rule
    (:meth:`Network.settle_trunks`, the flow engines' ``_settle``).
    """
    undone = 1 if base > stop else 0
    t = base
    for delay in delays[:-1]:
        t += delay
        if t >= stop:
            undone += 1
    return undone


class Device(Protocol):
    """Anything that can be attached to the fabric."""

    def receive(self, packet: Packet, from_name: str) -> None:
        """Handle a packet arriving over a link."""
        ...  # pragma: no cover - protocol definition


class Network:
    """Device registry and packet mover.

    :meth:`transmit` is the reference: one link, one event.  The default
    fabric collapses a run of switches nothing waits at into one event
    with the same accounting, priced by distance (``Host.send`` for a plain
    packet, :meth:`express` for the rest, from a host's ToR or a switch)
    whenever ``_express_ok`` says it may;
    which switches or links carried a packet only :meth:`track_links`
    records, hop by hop.

    Args:
        env: The simulation environment.
        topology: The wired topology; transmissions are checked against it.
        switch_link_latency: One-way latency between two switches (seconds).
        host_link_latency: One-way latency of a host's access link (seconds).
    """

    __slots__ = (
        "env",
        "topology",
        "router",
        "switch_link_latency",
        "host_link_latency",
        "_devices",
        "_latency_cache",
        "transmissions",
        "bytes_transferred",
        "netrs_overhead_bytes",
        "_counting_links",
        "link_bytes",
        "link_packets",
        "_receivers",
        "_fast_delay",
        "packets_dropped",
        "_dead_links",
        "_degraded_links",
        "_faulty",
        "_trunking",
        "_switches_missing",
        "_express_ok",
        "_plain_rows",
        "_distances",
        "stamp_at_send",
    )

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        *,
        switch_link_latency: float = 30e-6,
        host_link_latency: float = 30e-6,
        route_cache_size: int = DEFAULT_PATH_CACHE_SIZE,
    ) -> None:
        if switch_link_latency < 0 or host_link_latency < 0:
            raise ValueError("link latencies must be non-negative")
        self.env = env
        self.topology = topology
        self.router = Router(topology, path_cache_size=route_cache_size)
        self.switch_link_latency = switch_link_latency
        self.host_link_latency = host_link_latency
        self._devices: Dict[str, Device] = {}
        # Pre-bound receive methods, filled at attach time: the hot path
        # then skips both the .receive attribute load and the bound-method
        # allocation on every hop.
        self._receivers: Dict[str, Callable[[Packet, str], None]] = {}
        # With equal link latencies (the paper's configuration) every hop
        # schedules delivery after the same constant delay.
        self._fast_delay: Optional[float] = (
            switch_link_latency if switch_link_latency == host_link_latency else None
        )
        # Per-directed-link propagation latency, filled lazily; saves two
        # topology lookups per hop.
        self._latency_cache: Dict[Tuple[str, str], float] = {}
        # Aggregate fabric accounting.
        self.transmissions = 0
        self.bytes_transferred = 0
        self.netrs_overhead_bytes = 0
        # Per-directed-link accounting (hotspot diagnostics), off until
        # track_links() turns it on.
        self._counting_links = False
        self.link_bytes: Dict[Tuple[str, str], int] = {}
        self.link_packets: Dict[Tuple[str, str], int] = {}
        # Link fault state (see repro.faults): dead links swallow packets,
        # degraded links multiply the per-hop delay.  ``_faulty`` folds both
        # into one flag so the fault-free hot path pays a single branch.
        self.packets_dropped = 0
        self._dead_links: set = set()
        self._degraded_links: Dict[Tuple[str, str], float] = {}
        self._faulty = False
        # Trunk collapse (Host.send, express): disabled for fault
        # runs -- a collapsed trunk commits to its path at send time, which
        # would let a packet sail over a link that dies while it is in flight.
        self._trunking = True
        # Topology switches with no real switch attached yet.  Only a real
        # switch's receive pipeline is known to be skippable: until this is
        # zero -- never, with a test double -- all is forwarded hop by hop.
        self._switches_missing = len(topology.switches)
        # Where a plain packet for a host lands: destination host ->
        # (endpoint.handle_packet, egress ToR, its pod).  See plain_row.
        self._plain_rows: Dict[str, Tuple[Callable[[Packet], None], str, int]] = {}
        # Router.distance by (switch, target), filled as express asks: a pure
        # function of the wiring, and a NetRS run asks 100 to 1 400 pairs.
        self._distances: Dict[Tuple[str, Optional[str]], Tuple[Optional[str], int]] = {}
        # Whether a NetRS request's client-ToR stamp may ride the host's send:
        # set once the ToR rules are final for the run (no replan armed),
        # cleared by any later rule write.  See Host.send.
        self.stamp_at_send = False
        self._refresh_express()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def attach(self, name: str, device: Device) -> None:
        """Bind a device object to a topology node name."""
        if name not in self.topology.nodes:
            raise TopologyError(f"cannot attach to unknown node {name}")
        if name in self._devices:
            raise TopologyError(f"device already attached at {name}")
        self._devices[name] = device
        self._receivers[name] = device.receive
        if getattr(device, "is_tor", None) is not None:
            self._switches_missing -= 1
            self._refresh_express()

    def _refresh_express(self) -> None:
        """Set the one flag every express path reads, where a condition changes:
        equal link latencies and no per-link accounting, every switch a real
        one, no active link fault, trunking not disabled."""
        self._express_ok = self._fast_delay is not None and self._trunking and not (
            self._switches_missing or self._faulty
        )

    def plain_row(self, dst: Optional[str]) -> Optional[tuple]:
        """``dst``'s row of the plain-delivery table, filled on first use: one
        per destination host, not per pair (the sender compares the ToR and
        pod with its own).  ``None``, and nothing cached, for what is no host
        or has no ``Host`` with an endpoint bound: the reference path finds
        out what to raise.
        """
        endpoint = getattr(self._devices.get(dst), "endpoint", None)
        egress = self.router._tor_of_host.get(dst)
        if endpoint is None or egress is None:
            return None
        row = endpoint.handle_packet, egress, self.router._tor_pod[egress]
        self._plain_rows[dst] = row
        return row

    def device(self, name: str) -> Device:
        """The device attached at ``name``."""
        try:
            return self._devices[name]
        except KeyError:
            raise TopologyError(f"no device attached at {name}") from None

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def link_latency(self, a: str, b: str) -> float:
        """One-way latency of the direct link between ``a`` and ``b``."""
        if (
            self.topology.node(a).kind is NodeKind.HOST
            or self.topology.node(b).kind is NodeKind.HOST
        ):
            return self.host_link_latency
        return self.switch_link_latency

    def transmit(self, from_name: str, to_name: str, packet: Packet) -> None:
        """Send ``packet`` over the direct link ``from_name -> to_name``."""
        receive = self._receivers.get(to_name)
        if receive is None:
            raise TopologyError(f"no device attached at {to_name}")
        fault_factor = None
        if self._faulty:
            fault_link = (from_name, to_name)
            if fault_link in self._dead_links:
                # Dropped before any wire accounting: nothing was carried.
                self.packets_dropped += 1
                return
            fault_factor = self._degraded_links.get(fault_link)
        # Inlined Packet.wire_accounting (the reference implementation):
        # sizing runs once per hop, where even the call overhead shows up.
        # test_fabric cross-checks these totals against it.
        common = 0
        if packet.rgid >= 0:
            common += _SIZE_RGID
        if packet.source_marker is not None:
            common += _SIZE_SM
        if packet.magic != MAGIC_PLAIN:
            overhead = _SIZE_FIXED_NETRS + common
            size = _SIZE_UDP_HEADERS + overhead
        else:
            overhead = 0
            size = _SIZE_UDP_HEADERS + common
        if packet.server_status is not None:
            size += _SIZE_SSL + _SIZE_SS
        value_size = packet.value_size
        size += 16 if value_size == 0 else value_size  # app payload
        self.transmissions += 1
        self.bytes_transferred += size
        self.netrs_overhead_bytes += overhead
        delay = self._fast_delay
        if delay is None:
            link = (from_name, to_name)
            if self._counting_links:
                self.link_bytes[link] = self.link_bytes.get(link, 0) + size
                self.link_packets[link] = self.link_packets.get(link, 0) + 1
            delay = self._latency_cache.get(link)
            if delay is None:
                delay = self.link_latency(from_name, to_name)
                self._latency_cache[link] = delay
        if fault_factor is not None:
            delay *= fault_factor
        # Inlined Environment.post_in (the reference implementation): one
        # event per hop makes even the scheduler's call overhead measurable.
        env = self.env
        env._seq += 1
        when = env.now + delay
        dq = env._dq
        entry = (when, env._seq, 2, receive, (packet, from_name))
        if not dq or when >= dq[-1][0]:
            dq.append(entry)
        else:
            heappush(env._heap, entry)

    def express(
        self,
        at: str,
        target: Optional[str],
        packet: Packet,
        marker: Optional[SourceMarker] = None,
        base: Optional[float] = None,
        from_host: bool = False,
    ) -> bool:
        """Deliver a packet switch ``at`` forwards toward ``target`` to what
        it next *waits* at, or return ``False``: forward it hop by hop.

        While ``_express_ok`` everything in between only forwards, and
        :meth:`Router.distance` (remembered per pair) says how many links
        that is.
        A NetRS request goes to its RSNode, which selects for it; anything
        else to its destination host's endpoint, and what nobody waits for on
        the way is a dated note: the clone an RSNode that can select takes of
        a NetRS response (relabelled from there, a second leg priced the same
        way), the count of the monitor at the destination's ToR.  A response
        whose RSNode cannot select is that RSNode's event.  ``from_host``: the
        packet is still at a host under ToR ``at``, the uplink is one more
        link, accounted as sent, and a response's links after it carry the
        ToR's ``marker``; ``target`` may then be ``at`` itself.  A host under
        ``at`` is a target from anywhere.  With ``base`` it leaves ``at``
        then, not now.
        """
        if not self._express_ok:
            return False
        distances = self._distances
        try:
            egress, links = distances[at, target]
        except KeyError:
            egress, links = distances[at, target] = self.router.distance(at, target)
        if not links and (egress != at or (target == at and not from_host)):
            return False
        magic = packet.magic
        first, rsnode = links, None  # the links to the RSNode that clones it, if one does
        if magic == MAGIC_RESPONSE and (device := self._devices[egress])._can_select:
            dst = packet.dst
            try:
                tor, onward = distances[egress, dst]
            except KeyError:
                tor, onward = distances[egress, dst] = self.router.distance(egress, dst)
            if onward or tor == egress:
                rsnode, egress, links = device, tor, links + onward
                target, magic = dst, MAGIC_MONITOR  # as the RSNode relabels it
        if magic == MAGIC_REQUEST or magic == MAGIC_RESPONSE:
            to_host, monitor = False, None
            receive, args = self._receivers[egress], (packet, at)
        else:
            to_host = True
            try:
                row = self._plain_rows[target]
            except KeyError:
                row = self.plain_row(target)
            if row is None:
                return False  # no host: the walk finds out what to raise
            receive, args = row[0], (packet,)
            monitor = self._devices[egress].monitor if magic == MAGIC_MONITOR else None
        packet.hops += links  # the egress ToR bumps no hop count
        if from_host:
            first += 1
            links += 1
            if marker is not None:  # a response, marked past the uplink
                if packet.source_marker is None:
                    # The uplink carried no marker: take it back off that link.
                    self.bytes_transferred -= _SIZE_SM
                    self.netrs_overhead_bytes -= _SIZE_SM
                packet.source_marker = marker
        marker = packet.source_marker
        delay = self._fast_delay
        now = when = self.env.now if base is None else base
        for _ in range(first):
            when += delay  # chained, as hop by hop: delay * first differs in the last ulp
        if rsnode is not None:  # as it passes the RSNode, which clones and relabels it
            clone = packet.server, packet.retaining_value, packet.server_status
            rsnode.accelerator.note_at(when, clone, rsnode.selector.fold)
            packet.magic = magic
            for _ in range(links - first):
                when += delay
        if monitor is not None and marker is not None:
            monitor.note_at(when, target, marker)  # as it passes the ToR
        if to_host:
            links += 1  # and on to the host
            when += delay
        # Wire accounting once for the whole run of links (size is invariant
        # along it: nothing that changes sizing fields is mechanical).
        common = 0
        if packet.rgid >= 0:
            common += _SIZE_RGID
        if marker is not None:
            common += _SIZE_SM
        if packet.magic != MAGIC_PLAIN:
            overhead = _SIZE_FIXED_NETRS + common
            size = _SIZE_UDP_HEADERS + overhead
        else:
            overhead = 0
            size = _SIZE_UDP_HEADERS + common
        if packet.server_status is not None:
            size += _SIZE_SSL + _SIZE_SS
        value_size = packet.value_size
        size += 16 if value_size == 0 else value_size  # app payload
        self.transmissions += links
        self.bytes_transferred += size * links
        self.netrs_overhead_bytes += overhead * links
        # Inlined Environment.post_at, as in transmit(); behind its five
        # fields the entry is the settlement ledger (see trunks_in_flight).
        env = self.env
        env._seq += 1
        dq = env._dq
        entry = (
            when, env._seq, 2, receive, args,
            now, delay, links, size, overhead,
        )
        if not dq or when >= dq[-1][0]:
            dq.append(entry)
        else:
            heappush(env._heap, entry)
        return True

    def disable_trunking(self) -> None:
        """Force per-hop forwarding (used when link or RSNode faults are scheduled).

        Collapsed trunks commit their path and accounting at send time;
        hop-by-hop forwarding re-checks link state at every hop.  The two
        diverge the moment a link dies with packets in flight, so fault
        runs take the reference path throughout.
        """
        self._trunking = False
        self._refresh_express()

    def track_links(self) -> None:
        """Count bytes and packets per directed link (``link_bytes``,
        ``link_packets``, :meth:`top_links`) from now on.

        The counts are per hop, so every packet takes the reference path:
        results are unchanged, only slower to compute.  Turn it on after
        the scenario is built and before it runs.
        """
        self._counting_links = True
        self._fast_delay = None
        self._refresh_express()

    def trunks_in_flight(self) -> Iterator[tuple]:
        """``(base, delay, hops, size, overhead, when)`` of every collapsed run
        still scheduled: ``hops`` links of ``delay`` each from ``base`` on, at
        ``size`` and ``overhead`` bytes a link, delivered at ``when``.  The
        ledger is the schedule: a delivered run's entry, and debt, are gone."""
        for entry in chain(self.env._dq, self.env._heap):
            if len(entry) == 10:
                yield entry[5:] + entry[:1]

    def settle_trunks(self, stop_time: float) -> None:
        """Unwind eager trunk accounting past the end of the run.

        Express delivery accounts every hop of a trunk at send time; the
        reference path accounts hop ``i`` only when hop ``i``'s forwarding
        event executes.  When the run stops at ``stop_time`` with trunks in
        flight, the hops that would have executed at or after ``stop_time``
        must be subtracted to keep the fabric's counters (transmissions,
        bytes, overhead) byte-identical with hop-by-hop forwarding (the first
        hop too, of a trunk dated ahead).  Called once after the event loop
        stops, before counters are read.
        """
        for base, delay, hops, size, overhead, _ in self.trunks_in_flight():
            undone = hops_not_sent(base, (delay,) * hops, stop_time)
            if undone:
                self.transmissions -= undone
                self.bytes_transferred -= size * undone
                self.netrs_overhead_bytes -= overhead * undone

    # ------------------------------------------------------------------
    # Link faults (driven by repro.faults; see docs/FAULTS.md)
    # ------------------------------------------------------------------
    def tor_of(self, host: str) -> str:
        """Name of the ToR ``host`` hangs off."""
        return self.router.tor_of(host)

    def has_node(self, name: str) -> bool:
        return name in self.topology.nodes

    def has_link(self, a: str, b: str) -> bool:
        return b in self.topology.neighbors(a)

    def _check_link(self, a: str, b: str) -> None:
        if not self.has_link(a, b):
            raise TopologyError(f"no direct link {a} <-> {b}")

    def fail_link(self, a: str, b: str) -> None:
        """Cut the link ``a <-> b``: packets on it are dropped and counted.

        The router empties its forwarding table and ECMP-reroutes around the
        cut where the topology offers a choice.
        """
        self._check_link(a, b)
        self._dead_links.add((a, b))
        self._dead_links.add((b, a))
        self._faulty = True
        self._refresh_express()
        self.router.fail_link(a, b)

    def restore_link(self, a: str, b: str) -> None:
        """Undo :meth:`fail_link` / :meth:`degrade_link` for ``a <-> b``."""
        self._check_link(a, b)
        was_dead = (a, b) in self._dead_links
        self._dead_links.discard((a, b))
        self._dead_links.discard((b, a))
        self._degraded_links.pop((a, b), None)
        self._degraded_links.pop((b, a), None)
        self._faulty = bool(self._dead_links or self._degraded_links)
        self._refresh_express()
        if was_dead:
            self.router.restore_link(a, b)

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Multiply the per-hop delay of ``a <-> b`` by ``factor`` (>= 1).

        Degradation is a latency brown-out: packets still flow (routing is
        unchanged -- a slow link is not a dead one), they just arrive late.
        """
        self._check_link(a, b)
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        self._degraded_links[(a, b)] = factor
        self._degraded_links[(b, a)] = factor
        self._faulty = True
        self._refresh_express()

    def top_links(self, count: int = 10) -> list:
        """Hottest directed links by bytes carried (needs :meth:`track_links`).

        Returns ``[((from, to), bytes), ...]`` sorted hottest first.
        """
        if not self._counting_links:
            raise TopologyError(
                "per-link accounting is off; call Network.track_links() first"
            )
        return sorted(
            self.link_bytes.items(), key=lambda item: item[1], reverse=True
        )[:count]
