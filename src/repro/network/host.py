"""End-host NIC glue.

A :class:`Host` owns one topology host node, forwards everything it receives
to the *endpoint* living on it (a key-value client or server), and injects
the endpoint's outgoing packets into the network via its ToR uplink.  A plain
packet on an express fabric it delivers itself: one call, one event; a NetRS
packet it hands to ``Network.express`` with the ToR's work done.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional, Protocol

from repro.errors import ConfigurationError
from repro.network.fabric import Network
from repro.network.packet import (
    _SIZE_RGID,
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


class Endpoint(Protocol):
    """Application logic that lives on a host (client or server)."""

    def handle_packet(self, packet: Packet) -> None:
        """Consume a packet delivered to this host."""
        ...  # pragma: no cover - protocol definition


class Host:
    """One end-host: a NIC attached to its ToR plus an application endpoint."""

    __slots__ = ("name", "network", "tor_name", "endpoint", "_pod", "_far")

    def __init__(self, name: str, network: Network) -> None:
        self.name = name
        self.network = network
        geometry = network.geometry
        self.tor_name = geometry.tor_of(name)
        self.endpoint: Optional[Endpoint] = None
        # The links to a host in another pod (0: only a walk can tell); to one
        # in this pod 4, under this ToR 2.  ECMP picks which switches a walk
        # visits, never how many, so every route between two hosts is as long.
        self._pod = geometry.tor_pod[self.tor_name]
        self._far = geometry.cross_pod
        network.attach(name, self)

    def bind(self, endpoint: Endpoint) -> None:
        """Install the application endpoint; a host has exactly one role."""
        if self.endpoint is not None:
            raise ConfigurationError(f"host {self.name} already has an endpoint")
        self.endpoint = endpoint

    def send(self, packet: Packet) -> None:
        """Inject a packet into the network through the ToR uplink.

        While ``Network._express_ok`` the switches between two hosts only
        forward a plain packet, and all equal-cost routes are as long.  So
        none is looked up: the links to the destination (its
        :meth:`Network.plain_row` against this host's ToR and pod) are
        accounted here and one delivery scheduled at its endpoint -- timing,
        counters and tie-breaking seqs exactly hop-by-hop forwarding's.

        What the ToR does to a NetRS packet rides the send where nothing can
        change it in flight, and :meth:`Network.express` takes the packet on
        from the ToR.  A response's source marker says where the host sits,
        and where the ToR forwards the marked packet -- to the RSNode it names,
        the ToR itself included, or to the client -- never changes after
        construction.  A request's stamp reads the ToR's rule tables, so it
        rides the send only while ``Network.stamp_at_send`` says no rule will
        be written mid-run (no replan armed, none written since the first
        plan); a ToR that is an RSNode keeps its event, where it stamps and
        selects.  Per-hop fabric, nothing attached or no fixed distance: the
        reference path delivers as far as it can, or raises.
        """
        network = self.network
        magic = packet.magic
        links = 0
        if network._express_ok:
            if magic == MAGIC_PLAIN:
                try:
                    row = network._plain_rows[packet.dst]
                except KeyError:
                    row = network.plain_row(packet.dst)
                if row is not None:
                    handle, tor, pod = row
                    links = 2 if tor == self.tor_name else 4 if pod == self._pod else self._far
            else:
                tor = network._devices[self.tor_name]
                target = marker = None
                if magic == MAGIC_REQUEST:
                    if network.stamp_at_send and tor.selector is None:
                        tor._ingress_from_host(packet)
                        if packet.magic != MAGIC_REQUEST:
                            target = packet.dst  # DRS: the backup replica
                        else:
                            target = tor._operator_directory.get(packet.rsnode_id)
                elif magic == MAGIC_MONITOR:
                    target, marker = packet.dst, tor.marker
                elif magic == MAGIC_RESPONSE:
                    target = tor._operator_directory.get(packet.rsnode_id)
                    marker = tor.marker
                if target is not None and network.express(
                    self.tor_name, target, packet, marker, None, True
                ):
                    return
        if not links:
            network.transmit(self.name, self.tor_name, packet)
            return
        packet.hops += links - 2  # all switches but the egress ToR
        # Inlined Packet.wire_accounting (the reference implementation; a
        # plain packet carries no NetRS overhead).
        value_size = packet.value_size
        size = _SIZE_UDP_HEADERS + (16 if value_size == 0 else value_size)
        if packet.rgid >= 0:
            size += _SIZE_RGID
        if packet.source_marker is not None:
            size += _SIZE_SM
        if packet.server_status is not None:
            size += _SIZE_SSL + _SIZE_SS
        network.transmissions += links
        network.bytes_transferred += size * links
        delay = network._fast_delay
        env = network.env
        now = when = env.now
        for _ in range(links):
            when += delay  # chained, as hop by hop
        # Inlined Environment.post_at; behind its five fields the entry is the
        # settlement ledger (Network.trunks_in_flight).
        env._seq += 1
        entry = (when, env._seq, 2, handle, (packet,), now, delay, links, size, 0)
        dq = env._dq
        if not dq or when >= dq[-1][0]:
            dq.append(entry)
        else:
            heappush(env._heap, entry)

    def receive(self, packet: Packet, from_name: str) -> None:
        """Fabric callback: hand the packet to the endpoint."""
        if self.endpoint is None:
            raise ConfigurationError(
                f"host {self.name} received a packet but has no endpoint"
            )
        self.endpoint.handle_packet(packet)
