"""End-host NIC glue.

A :class:`Host` owns one topology host node, forwards everything it receives
to the *endpoint* living on it (a key-value client or server), and injects
the endpoint's outgoing packets into the network via its ToR uplink.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.errors import ConfigurationError
from repro.network.fabric import Network
from repro.network.packet import Packet


class Endpoint(Protocol):
    """Application logic that lives on a host (client or server)."""

    def handle_packet(self, packet: Packet) -> None:
        """Consume a packet delivered to this host."""
        ...  # pragma: no cover - protocol definition


class Host:
    """One end-host: a NIC attached to its ToR plus an application endpoint."""

    __slots__ = (
        "name",
        "network",
        "tor_name",
        "endpoint",
        "packets_sent",
        "packets_received",
        "_inject",
    )

    def __init__(self, name: str, network: Network) -> None:
        self.name = name
        self.network = network
        self.tor_name = network.router.tor_of(name)
        self.endpoint: Optional[Endpoint] = None
        self.packets_sent = 0
        self.packets_received = 0
        # Pre-bound fabric entry point for the per-packet injection path.
        self._inject = network.send_from_host
        network.attach(name, self)

    def bind(self, endpoint: Endpoint) -> None:
        """Install the application endpoint; a host has exactly one role."""
        if self.endpoint is not None:
            raise ConfigurationError(f"host {self.name} already has an endpoint")
        self.endpoint = endpoint

    def send(self, packet: Packet) -> None:
        """Inject a packet into the network through the ToR uplink.

        No route is attached here: the fabric delivers the packet express,
        priced by distance alone, or hands it to the ToR, which forwards it
        like any other switch (:meth:`Network.send_from_host`).
        """
        self.packets_sent += 1
        self._inject(self.name, self.tor_name, packet)

    def receive(self, packet: Packet, from_name: str) -> None:
        """Fabric callback: hand the packet to the endpoint."""
        if self.endpoint is None:
            raise ConfigurationError(
                f"host {self.name} received a packet but has no endpoint"
            )
        self.packets_received += 1
        self.endpoint.handle_packet(packet)
