"""Programmable switch with the NetRS rules pipeline (paper Fig. 3).

Each switch is (potentially) one half of a NetRS operator: the other half is
the attached :class:`~repro.network.accelerator.Accelerator` running the
NetRS selector.  The ingress pipeline implements the paper's match-action
flow exactly:

* non-NetRS packets take the regular forwarding pipeline;
* a **ToR** stamps ingress packets from its hosts -- RSNode ID for NetRS
  requests (from the per-traffic-group rules the controller installs, with
  the illegal-ID/DRS escape hatch), source marker for responses;
* NetRS requests whose RSNode ID matches the local operator ID go to the
  accelerator for replica selection, others are forwarded toward their
  RSNode;
* NetRS responses matching the local operator ID are *cloned* to the
  accelerator (state update) while the original continues to the client with
  its magic rewritten to ``MAGIC_MONITOR``;
* at ToR egress, monitor-labeled packets leaving the network are counted by
  the NetRS monitor (paper section IV-D).

Every switch between those only forwards.  On the default fabric it asks the
shared :class:`~repro.network.routing.Router` how far the next switch the
packet *waits* at (or the host) is -- a request at the RSNode's selection, and
at the client ToR's stamp only while a rule can still change mid-run
(``Network.stamp_at_send``; otherwise the stamp rides the host's send), a
response nowhere: its clone and its count are notes dated ahead
(``Accelerator.note_at``, ``Monitor.note_at``) -- and the fabric delivers there in
one event (:meth:`Network.express`); the reference follows
a source-routed path hop by hop, (re)computed whenever a rule changes the
packet's steering target, as real switches running the same ECMP would.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Set, Tuple

from repro.errors import ConfigurationError, ProtocolError, RoutingError
from repro.network.accelerator import Accelerator
from repro.network.addressing import SourceMarker
from repro.network.fabric import Network
from repro.network.packet import (
    MAGIC_MONITOR,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    RSNODE_ILLEGAL,
    Packet,
    ServerStatus,
    magic_transform,
)

#: ``f(MAGIC_RESPONSE)``: the magic of a request its RSNode has selected for.
_SELECTED = magic_transform(MAGIC_RESPONSE)


class Selector(Protocol):
    """NetRS selector running on the accelerator (see repro.core).

    ``now`` is the instant the accelerator completes the work, which may lie
    ahead of the clock.
    """

    def select(self, rgid: int, now: float) -> str:
        """Choose a replica of replica group ``rgid``; returns the server."""
        ...  # pragma: no cover - protocol definition

    def fold(self, clone: Tuple[str, float, ServerStatus], now: float) -> None:
        """Fold a response clone ``(server, rv, status)`` into local information:
        the accelerator work for it."""
        ...  # pragma: no cover - protocol definition


class Monitor(Protocol):
    """NetRS monitor on ToR egress (see repro.core)."""

    def observe(self, packet: Packet) -> None:
        """Count one response leaving the network."""
        ...  # pragma: no cover - protocol definition

    def note_at(self, when: float, dst: str, marker: SourceMarker) -> None:
        """Count a response that leaves for ``dst`` at ``when``, not before now."""
        ...  # pragma: no cover - protocol definition


class ProgrammableSwitch:
    """One switch of the data center, optionally acting as a NetRS operator."""

    __slots__ = (
        "name",
        "network",
        "kind",
        "tier",
        "is_tor",
        "operator_id",
        "accelerator",
        "selector",
        "monitor",
        "failed",
        "_can_select",
        "_attached_hosts",
        "marker",
        "_group_of_host",
        "_rsnode_for_group",
        "_operator_directory",
        "requests_selected",
        "_transmit",
        "_express",
    )

    def __init__(
        self,
        name: str,
        network: Network,
        *,
        operator_id: int = 0,
        accelerator: Optional[Accelerator] = None,
    ) -> None:
        self.name = name
        self.network = network
        node = network.topology.node(name)
        self.kind = node.kind
        self.tier = node.tier
        self.is_tor = node.kind.value == "tor"
        self.operator_id = operator_id
        self.accelerator = accelerator
        self.selector: Optional[Selector] = None
        self.monitor: Optional[Monitor] = None
        self.failed = False
        self._can_select = False  # see _refresh_can_select
        # ToR state
        self._attached_hosts: Set[str] = (
            {h.name for h in network.topology.hosts_under(name)} if self.is_tor else set()
        )
        self.marker: Optional[SourceMarker] = (
            SourceMarker(pod=node.pod, rack=node.rack) if self.is_tor else None
        )
        # NetRS rules installed by the controller.
        self._group_of_host: Dict[str, int] = {}
        self._rsnode_for_group: Dict[int, int] = {}
        # Shared directory: operator ID -> switch name (all operators).
        self._operator_directory: Dict[int, str] = {}
        # Accounting
        self.requests_selected = 0
        # Pre-bound fabric entry points for the per-hop forwarding path.
        self._transmit = network.transmit
        self._express = network.express
        network.attach(name, self)

    # ------------------------------------------------------------------
    # Control-plane API (used by the NetRS controller)
    # ------------------------------------------------------------------
    def bind_operator(self, selector: Selector, directory: Dict[int, str]) -> None:
        """Install the selector software and the shared operator directory."""
        if self.accelerator is None:
            raise ConfigurationError(
                f"switch {self.name} has no accelerator to run a selector on"
            )
        self.selector = selector
        self._operator_directory = directory
        self._refresh_can_select()

    def unbind_operator(self) -> None:
        """Remove the selector software: the switch stops acting as an RSNode."""
        self.selector = None
        self._refresh_can_select()

    def _refresh_can_select(self) -> None:
        """Recompute ``_can_select``; called wherever ``selector``,
        ``accelerator`` or ``failed`` change, so the data plane reads a flag."""
        self._can_select = (
            self.selector is not None
            and self.accelerator is not None
            and not self.failed
        )

    def set_directory(self, directory: Dict[int, str]) -> None:
        """Install the operator directory on a non-RSNode switch."""
        self._operator_directory = directory

    def install_group_rule(self, host_name: str, group_id: int) -> None:
        """ToR rule: requests from ``host_name`` belong to ``group_id``."""
        if not self.is_tor:
            raise ConfigurationError("group rules only exist on ToR switches")
        if host_name not in self._attached_hosts:
            raise ConfigurationError(
                f"{host_name} is not attached to ToR {self.name}"
            )
        self._group_of_host[host_name] = group_id
        self.network.stamp_at_send = False  # every ToR's stamp is its event again

    def install_rsnode_rule(self, group_id: int, rsnode_id: int) -> None:
        """ToR rule: stamp ``rsnode_id`` on requests of ``group_id``.

        ``rsnode_id = RSNODE_ILLEGAL`` enables Degraded Replica Selection for
        the group (paper section IV-B).
        """
        if not self.is_tor:
            raise ConfigurationError("RSNode rules only exist on ToR switches")
        self._rsnode_for_group[group_id] = rsnode_id
        self.network.stamp_at_send = False  # every ToR's stamp is its event again

    def rsnode_of_group(self, group_id: int) -> Optional[int]:
        """Currently installed RSNode for a group (None if no rule)."""
        return self._rsnode_for_group.get(group_id)

    def fail(self) -> None:
        """Simulate operator failure: the accelerator stops responding."""
        if self.accelerator is not None:
            self.accelerator.settle(discard_later=True)
        self.failed = True
        self._refresh_can_select()

    def recover(self) -> None:
        """Bring a failed operator back (selector state survives)."""
        self.failed = False
        self._refresh_can_select()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, from_name: str) -> None:
        """Ingress pipeline (paper Fig. 3)."""
        if self.is_tor and from_name in self._attached_hosts:
            self._ingress_from_host(packet)
        magic = packet.magic
        if magic == MAGIC_REQUEST:
            if packet.rsnode_id == self.operator_id:
                if self._can_select:
                    self.requests_selected += 1
                    self.accelerator.submit(packet, self._select_and_send)  # type: ignore[union-attr]
                else:
                    # Local operator failed while packets were in flight:
                    # degrade this request to the client's backup replica,
                    # exactly what DRS would have done at the ToR.
                    packet.magic = magic_transform(MAGIC_MONITOR)
                    packet.dst = packet.backup_replica
                    packet.server = packet.backup_replica
                    self._regular_forward(packet)
                return
            self._forward_toward_operator(packet)
            return
        if magic == MAGIC_RESPONSE:
            if packet.rsnode_id == self.operator_id:
                if self._can_select:
                    clone = packet.server, packet.retaining_value, packet.server_status
                    fold = self.selector.fold  # type: ignore[union-attr]
                    self.accelerator.note_at(self.network.env.now, clone, fold)  # type: ignore[union-attr]
                packet.magic = MAGIC_MONITOR
                self._regular_forward(packet)
                return
            self._forward_toward_operator(packet)
            return
        # Inlined _regular_forward: plain and monitor traffic takes this
        # branch on every hop of every path.
        dst = packet.dst
        if dst is None:
            raise RoutingError(
                f"{self.name}: cannot forward a packet without a destination"
            )
        if dst in self._attached_hosts:
            self._egress_to_host(packet)
            return
        self._follow_route(packet, dst)

    def _ingress_from_host(self, packet: Packet) -> None:
        """Extra ToR rules for packets entering the network (section IV-B).

        ``Host.send`` runs it at the send instead, for a NetRS request, while
        ``Network.stamp_at_send`` and this ToR is no RSNode."""
        if packet.magic == MAGIC_REQUEST:
            group_id = self._group_of_host.get(packet.src)
            if group_id is None:
                raise ConfigurationError(
                    f"no traffic-group rule for host {packet.src} on {self.name}"
                )
            rsnode_id = self._rsnode_for_group.get(group_id)
            if rsnode_id is None:
                raise ConfigurationError(
                    f"no RSNode rule for group {group_id} on {self.name}"
                )
            packet.rsnode_id = rsnode_id
            if rsnode_id == RSNODE_ILLEGAL:
                # Degraded Replica Selection: label as monitor-visible
                # non-NetRS traffic and route to the client's backup replica.
                packet.magic = magic_transform(MAGIC_MONITOR)
                packet.dst = packet.backup_replica
                packet.server = packet.backup_replica
        elif packet.magic in (MAGIC_RESPONSE, MAGIC_MONITOR):
            # The object Host.send stamps when the stamp rides the send, and
            # the monitors compare against.
            packet.source_marker = self.marker

    @property
    def responses_cloned(self) -> int:
        """Responses cloned into the accelerator, as of the clock: on this
        tier every note it takes is a response clone."""
        if self.accelerator is None:
            return 0
        return self.accelerator.notes_admitted

    def _select_and_send(self, packet: Packet, now: float) -> None:
        """Accelerator work for a request: select, rebuild, send on.

        Destination becomes the chosen server, the retaining value the send
        timestamp (the paper's worked example for RV), and the magic
        ``f(MAGIC_RESPONSE)``, so switches treat the rebuilt packet as
        ordinary traffic while the server's ``f^-1`` turns the reply into a
        NetRS response.  It leaves as of the hand-back: by distance, else by
        an event.
        """
        if packet.rgid < 0:
            raise ProtocolError(
                f"NetRS request {packet.request_id} carries no RGID"
            )
        server = self.selector.select(packet.rgid, now)  # type: ignore[union-attr]
        packet.dst = server
        packet.server = server
        packet.retaining_value = now
        packet.selected_at = now
        packet.magic = _SELECTED
        leaves = now + self.accelerator.link_delay  # type: ignore[union-attr]
        if not self._express(self.name, server, packet, None, leaves):
            self.network.env.post_at(leaves, self._regular_forward, (packet,))

    def _forward_toward_operator(self, packet: Packet) -> None:
        rsnode_id = packet.rsnode_id
        target = self._operator_directory.get(rsnode_id)
        if target is None:
            raise RoutingError(
                f"{self.name}: packet carries unknown RSNode ID {rsnode_id}"
            )
        self._follow_route(packet, target)

    def _regular_forward(self, packet: Packet) -> None:
        if packet.dst is None:
            raise RoutingError(
                f"{self.name}: cannot forward a packet without a destination"
            )
        if packet.dst in self._attached_hosts:
            self._egress_to_host(packet)
            return
        self._follow_route(packet, packet.dst)

    def _egress_to_host(self, packet: Packet) -> None:
        """Deliver to a locally attached host, counting monitor traffic."""
        if (
            self.monitor is not None
            and packet.magic == MAGIC_MONITOR
            and packet.source_marker is not None
        ):
            self.monitor.observe(packet)
        self._transmit(self.name, packet.dst, packet)  # type: ignore[arg-type]

    def _follow_route(self, packet: Packet, target: str) -> None:
        """Forward the packet toward ``target``: by distance, else one hop.

        The reference hop follows an attached route -- attached on first
        contact or when a NetRS rule changes the steering target, so a hop
        is a string compare plus an index bump, with the forwarding-table
        lookup only on target changes.
        """
        if self._express(self.name, target, packet):
            return
        if packet.route_target != target:
            packet.route_target = target
            packet.route = self.network.router.forwarding_route(
                self.name, target, packet.flow_key()
            )
            packet.route_pos = 0
        pos = packet.route_pos
        try:
            next_hop = packet.route[pos]
        except IndexError:
            raise RoutingError(
                f"{self.name}: exhausted route toward {target} "
                f"(route={packet.route})"
            ) from None
        packet.route_pos = pos + 1
        packet.hops += 1
        self._transmit(self.name, next_hop, packet)
