"""Background cross-traffic from other applications sharing the fabric.

Paper section II, design consideration (iii): "NetRS should minimize its
impacts on other applications and limit its bandwidth overheads since
multiple applications share the data center network."  To make that impact
measurable, this module injects plain (non-NetRS) traffic between otherwise
idle hosts and records its delivery latency -- with the bandwidth model
enabled, KV traffic and background traffic contend for links in both
directions.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.fabric import Network
from repro.network.host import Host
from repro.network.packet import MAGIC_PLAIN, Packet
from repro.sim.core import Environment
from repro.sim.probes import LatencyRecorder


class BackgroundAgent:
    """Endpoint absorbing background packets and recording their latency."""

    def __init__(self, recorder: LatencyRecorder, env: Environment) -> None:
        self._recorder = recorder
        self._env = env
        self.received = 0

    def handle_packet(self, packet: Packet) -> None:
        """Record one delivery."""
        self.received += 1
        self._recorder.add(self._env.now - packet.issued_at)


class BackgroundTraffic:
    """Poisson cross-traffic between a pool of idle hosts."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        hosts: Sequence[Host],
        *,
        rate: float,
        packet_size: int = 1024,
        rng: np.random.Generator,
        total_packets: Optional[int] = None,
    ) -> None:
        if len(hosts) < 2:
            raise ConfigurationError("background traffic needs >= 2 hosts")
        if rate <= 0:
            raise ConfigurationError("background rate must be positive")
        if packet_size < 1:
            raise ConfigurationError("packet_size must be >= 1 byte")
        self.env = env
        self.network = network
        self.hosts: List[Host] = list(hosts)
        self.rate = rate
        self.packet_size = packet_size
        self._rng = rng
        self.total_packets = total_packets
        self.latency = LatencyRecorder()
        self.sent = 0
        self._stopped = False
        # ECMP hashes the id: a shared counter would tie routes to process history.
        self._packet_ids = itertools.count(1_000_000_000)
        for host in self.hosts:
            host.bind(BackgroundAgent(self.latency, env))

    def start(self) -> None:
        """Schedule the first packet."""
        self.env.post_in(self._rng.exponential(1.0 / self.rate), self._arrival)  # repro: noqa(PERF001) - mixed-family stream (choice + exponential)

    def stop(self) -> None:
        """Stop generating after the current packet."""
        self._stopped = True

    def _arrival(self) -> None:
        if self._stopped:
            return
        if self.total_packets is not None and self.sent >= self.total_packets:
            return
        src_index, dst_index = self._rng.choice(
            len(self.hosts), size=2, replace=False
        )
        src = self.hosts[int(src_index)]
        dst = self.hosts[int(dst_index)]
        packet = Packet(
            src=src.name,
            dst=dst.name,
            magic=MAGIC_PLAIN,
            request_id=next(self._packet_ids),
            value_size=self.packet_size,
            client=dst.name,  # deliver-to, for is_request bookkeeping only
            issued_at=self.env.now,
        )
        self.sent += 1
        src.send(packet)
        self.env.post_in(self._rng.exponential(1.0 / self.rate), self._arrival)  # repro: noqa(PERF001) - mixed-family stream (choice + exponential)
