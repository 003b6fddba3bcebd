"""The flow-level engine: requests as scheduled completions, not packets.

The packet tier moves a packet object through every switch of the fat-tree
(what it costs per request is measured in docs/MESOSCALE.md, "Events per
request").  Under the paper's default link model those hops are *pure
constant delays*: every ECMP path between two hosts is latency-equal, so the
network's only contribution to a request's latency is a deterministic sum of
per-hop constants.  The flow tier replaces exactly that -- the **wire** --
and nothing else: the endpoints are the packet tier's own
(:class:`~repro.kvstore.server.ServerCore`,
:class:`~repro.kvstore.client.ClientCore`,
:class:`~repro.kvstore.workload.OpenLoopWorkload`, the service-fluctuation
models, the selectors, :class:`~repro.network.accelerator.Accelerator`),
made by the scenario's own endpoint builders
(:mod:`repro.experiments.scenarios`: ``assign_roles``, ``service_model``,
``client_selector``, ``operator_selector``, ``open_loop_workload`` and the
rest) on this engine instead of on the packet tier's clock.  What the engine
builds itself is only its own: the clock, the wire callables below, the ring
and the RSNodes' accelerators; packet sizes are
:meth:`~repro.network.packet.Packet.wire_accounting`'s.

Two things make that possible.  The engine offers that clock's surface under
the same names -- :attr:`FlowEngine.now`, :meth:`~FlowEngine.post_in`,
:meth:`~FlowEngine.post_at`, :meth:`~FlowEngine.call_in` -- backed by a lean
micro-event heap.  And the endpoints reach the wire only through injected
callables, which here are the engine's closed-form deliveries:
``_send_request`` / ``_send_via_operator`` (a client's ``transmit``) and
``_send_response`` / ``_send_netrs_response`` (a server's ``respond``); what
comes off the wire is posted straight to ``ServerCore.handle_arrival`` and
``ClientCore.handle_response``.

The heap is the run's only clock.  Fault transitions are entries on it too,
armed by the packet tier's own :class:`~repro.faults.injector.FaultInjector`,
to which the engine is both clock and fabric: server crashes are the only
faults it models, so it resolves targets (``tor_of``, ``has_node``) and takes
no link transition.  Every entry that runs -- arrival, service completion,
response delivery, timers, fluctuation ticks, fault transitions -- counts in
``FlowEngine.micro_events``.

Fidelity: the flow tier accumulates per-hop delays with the same float
additions the packet engine performs hop by hop and consumes the same named
RNG streams in the same order, so a flow run is bit-identical to the packet
run of the same config (``netrs validate-fidelity`` gates exactly that).
Links are pure delays on both tiers; what this engine does not model (link
faults, writes and the rest: :func:`~repro.mesoscale.support.flow_models`)
runs on the packet engine, and constructing this one on it raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.selector_node import NetRSSelector
from repro.errors import ConfigurationError
from repro.experiments import scenarios
from repro.faults.injector import FaultInjector
from repro.faults.schedule import parse_fault_schedule
from repro.kvstore.client import ClientCore, CompletionTracker
from repro.kvstore.hashing import shared_ring
from repro.kvstore.server import ServerCore
from repro.mesoscale.geometry import FatTreeGeometry
from repro.mesoscale.support import flow_models
from repro.network.accelerator import Accelerator
from repro.network.addressing import SourceMarker
from repro.network.fabric import hops_not_sent
from repro.network.packet import (
    MAGIC_PLAIN,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    Packet,
    ServerStatus,
)
from repro.sim.probes import LatencyRecorder
from repro.sim.rng import RngRegistry

_MicroFn = Callable[..., None]


class _FlowOperator:
    """A NetRS RSNode at one client-fronting ToR (selector + accelerator)."""

    __slots__ = ("tor", "selector", "accelerator")

    def __init__(self, tor: str, selector: NetRSSelector, accelerator: Accelerator):
        self.tor = tor
        self.selector = selector
        self.accelerator = accelerator


class FlowEngine:
    """One flow-level experiment: state, micro-event loop and accounting.

    Lifetime: build, :meth:`run` once, read the counters, :meth:`teardown`.
    ``run_experiment`` does all four (and parks the cyclic collector
    meanwhile); a caller driving an engine by hand owes it the teardown, or
    leaves a ~30 000-object reference cycle for a full collection to find.
    """

    def __init__(self, config) -> None:
        config.validate()
        if not flow_models(config):
            raise ConfigurationError(
                "the flow engine does not model this config (docs/MESOSCALE.md, "
                "\"What the flow engine models\"); run_experiment runs it on "
                "the packet engine"
            )
        self.config = config
        self.geometry = FatTreeGeometry(config.fat_tree_k)
        rng = RngRegistry(config.seed)
        self.rng = rng
        batch = config.rng_batch_size

        # --- clock & micro-event machinery --------------------------------
        self.now = 0.0  # the clock; only the run loop writes it
        self._heap: List[tuple] = []
        self._seq = 0
        self._ids = itertools.count(1)
        self.micro_events = 0
        self._stopped = False

        # --- roles ---------------------------------------------------------
        self.client_hosts, self.server_hosts = scenarios.assign_roles(
            config, self.geometry.hosts, rng
        )
        self.ring = shared_ring(
            self.server_hosts,
            replication_factor=config.replication_factor,
            virtual_nodes=config.virtual_nodes,
        )

        # --- link model ----------------------------------------------------
        h = config.host_link_latency
        s = config.switch_link_latency
        self._uplink = (h,)
        self._full_path = {2: (h, h), 4: (h, s, s, h), 6: (h, s, s, s, s, h)}
        self._from_tor = {2: (h,), 4: (s, s, h), 6: (s, s, s, s, h)}
        self._sizes = _wire_sizes(config)
        self.transmissions = 0
        self.bytes_transferred = 0
        self.netrs_overhead_bytes = 0

        # --- servers -------------------------------------------------------
        respond = self._send_netrs_response if config.netrs else self._send_response
        self.servers: Dict[str, ServerCore] = {}
        for name in self.server_hosts:
            self.servers[name] = ServerCore(
                self,
                name,
                service_model=scenarios.service_model(config, rng, name),
                parallelism=config.parallelism,
                rng=rng.batched(f"service.{name}", batch),
                rate_ewma_alpha=config.ewma_alpha,
                respond=respond,
            )

        # --- clients -------------------------------------------------------
        self.recorder = LatencyRecorder()
        self.tracker = CompletionTracker(config.total_requests)
        self.tracker.when_done(self._stop)
        redundancy = scenarios.redundancy_policy(config)
        transmit = self._send_via_operator if config.netrs else self._send_request
        self.clients: List[ClientCore] = []
        for name in self.client_hosts:
            self.clients.append(
                ClientCore(
                    self,
                    name,
                    ring=self.ring,
                    selector=scenarios.client_selector(config, rng, name),
                    recorder=self.recorder,
                    transmit=transmit,
                    completed=self.tracker.complete,
                    netrs=config.netrs,
                    redundancy=redundancy,
                    rng=(
                        rng.batched(f"redundancy.{name}", batch)
                        if redundancy
                        else None
                    ),
                    request_timeout=config.request_timeout,
                    max_retries=config.max_retries,
                    request_ids=self._ids,
                )
            )

        # Where a response comes off the wire, per client.
        self._on_response: Dict[ClientCore, _MicroFn] = {
            client: client.handle_response for client in self.clients
        }

        # --- NetRS operators (netrs-tor: one RSNode per client ToR) --------
        self.operators: Dict[str, _FlowOperator] = {}
        self._operator_of: Dict[str, _FlowOperator] = {}
        if config.netrs:
            tors = sorted({self.geometry.tor_name(name) for name in self.client_hosts})
            for index, tor in enumerate(tors, start=1):
                algorithm = scenarios.operator_selector(config, rng, index, len(tors))
                selector = NetRSSelector(self, algorithm=algorithm, ring=self.ring)
                accelerator = Accelerator(
                    self,
                    f"acc.{tor}",
                    cores=config.accelerator_cores,
                    service_time=config.accelerator_service_time,
                    link_delay=config.accelerator_link_delay,
                )
                self.operators[tor] = _FlowOperator(tor, selector, accelerator)
            for name in self.client_hosts:
                self._operator_of[name] = self.operators[self.geometry.tor_name(name)]

        # --- workload ------------------------------------------------------
        self.workload = scenarios.open_loop_workload(
            config, self, rng, self.clients, scenarios.demand_weights(config, rng)
        )

        # --- faults: armed last, as build_scenario arms them, so a transition
        # that ties with another entry runs in the packet tier's order -----
        self.faults: Optional[FaultInjector] = None
        if config.fault_schedule:
            self.faults = FaultInjector(
                self,
                parse_fault_schedule(config.fault_schedule),
                network=self,
                servers=self.servers,
                server_hosts=self.server_hosts,
                client_hosts=self.client_hosts,
            )
            self.faults.arm()

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    # The four names below are the packet tier's clock's (repro.sim.core), so
    # that whatever is written against that clock runs on the heap unchanged;
    # ``now`` is an attribute, as there, written only by the run loop.
    def post_in(self, delay: float, fn: _MicroFn, args: tuple = ()) -> None:
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def post_at(self, when: float, fn: _MicroFn, args: tuple = ()) -> None:
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, args))

    def call_in(self, delay: float, fn: _MicroFn, *args) -> None:
        """``post_in`` with the arguments spread; hands out no timer handle.

        A timer that outlives its purpose fires and finds its work done
        (``ClientCore`` timers return on ``entry.done``).
        """
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def _stop(self) -> None:
        self._stopped = True

    def run(self, until: Optional[float] = None) -> None:
        """Drive the experiment until completion (or the safety horizon)."""
        self.workload.start()
        heap = self._heap
        while heap and not self._stopped:
            entry = heappop(heap)
            when = entry[0]
            if until is not None and when > until:
                self.now = until
                break
            self.now = when
            self.micro_events += 1
            entry[2](*entry[3])
        self._settle()

    def teardown(self) -> None:
        """Release everything the run built; the engine is unusable afterwards.

        An engine is one large reference cycle: every client, server and
        accelerator points back at it, and the tracker, the fault injector
        and the events left on the heap hold its bound methods.  Merely
        dropped, it waits for a full pass of the cyclic collector, which a
        flow run keeps parked (``run_experiment``).  Emptying the
        instance dict cuts every one of those cycles at the engine, whatever
        attributes a later change adds, so all the engine owned is freed by
        reference count here; what it shares (the recorder the result keeps,
        the interned ring) is only released.
        """
        self.__dict__.clear()

    # ------------------------------------------------------------------
    # The fabric the fault injector resolves server targets on
    # ------------------------------------------------------------------
    def tor_of(self, host: str) -> str:
        return self.geometry.tor_name(host)

    def has_node(self, name: str) -> bool:
        return self.geometry.is_host(name)

    # ------------------------------------------------------------------
    # Analytic delivery (the flow tier's replacement for packet forwarding)
    # ------------------------------------------------------------------
    def _account(self, hops: int, size: int, overhead: int) -> None:
        self.transmissions += hops
        self.bytes_transferred += size * hops
        self.netrs_overhead_bytes += overhead * hops

    def _send_along(
        self,
        base: float,
        hops: Tuple[float, ...],
        size: int,
        overhead: int,
        fn: _MicroFn,
        args: tuple,
    ) -> None:
        """Deliver along a fixed hop sequence leaving at ``base``.

        One float addition per hop (the exact additions the packet engine
        performs via per-hop ``post_in``), one micro-event at the far end.
        Every hop is accounted now, as the packet tier's express delivery
        does; the leg's ledger rides its heap entry behind the four fields
        the loop reads, so :meth:`_settle` can give back what never left.
        """
        t = base
        for d in hops:
            t += d
        self._account(len(hops), size, overhead)
        self._seq += 1
        heappush(self._heap, (t, self._seq, fn, args, base, hops, size, overhead))

    def _legs_in_flight(self):
        """``(base, hops, size, overhead)`` of every leg still on the heap."""
        return (entry[4:] for entry in self._heap if len(entry) == 8)

    def _settle(self) -> None:
        """Give back the hops of legs in flight the stopped run never sent.

        The packet tier's rule (:func:`~repro.network.fabric.hops_not_sent`):
        a leg dated past the stop never left, and a hop that would leave at
        or after it was never transmitted.  Called once, when the loop ends.
        """
        stop = self.now
        for base, hops, size, overhead in self._legs_in_flight():
            undone = hops_not_sent(base, hops, stop)
            if undone:
                self._account(-undone, size, overhead)

    # -- CliRS paths ---------------------------------------------------
    def _send_request(self, client: ClientCore, rid: int, entry, target: str) -> None:
        """A client's ``transmit``: the request travels host to host."""
        hops = self._full_path[self.geometry.hop_count(client.name, target)]
        size, overhead = self._sizes["request"]
        self._send_along(
            self.now, hops, size, overhead,
            self.servers[target].handle_arrival, ((client, rid, None),),
        )

    def _send_response(self, server, job, status, queue_delay, service_time) -> None:
        """A server's ``respond``: the reply travels host to host."""
        client, rid, _rv = job
        hops = self._full_path[self.geometry.hop_count(server.name, client.name)]
        size, overhead = self._sizes["response"]
        self._send_along(
            self.now, hops, size, overhead,
            self._on_response[client], (rid, server.name, status),
        )

    # -- NetRS paths (netrs-tor: RSNode at the client's ToR) -----------
    # Links never fail here, so nothing can intervene between a send and its
    # arrival: what a ToR would do as the packet passes it is done by the
    # sender, dated with the instant the ToR would have done it.
    def _send_via_operator(
        self, client: ClientCore, rid: int, entry, backup, rgid: Optional[int] = None
    ) -> None:
        """A NetRS client's ``transmit``: to the ToR, whose RSNode submits it
        to its accelerator on arrival.

        The flow tier never degrades a request, so ``backup`` goes unused; a
        driver that keeps no entry objects names the replica group itself.
        """
        if rgid is None:
            rgid = entry.rgid
        op = self._operator_of[client.name]
        size, overhead = self._sizes["netrs_request"]
        self._send_along(
            self.now, self._uplink, size, overhead,
            op.accelerator.submit, ((op, client, rid, rgid), self._select_work),
        )

    def _select_work(self, job, now: float) -> None:
        """Accelerator work: select, then send the request on from the ToR as
        of the hand-back."""
        op, client, rid, rgid = job
        server = op.selector.select(rgid, now)
        size, overhead = self._sizes["netrs_request"]
        # The retaining value is the selection instant.
        self._send_along(
            now + op.accelerator.link_delay,
            self._from_tor[self.geometry.hop_count(client.name, server)],
            size, overhead,
            self.servers[server].handle_arrival, ((client, rid, now),),
        )

    def _send_netrs_response(self, server, job, status, queue_delay, service_time) -> None:
        """A server's ``respond`` under NetRS: the reply travels to the client,
        cloned to the RSNode as it passes the client's ToR."""
        client, rid, rv = job
        hops = self._full_path[self.geometry.hop_count(server.name, client.name)]
        # The source marker is stamped at the server's ToR ingress, so the
        # first hop travels unmarked and every later hop carries 4 more
        # bytes: the leg is marked, and its first hop takes them back (as
        # the packet tier's express delivery does).
        size, overhead = self._sizes["netrs_response"]
        marked_size, marked_overhead = self._sizes["netrs_response_marked"]
        self.bytes_transferred += size - marked_size
        self.netrs_overhead_bytes += overhead - marked_overhead
        t = self.now
        for d in hops[:-1]:
            t += d
        op = self._operator_of[client.name]
        op.accelerator.note_at(t, (server.name, rv, status), op.selector.fold)
        self._send_along(
            self.now, hops, marked_size, marked_overhead,
            self._on_response[client], (rid, server.name, status),
        )


def _wire_sizes(config) -> Dict[str, Tuple[int, int]]:
    """Per-packet (wire bytes, NetRS-overhead bytes) by packet kind.

    Each is :meth:`Packet.wire_accounting` of the packet the packet tier
    sends: a plain request, its reply, a NetRS request (RGID) and a NetRS
    reply before and after its source marker is stamped.
    """
    reply = dict(server_status=ServerStatus(0, 0.0, 0.0), value_size=config.value_size)
    marked = dict(reply, source_marker=SourceMarker(0, 0))
    shapes = {
        "request": Packet("c", "s", MAGIC_PLAIN, 0),
        "response": Packet("s", "c", MAGIC_PLAIN, 0, **reply),
        "netrs_request": Packet("c", None, MAGIC_REQUEST, 0, rgid=0),
        "netrs_response": Packet("s", "c", MAGIC_RESPONSE, 0, **reply),
        "netrs_response_marked": Packet("s", "c", MAGIC_RESPONSE, 0, **marked),
    }
    return {kind: packet.wire_accounting() for kind, packet in shapes.items()}
