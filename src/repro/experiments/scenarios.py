"""Scenario construction: wire a full simulated system from a config.

One scenario = topology + network devices + key-value store + workload +
(for NetRS schemes) operators, monitors and a controller with a deployed
Replica Selection Plan.  Everything is seeded from the config's single seed
through named RNG streams, so scenarios are reproducible and two schemes
with the same seed see the same deployment, fluctuations and workload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.controller import NetRSController
from repro.core.monitor import NetRSMonitor
from repro.core.operator_node import NetRSOperator
from repro.core.placement.problem import build_operator_specs, estimate_traffic
from repro.core.plan import SelectionPlan, TrafficGroup, make_traffic_groups
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.faults.events import ServerDown, ServerUp
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, parse_fault_schedule
from repro.kvstore.client import CompletionTracker, KVClient, RedundancyPolicy
from repro.kvstore.fluctuation import BimodalFluctuation, StableService
from repro.kvstore.hashing import shared_ring
from repro.kvstore.membership import ChurnableRing, ChurnCoordinator
from repro.kvstore.server import KVServer
from repro.kvstore.workload import (
    ClosedLoopWorkload,
    DemandWeights,
    OpenLoopWorkload,
    ZipfSampler,
)
from repro.network.accelerator import Accelerator
from repro.network.background import BackgroundTraffic
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.host import Host
from repro.network.switch import ProgrammableSwitch
from repro.network.topology import Topology
from repro.selection.registry import create_selector
from repro.sim.core import Environment
from repro.sim.probes import LatencyRecorder
from repro.sim.rng import RngRegistry


@dataclass
class Scenario:
    """A fully wired simulated system, ready to run."""

    config: ExperimentConfig
    env: Environment
    rng: RngRegistry
    topology: Topology
    network: Network
    switches: Dict[str, ProgrammableSwitch]
    hosts: Dict[str, Host]
    servers: Dict[str, KVServer]
    clients: List[KVClient]
    client_hosts: List[str]
    server_hosts: List[str]
    ring: ConsistentHashRing
    recorder: LatencyRecorder
    tracker: CompletionTracker
    workload: Union[OpenLoopWorkload, ClosedLoopWorkload]
    weights: DemandWeights
    write_recorder: Optional[LatencyRecorder] = None
    background: Optional[BackgroundTraffic] = None
    groups: List[TrafficGroup] = field(default_factory=list)
    controller: Optional[NetRSController] = None
    plan: Optional[SelectionPlan] = None
    faults: Optional[FaultInjector] = None
    churn: Optional[ChurnCoordinator] = None

    def accelerators(self) -> List[Accelerator]:
        """All accelerators present in the scenario."""
        return [
            s.accelerator for s in self.switches.values() if s.accelerator is not None
        ]


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Construct every component of an experiment from its configuration."""
    config.validate()
    env = Environment(compaction=config.engine_compaction)
    rng = RngRegistry(config.seed)
    topology = build_fat_tree(config.fat_tree_k)
    network = Network(
        env,
        topology,
        switch_link_latency=config.switch_link_latency,
        host_link_latency=config.host_link_latency,
        link_bandwidth=config.link_bandwidth,
        track_links=config.track_link_stats,
        route_cache_size=config.route_cache_size,
    )

    client_hosts, server_hosts = _assign_roles(config, topology, rng)
    if config.churn_schedule:
        # Mutable membership: never the memoized shared ring.
        ring = ChurnableRing(
            server_hosts,
            replication_factor=config.replication_factor,
            virtual_nodes=config.virtual_nodes,
        )
    else:
        ring = shared_ring(
            server_hosts,
            replication_factor=config.replication_factor,
            virtual_nodes=config.virtual_nodes,
        )

    switches = _build_switches(config, env, network, topology)
    hosts = {h.name: Host(h.name, network) for h in topology.hosts}
    servers = _build_servers(config, env, rng, hosts, server_hosts)

    recorder = LatencyRecorder()
    write_recorder = LatencyRecorder()
    tracker = CompletionTracker(config.total_requests)
    clients = _build_clients(
        config, env, rng, hosts, client_hosts, ring, recorder, tracker,
        write_recorder,
    )

    weights = DemandWeights(
        config.n_clients,
        skew=config.demand_skew,
        hot_fraction=config.hot_fraction,
        rng=rng.stream("workload.skew") if config.demand_skew is not None else None,
    )
    # Single-family draw sites are served from pre-drawn blocks (pure perf
    # knob, bit-identical — see docs/SIMULATOR.md "Batched RNG streams").
    # The open-loop arrival stream interleaves families and must stay raw.
    batch = config.rng_batch_size
    sampler = ZipfSampler(
        config.key_space, config.zipf_exponent, rng.batched("workload.keys", batch)
    )
    if config.workload_mode == "closed":
        workload = ClosedLoopWorkload(
            env,
            clients=clients,
            key_sampler=sampler,
            rng=rng.batched("workload.arrivals", batch),
            total_requests=config.total_requests,
            window=config.closed_window,
            think_time=config.think_time,
            warmup_requests=config.warmup_requests(),
        )
    else:
        workload = OpenLoopWorkload(
            env,
            rate=config.arrival_rate(),
            clients=clients,
            weights=weights,
            key_sampler=sampler,
            rng=rng.stream("workload.arrivals"),
            total_requests=config.total_requests,
            warmup_requests=config.warmup_requests(),
            write_fraction=config.write_fraction,
        )

    background = None
    if config.background_traffic_rate > 0:
        busy = set(client_hosts) | set(server_hosts)
        idle_hosts = [hosts[h.name] for h in topology.hosts if h.name not in busy]
        background = BackgroundTraffic(
            env,
            network,
            idle_hosts,
            rate=config.background_traffic_rate,
            packet_size=config.background_packet_size,
            rng=rng.stream("background"),
        )

    scenario = Scenario(
        config=config,
        env=env,
        rng=rng,
        topology=topology,
        network=network,
        switches=switches,
        hosts=hosts,
        servers=servers,
        clients=clients,
        client_hosts=client_hosts,
        server_hosts=server_hosts,
        ring=ring,
        recorder=recorder,
        tracker=tracker,
        workload=workload,
        weights=weights,
        write_recorder=write_recorder,
        background=background,
    )
    if config.netrs:
        _wire_netrs(scenario)
    schedule = FaultSchedule()
    if config.fault_schedule:
        for event in parse_fault_schedule(config.fault_schedule):
            schedule.add(event)
        if not all(isinstance(e, (ServerDown, ServerUp)) for e in schedule):
            # Per-hop forwarding throughout: express delivery commits at send
            # time to a path and to who clones on the way, and either could
            # die in flight.  A server crash changes neither.
            network.disable_trunking()
    if config.churn_schedule:
        # Graceful churn keeps trunking: no link or server ever goes dark,
        # so collapsed trunk timing stays valid.  Migration traffic rides
        # the same fabric as foreground requests.
        scenario.churn = ChurnCoordinator(
            env, ring, servers, value_size=config.value_size
        )
        for event in parse_fault_schedule(config.churn_schedule):
            schedule.add(event)
    if len(schedule):
        # One injector replays the merged timeline (ties break by insertion
        # order: fault events first, then churn).  Wired after NetRS so
        # RSNode targets (including "busiest") resolve against the deployed
        # plan.  Symbolic server#i/client#i targets index the sorted role
        # lists, which are seeded-random per run.
        scenario.faults = FaultInjector(
            env,
            schedule,
            network=network,
            servers=servers,
            server_hosts=server_hosts,
            client_hosts=client_hosts,
            controller=scenario.controller,
            churn=scenario.churn,
        )
        scenario.faults.arm()
    return scenario


# ----------------------------------------------------------------------
# Build helpers
# ----------------------------------------------------------------------
def _assign_roles(
    config: ExperimentConfig, topology: Topology, rng: RngRegistry
) -> tuple:
    """Randomly deploy clients and servers, one role per host (section V-A)."""
    host_names = [h.name for h in topology.hosts]
    order = rng.stream("placement").permutation(len(host_names))
    shuffled = [host_names[i] for i in order]
    clients = sorted(shuffled[: config.n_clients])
    servers = sorted(
        shuffled[config.n_clients : config.n_clients + config.n_servers]
    )
    return clients, servers


def _build_switches(
    config: ExperimentConfig,
    env: Environment,
    network: Network,
    topology: Topology,
) -> Dict[str, ProgrammableSwitch]:
    switches: Dict[str, ProgrammableSwitch] = {}
    if config.netrs:
        specs = build_operator_specs(
            topology,
            accelerator_cores=config.accelerator_cores,
            accelerator_service_time=config.accelerator_service_time,
            max_utilization=config.max_accelerator_utilization,
            work_per_request=config.work_per_request,
        )
        spec_by_switch = {spec.switch: spec for spec in specs}
        for node in topology.switches:
            spec = spec_by_switch[node.name]
            accelerator = Accelerator(
                env,
                f"acc:{node.name}",
                cores=config.accelerator_cores,
                service_time=config.accelerator_service_time,
                link_delay=config.accelerator_link_delay,
            )
            switches[node.name] = ProgrammableSwitch(
                node.name,
                network,
                operator_id=spec.operator_id,
                accelerator=accelerator,
            )
    else:
        for node in topology.switches:
            switches[node.name] = ProgrammableSwitch(node.name, network)
    return switches


def _build_servers(
    config: ExperimentConfig,
    env: Environment,
    rng: RngRegistry,
    hosts: Dict[str, Host],
    server_hosts: List[str],
) -> Dict[str, KVServer]:
    servers: Dict[str, KVServer] = {}
    batch = config.rng_batch_size
    for name in server_hosts:
        if config.fluctuation_range > 1.0:
            model = BimodalFluctuation(
                base_service_time=config.mean_service_time,
                range_parameter=config.fluctuation_range,
                interval=config.fluctuation_interval,
                rng=rng.batched(f"fluctuation.{name}", batch),
            )
        else:
            model = StableService(config.mean_service_time)
        servers[name] = KVServer(
            env,
            hosts[name],
            service_model=model,
            parallelism=config.parallelism,
            rng=rng.batched(f"service.{name}", batch),
            value_size=config.value_size,
            rate_ewma_alpha=config.ewma_alpha,
        )
    return servers


def _build_clients(
    config: ExperimentConfig,
    env: Environment,
    rng: RngRegistry,
    hosts: Dict[str, Host],
    client_hosts: List[str],
    ring: ConsistentHashRing,
    recorder: LatencyRecorder,
    tracker: CompletionTracker,
    write_recorder: Optional[LatencyRecorder] = None,
) -> List[KVClient]:
    redundancy = (
        RedundancyPolicy(
            percentile=config.redundancy_percentile,
            min_samples=config.redundancy_min_samples,
        )
        if config.redundancy_enabled
        else None
    )
    clients: List[KVClient] = []
    request_ids = itertools.count(1)  # one sequence per scenario
    for name in client_hosts:
        selector = create_selector(
            config.algorithm,
            concurrency_weight=config.n_clients,
            prior_service_rate=config.prior_service_rate(),
            rng=rng.stream(f"selector.client.{name}"),
        )
        clients.append(
            KVClient(
                env,
                hosts[name],
                ring=ring,
                selector=selector,
                recorder=recorder,
                tracker=tracker,
                netrs=config.netrs,
                redundancy=redundancy,
                rng=(
                    rng.batched(f"redundancy.{name}", config.rng_batch_size)
                    if redundancy
                    else None
                ),
                write_recorder=write_recorder,
                write_quorum=config.write_quorum,
                read_quorum=config.effective_read_quorum(),
                request_timeout=config.request_timeout,
                max_retries=config.max_retries,
                request_ids=request_ids,
            )
        )
    return clients


def _wire_netrs(scenario: Scenario) -> None:
    """Create groups, monitors, operators, controller; deploy the first RSP."""
    config = scenario.config
    topology = scenario.topology
    groups = make_traffic_groups(
        topology, scenario.client_hosts, config.group_granularity
    )
    scenario.groups = groups
    group_of_host: Dict[str, int] = {}
    for group in groups:
        for host in group.hosts:
            group_of_host[host] = group.group_id

    # Monitors on every ToR that fronts at least one client.
    monitors: Dict[str, NetRSMonitor] = {}
    for group in groups:
        if group.tor in monitors:
            continue
        switch = scenario.switches[group.tor]
        assert switch.marker is not None
        monitor = NetRSMonitor(
            scenario.env,
            marker=switch.marker,
            group_lookup=group_of_host.get,
        )
        switch.monitor = monitor
        monitors[group.tor] = monitor

    operators: Dict[int, NetRSOperator] = {}
    for switch in scenario.switches.values():
        if switch.accelerator is None:
            raise ConfigurationError(
                f"NetRS scheme requires an accelerator on {switch.name}"
            )
        spec = _spec_of(scenario, switch)
        operators[spec.operator_id] = NetRSOperator(
            spec, switch, switch.accelerator
        )

    selector_counter = iter(range(1, 1_000_000))

    def algorithm_factory(n_rsnodes: int):
        index = next(selector_counter)
        return create_selector(
            config.algorithm,
            concurrency_weight=n_rsnodes,
            prior_service_rate=config.prior_service_rate(),
            rng=scenario.rng.stream(f"selector.operator.{index}"),
        )

    tor_switches = {
        name: sw
        for name, sw in scenario.switches.items()
        if sw.is_tor
    }
    controller = NetRSController(
        scenario.env,
        groups=groups,
        operators=operators,
        tor_switches=tor_switches,
        all_switches=list(scenario.switches.values()),
        monitors=monitors,
        algorithm_factory=algorithm_factory,
        selector_ring=scenario.ring,
        extra_hops_budget=config.extra_hops_budget(),
        solver=config.solver,
        solver_time_limit=config.solver_time_limit,
    )
    scenario.controller = controller

    # Bootstrap traffic estimate: each group's rate is the demand-weighted
    # share of the aggregate arrival rate; tier mix follows server placement.
    rate = config.arrival_rate()
    client_index = {name: i for i, name in enumerate(scenario.client_hosts)}
    group_rates = {
        group.group_id: rate
        * sum(
            float(scenario.weights.probabilities[client_index[h]])
            for h in group.hosts
        )
        for group in groups
    }
    traffic = estimate_traffic(
        groups,
        topology=topology,
        server_hosts=scenario.server_hosts,
        group_rates=group_rates,
    )
    scenario.plan = controller.plan_and_deploy(traffic)
    if config.replan_period is not None:
        controller.start_replanning(config.replan_period)
    else:
        # The rules stay as deployed unless an API call rewrites them (which
        # clears the flag): a request's client-ToR stamp rides its send.
        scenario.network.stamp_at_send = True


def _spec_of(scenario: Scenario, switch: ProgrammableSwitch):
    from repro.core.placement.problem import OperatorSpec

    node = scenario.topology.node(switch.name)
    capacity = (
        scenario.config.max_accelerator_utilization
        * scenario.config.accelerator_cores
        / scenario.config.accelerator_service_time
        / scenario.config.work_per_request
    )
    return OperatorSpec(
        operator_id=switch.operator_id,
        switch=switch.name,
        tier=node.tier,
        pod=node.pod,
        capacity=capacity,
    )
