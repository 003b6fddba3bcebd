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
from typing import Dict, List, Optional, Tuple

from repro.core.controller import NetRSController
from repro.core.monitor import NetRSMonitor
from repro.core.operator_node import NetRSOperator
from repro.core.placement.problem import (
    TierTraffic,
    build_operator_specs,
    estimate_traffic,
)
from repro.core.plan import SelectionPlan, TrafficGroup, make_traffic_groups
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
    DemandWeights,
    OpenLoopWorkload,
    ZipfSampler,
)
from repro.network.accelerator import Accelerator
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
    workload: OpenLoopWorkload
    weights: DemandWeights
    write_recorder: Optional[LatencyRecorder] = None
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
        route_cache_size=config.route_cache_size,
    )

    client_hosts, server_hosts = assign_roles(
        config, [h.name for h in topology.hosts], rng
    )
    rng.declare(host_stream_names(config, client_hosts, server_hosts))
    if config.churn_schedule:
        # Mutable membership: a ring of its own, built on the memoized shared
        # ring's points, groups and key memo (it never changes the points
        # or groups; the memo only gains membership-independent RGIDs).
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

    switches, operators = _build_switches(config, env, network, topology)
    hosts = {h.name: Host(h.name, network) for h in topology.hosts}
    servers = _build_servers(config, env, rng, hosts, server_hosts)

    recorder = LatencyRecorder()
    write_recorder = LatencyRecorder()
    tracker = CompletionTracker(config.total_requests)
    clients = _build_clients(
        config, env, rng, hosts, client_hosts, ring, recorder, tracker,
        write_recorder,
    )

    weights = demand_weights(config, rng)
    workload = open_loop_workload(config, env, rng, clients, weights)

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
    )
    if config.netrs:
        _wire_netrs(scenario, operators)
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
# Endpoint builders: every engine constructs its endpoints through these,
# so a scheme's servers, clients, selectors and workload exist once
# (docs/MESOSCALE.md).  Each draws on named RNG streams only, and a stream
# is keyed by its name, so the order of calls cannot move a result.
# ----------------------------------------------------------------------
def assign_roles(
    config: ExperimentConfig, host_names: List[str], rng: RngRegistry
) -> tuple:
    """Randomly deploy clients and servers, one role per host (section V-A)."""
    order = rng.stream("placement").permutation(len(host_names))
    shuffled = [host_names[i] for i in order]
    clients = sorted(shuffled[: config.n_clients])
    servers = sorted(
        shuffled[config.n_clients : config.n_clients + config.n_servers]
    )
    return clients, servers


def host_stream_names(
    config: ExperimentConfig, client_hosts: List[str], server_hosts: List[str]
) -> List[str]:
    """The per-host RNG streams the endpoint builders below draw on.

    A build declares them in one call (:meth:`RngRegistry.declare`), so their
    seeds are derived in one pass; a name left out here is still derived on
    first use, one at a time.
    """
    names = [f"service.{name}" for name in server_hosts]
    if config.fluctuation_range > 1.0:
        names += [f"fluctuation.{name}" for name in server_hosts]
    names += [f"selector.client.{name}" for name in client_hosts]
    if config.redundancy_enabled:
        names += [f"redundancy.{name}" for name in client_hosts]
    return names


def service_model(config: ExperimentConfig, rng: RngRegistry, name: str):
    """Server ``name``'s service-time model: bimodal fluctuation or stable."""
    if config.fluctuation_range > 1.0:
        return BimodalFluctuation(
            base_service_time=config.mean_service_time,
            range_parameter=config.fluctuation_range,
            interval=config.fluctuation_interval,
            rng=rng.batched(f"fluctuation.{name}", config.rng_batch_size),
        )
    return StableService(config.mean_service_time)


def client_selector(config: ExperimentConfig, rng: RngRegistry, name: str):
    """The replica-selection algorithm client ``name`` runs (CliRS)."""
    return create_selector(
        config.algorithm,
        concurrency_weight=config.n_clients,
        prior_service_rate=config.prior_service_rate(),
        rng=rng.stream(f"selector.client.{name}"),
    )


def operator_selector(
    config: ExperimentConfig, rng: RngRegistry, index: int, n_rsnodes: int
):
    """The algorithm of the ``index``-th RSNode (1-based) of ``n_rsnodes``."""
    return create_selector(
        config.algorithm,
        concurrency_weight=n_rsnodes,
        prior_service_rate=config.prior_service_rate(),
        rng=rng.stream(f"selector.operator.{index}"),
    )


def redundancy_policy(config: ExperimentConfig) -> Optional[RedundancyPolicy]:
    """The clients' R95 duplicate policy, or None without redundancy."""
    if not config.redundancy_enabled:
        return None
    return RedundancyPolicy(
        percentile=config.redundancy_percentile,
        min_samples=config.redundancy_min_samples,
        cold_start_mean=2.5 * config.mean_service_time,
    )


def demand_weights(config: ExperimentConfig, rng: RngRegistry) -> DemandWeights:
    """Per-client shares of the demand (uniform unless ``demand_skew``)."""
    return DemandWeights(
        config.n_clients,
        skew=config.demand_skew,
        hot_fraction=config.hot_fraction,
        rng=rng.stream("workload.skew") if config.demand_skew is not None else None,
    )


def key_sampler(config: ExperimentConfig, rng: RngRegistry) -> ZipfSampler:
    """The workload's Zipf key popularity.

    Single-family draw sites are served from pre-drawn blocks (pure perf
    knob, bit-identical — see docs/SIMULATOR.md "Batched RNG streams").
    """
    return ZipfSampler(
        config.key_space,
        config.zipf_exponent,
        rng.batched("workload.keys", config.rng_batch_size),
    )


def open_loop_workload(
    config: ExperimentConfig, clock, rng: RngRegistry, clients, weights: DemandWeights
) -> OpenLoopWorkload:
    """Poisson arrivals spread over ``clients``, run on ``clock``.

    The arrival stream interleaves families and must stay raw.
    """
    return OpenLoopWorkload(
        clock,
        rate=config.arrival_rate(),
        clients=clients,
        weights=weights,
        key_sampler=key_sampler(config, rng),
        rng=rng.stream("workload.arrivals"),
        total_requests=config.total_requests,
        warmup_requests=config.warmup_requests(),
        write_fraction=config.write_fraction,
    )


# ----------------------------------------------------------------------
# Build helpers
# ----------------------------------------------------------------------
def _build_switches(
    config: ExperimentConfig,
    env: Environment,
    network: Network,
    topology: Topology,
) -> Tuple[Dict[str, ProgrammableSwitch], Dict[int, NetRSOperator]]:
    """Every switch; under a NetRS scheme each also carries an accelerator
    and is a candidate operator, keyed by operator id."""
    switches: Dict[str, ProgrammableSwitch] = {}
    operators: Dict[int, NetRSOperator] = {}
    if config.netrs:
        specs = build_operator_specs(  # one per switch, in topology order
            topology,
            accelerator_cores=config.accelerator_cores,
            accelerator_service_time=config.accelerator_service_time,
            max_utilization=config.max_accelerator_utilization,
            work_per_request=config.work_per_request,
        )
        for spec in specs:
            accelerator = Accelerator(
                env,
                f"acc:{spec.switch}",
                cores=config.accelerator_cores,
                service_time=config.accelerator_service_time,
                link_delay=config.accelerator_link_delay,
            )
            switch = ProgrammableSwitch(
                spec.switch,
                network,
                operator_id=spec.operator_id,
                accelerator=accelerator,
            )
            switches[spec.switch] = switch
            operators[spec.operator_id] = NetRSOperator(spec, switch, accelerator)
    else:
        for node in topology.switches:
            switches[node.name] = ProgrammableSwitch(node.name, network)
    return switches, operators


def _build_servers(
    config: ExperimentConfig,
    env: Environment,
    rng: RngRegistry,
    hosts: Dict[str, Host],
    server_hosts: List[str],
) -> Dict[str, KVServer]:
    servers: Dict[str, KVServer] = {}
    for name in server_hosts:
        servers[name] = KVServer(
            env,
            hosts[name],
            service_model=service_model(config, rng, name),
            parallelism=config.parallelism,
            rng=rng.batched(f"service.{name}", config.rng_batch_size),
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
    redundancy = redundancy_policy(config)
    clients: List[KVClient] = []
    request_ids = itertools.count(1)  # one sequence per scenario
    for name in client_hosts:
        clients.append(
            KVClient(
                env,
                hosts[name],
                ring=ring,
                selector=client_selector(config, rng, name),
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


def _wire_netrs(scenario: Scenario, operators: Dict[int, NetRSOperator]) -> None:
    """Create groups, monitors and controller; deploy the first RSP."""
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

    selector_counter = iter(range(1, 1_000_000))

    def algorithm_factory(n_rsnodes: int):
        return operator_selector(
            config, scenario.rng, next(selector_counter), n_rsnodes
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
    )
    scenario.controller = controller
    scenario.plan = controller.plan_and_deploy(bootstrap_traffic(scenario))
    if config.replan_period is not None:
        controller.start_replanning(config.replan_period)
    else:
        # The rules stay as deployed unless an API call rewrites them (which
        # clears the flag): a request's client-ToR stamp rides its send.
        scenario.network.stamp_at_send = True


def bootstrap_traffic(scenario: Scenario) -> Dict[int, TierTraffic]:
    """The traffic estimate a NetRS scenario's first RSP is solved for.

    Each group's rate is the demand-weighted share of the aggregate arrival
    rate; the tier mix follows server placement.  Recomputed on demand
    (``netrs plan``) rather than kept, so a run holds no copy of it.
    """
    rate = scenario.config.arrival_rate()
    client_index = {name: i for i, name in enumerate(scenario.client_hosts)}
    group_rates = {
        group.group_id: rate
        * sum(
            float(scenario.weights.probabilities[client_index[h]])
            for h in group.hosts
        )
        for group in scenario.groups
    }
    return estimate_traffic(
        scenario.groups,
        topology=scenario.topology,
        server_hosts=scenario.server_hosts,
        group_rates=group_rates,
    )
