"""The forwarding table and express delivery against their references.

Three claims: the interned forwarding routes are the reference ECMP walk;
collapsed delivery (``send_from_host`` / ``transmit_fast``) is hop-by-hop
forwarding, to the event time and the per-switch counter; and the table
warms on the traffic runs actually send and stays within its bound.
"""

import random

import pytest

from repro.errors import RoutingError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.host import Host
from repro.network.packet import Packet, make_request
from repro.network.routing import Router
from repro.network.switch import ProgrammableSwitch
from repro.network.topology import build_tree
from repro.sim import Environment

TOPOLOGIES = {
    "fat-tree-4": lambda: build_fat_tree(4),
    "fat-tree-8": lambda: build_fat_tree(8),
    # Three aggregation switches per pod: ECMP fan-out is not a power of two,
    # so no key mask exists and the table must stay out of the way.
    "tree-3-aggs": lambda: build_tree(
        pods=3, racks_per_pod=3, hosts_per_rack=2, aggs_per_pod=3, cores=3
    ),
}


class TestForwardingRouteIsThePath:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_random_lookups_match_path_and_uncached_walk(self, name):
        topo = TOPOLOGIES[name]()
        table, memo = Router(topo), Router(topo)
        walk = Router(topo, path_cache_size=0)
        switches = [n.name for n in topo.switches]
        hosts = [h.name for h in topo.hosts]
        rng = random.Random(12)
        for _ in range(3000):
            src, dst = rng.choice(switches), rng.choice(hosts)
            flow_key = rng.getrandbits(32)
            expected = walk.path(src, dst, flow_key)
            assert memo.path(src, dst, flow_key) == expected
            route = table.forwarding_route(src, dst, flow_key)
            assert list(route.names) + [dst] == expected
            bypassed = walk.forwarding_route(src, dst, flow_key)
            assert bypassed.names == route.names
        assert walk.entries == 0
        if name == "tree-3-aggs":
            assert table.entries == 0  # no mask, no table
        else:
            assert 0 < table.entries == table.misses < 3000

    def test_switch_targets_match_path(self):
        """NetRS steers toward operator switches of every tier."""
        topo = build_fat_tree(4)
        table, walk = Router(topo), Router(topo, path_cache_size=0)
        switches = [n.name for n in topo.switches]
        for src in switches:
            for dst in switches:
                for flow_key in (0, 1, 33, 0xBEEF):
                    try:
                        expected = walk.path(src, dst, flow_key)
                    except RoutingError:
                        with pytest.raises(RoutingError):
                            table.forwarding_route(src, dst, flow_key)
                        continue
                    route = table.forwarding_route(src, dst, flow_key)
                    assert list(route.names) == expected

    def test_segments_are_interned_and_shared(self):
        router = Router(build_fat_tree(4))
        first = router.forwarding_route("tor0.0", "host0.1.0", 5)
        # Another rack of the pod, another host of the rack, a flow key of
        # the same ECMP class: one interned route serves them all.
        again = router.forwarding_route("tor0.0", "host0.1.1", 5 + (1 << 20))
        assert again is first
        assert router.misses == 1
        # Cross-pod routes share their climb and their descent.
        router.forwarding_route("tor0.0", "host3.1.1", 5)
        misses = router.misses
        router.forwarding_route("tor0.1", "host3.1.0", 5)
        assert router.misses == misses

    def test_link_fault_empties_and_bypasses_the_table(self):
        topo = build_fat_tree(4)
        router, walk = Router(topo), Router(topo, path_cache_size=0)
        for flow_key in range(64):
            router.forwarding_route("tor0.0", "host3.1.1", flow_key)
        assert router.entries
        for r in (router, walk):
            r.fail_link("tor0.0", "agg0.0")
        assert router.entries == 0
        for flow_key in range(64):
            route = router.forwarding_route("tor0.0", "host3.1.1", flow_key)
            assert list(route.names) + ["host3.1.1"] == walk.path(
                "tor0.0", "host3.1.1", flow_key
            )
            assert route.names[0] != "agg0.0"
        assert router.entries == 0
        router.restore_link("tor0.0", "agg0.0")
        router.forwarding_route("tor0.0", "host3.1.1", 1)
        assert router.entries == 2  # climb + descent


class TestTableSize:
    def test_bound_holds_without_a_clear_all(self):
        """200 k sends on the paper's tree: the table fills to its bound and
        stays there, oldest route out, newest in."""
        topo = build_fat_tree(16)
        bound = 4096
        router = Router(topo, path_cache_size=bound)
        reference = Router(topo, path_cache_size=0)
        hosts = [h.name for h in topo.hosts]
        tors = [router.tor_of(h) for h in hosts]
        rng = random.Random(3)
        filled = False
        for i in range(200_000):
            src = tors[rng.randrange(len(tors))]
            dst = hosts[rng.randrange(len(hosts))]
            flow_key = rng.getrandbits(32)
            route = router.forwarding_route(src, dst, flow_key)
            if filled:
                assert router.entries == bound
            elif router.entries == bound:
                filled = True
            if i % 5000 == 0:
                assert list(route.names) + [dst] == reference.path(
                    src, dst, flow_key
                )
        assert filled

    def test_paper_tree_fits_the_default_bound(self):
        """Host-to-host traffic on the 16-ary tree needs a table of
        same-pod routes, climbs and descents -- far below the default."""
        topo = build_fat_tree(16)
        router = Router(topo)
        hosts = [h.name for h in topo.hosts]
        tors = sorted({router.tor_of(h) for h in hosts})
        rng = random.Random(4)
        for _ in range(200_000):
            router.forwarding_route(
                tors[rng.randrange(len(tors))],
                hosts[rng.randrange(len(hosts))],
                rng.getrandbits(32),
            )
        # 16 pods x 8 racks x 8 classes, 16 x 64 climbs, 64 cores x 128 ToRs.
        assert router.entries == router.misses <= 1024 + 1024 + 8192

    def test_cold_cell_misses_on_few_sends(self):
        """A ``pkt-clirs-r95``-shaped cell from cold: the old caches missed
        on 75-81 % of its sends."""
        config = ExperimentConfig.small(
            scheme="clirs-r95", total_requests=8000, seed=16
        )
        scenario = build_scenario(config)
        run_experiment(config, scenario=scenario)
        router = scenario.network.router
        sends = sum(host.packets_sent for host in scenario.hosts.values())
        assert sends > 16000
        assert router.entries == router.misses
        assert router.misses < 0.05 * sends


# ---------------------------------------------------------------------------
# Express delivery against hop-by-hop forwarding
# ---------------------------------------------------------------------------
class Recorder:
    """Endpoint that logs what reaches its host, and when."""

    def __init__(self, env, name, log):
        self.env, self.name, self.log = env, name, log

    def handle_packet(self, packet):
        self.log.append((self.env.now, self.name, packet.request_id, packet.hops))


def _wired(trunking, skip_host=None):
    env = Environment()
    topo = build_fat_tree(4)
    network = Network(env, topo)
    if not trunking:
        network.disable_trunking()
    switches = {
        n.name: ProgrammableSwitch(n.name, network) for n in topo.switches
    }
    log = []
    hosts = {}
    for node in topo.hosts:
        if node.name == skip_host:
            continue
        hosts[node.name] = Host(node.name, network)
        hosts[node.name].bind(Recorder(env, node.name, log))
    return env, network, switches, hosts, log


def _sends(count=400, seed=9):
    """(time, src, dst, request id): every locality class, ties included."""
    topo = build_fat_tree(4)
    names = [h.name for h in topo.hosts]
    rng = random.Random(seed)
    sends = []
    for i in range(count):
        src, dst = rng.sample(names, 2)
        # A coarse clock makes many sends simultaneous.
        sends.append((round(rng.uniform(0, 2e-3), 4), src, dst, i))
    return sends


def _inject(env, hosts, sends):
    def fire(src, dst, request_id):
        hosts[src].send(
            make_request(
                client=src,
                request_id=request_id,
                key=request_id,
                rgid=1,
                backup_replica=dst,
                issued_at=env.now,
                netrs=False,
                dst=dst,
            )
        )

    for when, src, dst, request_id in sends:
        env.call_at(when, fire, src, dst, request_id)


def _counters(network, switches):
    return (
        network.transmissions,
        network.bytes_transferred,
        network.netrs_overhead_bytes,
        {name: s.packets_forwarded for name, s in switches.items()},
    )


class TestExpressDelivery:
    def test_matches_hop_by_hop_to_the_event(self):
        results = []
        for trunking in (True, False):
            env, network, switches, hosts, log = _wired(trunking)
            _inject(env, hosts, _sends())
            env.run()
            network.settle_trunks(env.now)
            results.append((log, _counters(network, switches), env.now))
        express, per_hop = results
        # Arrival times, arrival order among ties, hop counts.
        assert express[0] == per_hop[0]
        assert len(express[0]) == 400
        assert express[1] == per_hop[1]
        assert express[2] == per_hop[2]

    def test_one_event_per_send(self):
        env, network, _, hosts, _ = _wired(trunking=True)
        _inject(env, hosts, _sends(count=50))
        env.run()
        assert env.events_executed == 50 + 50  # the injections, the arrivals

    @pytest.mark.parametrize("stop", [0.507e-3, 1.037e-3, 1.951e-3])
    def test_stopped_mid_flight_settles_to_the_same_counters(self, stop):
        # Stops fall between hop events (sends are on a 100 us grid, hops
        # 30 us apart): ``run(until=t)`` executes an event at exactly ``t``,
        # the StopSimulation that ends an experiment does not.
        results = []
        for trunking in (True, False):
            env, network, switches, hosts, log = _wired(trunking)
            _inject(env, hosts, _sends())
            env.run(until=stop)
            network.settle_trunks(env.now)
            results.append((log, _counters(network, switches)))
        express, per_hop = results
        assert express == per_hop
        assert 0 < len(express[0]) < 400

    def test_unattached_destination_still_raises(self):
        for trunking in (True, False):
            env, _, _, hosts, _ = _wired(trunking, skip_host="host3.1.1")
            _inject(env, hosts, [(0.0, "host0.0.0", "host3.1.1", 1)])
            with pytest.raises(TopologyError, match="host3.1.1"):
                env.run()

    def test_destination_that_is_no_host_still_raises(self):
        for trunking in (True, False):
            env, _, _, hosts, _ = _wired(trunking)
            hosts["host0.0.0"].send(
                Packet(src="host0.0.0", dst="core0", magic=0, request_id=1)
            )
            with pytest.raises(RoutingError):
                env.run()

    @pytest.mark.parametrize("scheme", ["clirs-r95", "netrs-ilp", "netrs-tor"])
    def test_whole_experiment_matches_hop_by_hop(self, scheme):
        """Switch-injected trunks too: NetRS packets ride to the operator
        that intercepts them, rebuilt requests and monitor-labelled
        responses on to the egress ToR or the host."""
        config = ExperimentConfig.tiny(scheme=scheme, seed=5)
        outcomes = []
        for trunking in (True, False):
            scenario = build_scenario(config)
            if not trunking:
                scenario.network.disable_trunking()
            result = run_experiment(config, scenario=scenario)
            outcomes.append(
                (
                    result.latency.samples,
                    result.sim_duration,
                    _counters(scenario.network, scenario.switches),
                )
            )
        assert outcomes[0] == outcomes[1]
