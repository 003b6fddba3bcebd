"""The forwarding table and express delivery against their references.

Four claims: the interned forwarding routes are the reference ECMP walk;
every equal-cost walk between two points is as long as the next, which is
what lets a packet be priced by distance with no route; collapsed delivery
(``Host.send`` from a host, ``express`` from a switch) is hop-by-hop
forwarding, to the event time and the fabric counter; and the table is
consulted only by a fabric that forwards hop by hop, and stays within its
bound.
"""

import itertools
import random

import pytest

from repro.errors import ConfigurationError, RoutingError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.mesoscale.validate import differences
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.host import Host
from repro.network.packet import Packet, make_request
from repro.network.routing import Router
from repro.network.switch import ProgrammableSwitch
from repro.network.topology import Node, NodeKind, Topology, build_tree
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
            assert list(route) + [dst] == expected
            bypassed = walk.forwarding_route(src, dst, flow_key)
            assert bypassed == route
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
                    assert list(route) == expected

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
            assert list(route) + ["host3.1.1"] == walk.path(
                "tor0.0", "host3.1.1", flow_key
            )
            assert route[0] != "agg0.0"
        assert router.entries == 0
        router.restore_link("tor0.0", "agg0.0")
        router.forwarding_route("tor0.0", "host3.1.1", 1)
        assert router.entries == 2  # climb + descent


def _ecmp_universe(router):
    """One flow key per ECMP class: every setting of the bits the picks read
    or, on a tree with no key mask, a seeded sample of keys."""
    mask = router._climb_mask | router._descent_mask
    if not mask:
        rng = random.Random(5)
        return [rng.getrandbits(32) for _ in range(128)]
    keys, sub = [mask], mask
    while sub:
        sub = (sub - 1) & mask
        keys.append(sub)
    return keys


def _stranding_tree():
    """Two pods, two cores, and ``core1`` wired into pod 0 only."""
    topo = Topology()
    for c in range(2):
        topo.add_node(Node(name=f"core{c}", kind=NodeKind.CORE, index=c))
    for p in range(2):
        topo.add_node(Node(name=f"agg{p}.0", kind=NodeKind.AGG, pod=p))
        topo.add_node(Node(name=f"tor{p}.0", kind=NodeKind.TOR, pod=p, rack=0))
        topo.add_node(Node(name=f"host{p}.0.0", kind=NodeKind.HOST, pod=p, rack=0))
        topo.add_link(f"host{p}.0.0", f"tor{p}.0")
        topo.add_link(f"tor{p}.0", f"agg{p}.0")
        topo.add_link(f"agg{p}.0", "core0")
    topo.add_link("agg0.0", "core1")
    topo.validate()
    return topo


class TestDistanceNotRoute:
    """What express delivery assumes: ECMP picks a way, never a length."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_every_equal_cost_walk_has_the_rule_s_length(self, name):
        topo = TOPOLOGIES[name]()
        router = Router(topo, path_cache_size=0)
        keys = _ecmp_universe(router)
        walks = set()
        for tor in topo.by_kind(NodeKind.TOR):
            for host in topo.hosts:
                same_rack = (tor.pod, tor.rack) == (host.pod, host.rack)
                switches = 1 if same_rack else 3 if tor.pod == host.pod else 5
                for key in keys:
                    path = router.path(tor.name, host.name, key)
                    assert len(path) == switches
                    walks.add(tuple(path))
        # The keys do spread over ways: more walks than (ToR, host) pairs.
        assert len(walks) > len(topo.by_kind(NodeKind.TOR)) * len(topo.hosts)

    @pytest.mark.parametrize("name", ["fat-tree-4", "fat-tree-8"])
    def test_switch_distance_is_every_walk_s_length(self, name):
        """Every switch x every target class (host, ToR, aggregation, core),
        every ECMP class: the links to the target's egress switch."""
        topo = TOPOLOGIES[name]()
        router = Router(topo, path_cache_size=0)
        keys = _ecmp_universe(router)
        switches = [n.name for n in topo.switches]
        priced = set()
        for switch in switches:
            for target in switches + [h.name for h in topo.hosts]:
                node = topo.node(target)
                is_host = node.kind is NodeKind.HOST
                egress, links = router.distance(switch, target)
                assert egress == (router.tor_of(target) if is_host else target)
                if not links:
                    # Only a walk can tell, and it tells every key the same.
                    kinds = (topo.node(switch).kind, topo.node(egress).kind)
                    assert switch == egress or NodeKind.TOR not in kinds
                    continue
                priced.add((topo.node(switch).kind, node.kind, links))
                for key in keys:
                    assert len(router.path(switch, target, key)) - is_host == links
        tor, agg, core, host = NodeKind.TOR, NodeKind.AGG, NodeKind.CORE, NodeKind.HOST
        assert priced == {
            (tor, tor, 2), (tor, tor, 4), (tor, agg, 1), (tor, agg, 3), (tor, core, 2),
            (tor, host, 2), (tor, host, 4), (agg, tor, 1), (agg, tor, 3),
            (agg, host, 1), (agg, host, 3), (core, tor, 2), (core, host, 2),
        }  # fmt: skip

    def test_distance_of_what_is_unknown_is_a_walk(self):
        router = Router(build_fat_tree(4))
        assert router.distance("tor0.0", "nowhere") == ("nowhere", 0)
        assert router.distance("nowhere", "tor0.0") == ("tor0.0", 0)
        assert router.distance("tor0.0", None) == (None, 0)
        assert router.distance("agg0.0", "core0") == ("core0", 0)  # linked or not

    @pytest.mark.parametrize("name", ["fat-tree-4", "fat-tree-8"])
    def test_a_plain_send_adds_the_walk_s_length(self, name):
        """Every host pair: ``Host.send`` accounts one transmission per link
        of the reference walk and schedules one delivery."""
        env, network, hosts, log = _wired(trunking=True, topo=TOPOLOGIES[name]())
        router = network.router
        sends = 0
        for src, host in hosts.items():
            for dst in hosts:
                if dst == src:
                    continue
                sends += 1
                packet = Packet(src=src, dst=dst, magic=0, request_id=sends)
                before = network.transmissions
                host.send(packet)
                links = len(router.path(src, dst, packet.flow_key()))
                assert network.transmissions - before == links
        env.run()
        assert env.events_executed == len(log) == sends

    def test_a_switch_is_no_host(self):
        """No plain row for what is no host: the send climbs to the ToR and
        fails there as hop-by-hop forwarding does."""
        for target in ("tor1.0", "agg1.0", "core0", "nowhere", None):
            failures = []
            for trunking in (True, False):
                env, network, hosts, _ = _wired(trunking)
                hosts["host0.0.0"].send(
                    Packet(src="host0.0.0", dst=target, magic=0, request_id=1)
                )
                assert network.transmissions == 1 and not network._plain_rows
                with pytest.raises((RoutingError, TopologyError)) as failure:
                    env.run()
                failures.append(str(failure.value))
            assert failures[0] == failures[1]

    def test_where_a_walk_can_strand_the_tor_still_walks(self):
        topo = _stranding_tree()
        router = Router(topo)
        # The rule vouches for what no walk can change, and no further.
        for switch, target in (
            ("tor0.0", "host1.0.0"), ("tor0.0", "core1"), ("tor1.0", "agg0.0"),
            ("agg0.0", "tor1.0"), ("core0", "host1.0.0"),
        ):  # fmt: skip
            assert router.distance(switch, target)[1] == 0
        assert router.distance("agg1.0", "host1.0.0") == ("tor1.0", 1)
        with pytest.raises(RoutingError, match="core1 has no link into pod 1"):
            router.path("tor0.0", "host1.0.0", 1 << 5)  # climbs to core1
        env, network, hosts, log = _wired(trunking=True, topo=topo)
        assert network._express_ok  # Host.send, not the fabric, walks here

        def climbing_to(core):
            """A cross-pod packet whose flow key picks ``core``."""
            for request_id in itertools.count(1):
                packet = Packet(
                    src="host0.0.0", dst="host1.0.0", magic=0, request_id=request_id
                )
                if (packet.flow_key() >> 5) % 2 == core:
                    return packet

        hosts["host0.0.0"].send(climbing_to(0))
        env.run()
        assert [entry[1] for entry in log] == ["host1.0.0"]
        # Hop by hop along a real route, to the aggregation switch of pod 1.
        assert env.events_executed == 5
        hosts["host0.0.0"].send(climbing_to(1))
        with pytest.raises(RoutingError, match="core1 has no link into pod 1"):
            env.run()


def _host_sends(scenario):
    """Packets the hosts injected: requests, duplicates, a response a service."""
    return sum(c.requests_sent + c.redundant_sent for c in scenario.clients) + sum(
        server.completions for server in scenario.servers.values()
    )


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
                assert list(route) + [dst] == reference.path(
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

    def test_plain_host_traffic_never_consults_the_table(self):
        """A ``pkt-clirs-r95``-shaped cell makes no lookup at all: its
        packets are priced by distance."""
        config = ExperimentConfig.small(
            scheme="clirs-r95", total_requests=8000, seed=16
        )
        scenario = build_scenario(config)
        run_experiment(config, scenario=scenario)
        router = scenario.network.router
        sends = _host_sends(scenario)
        assert sends > 16000
        assert router.entries == 0 and router.misses == 0

    def test_cold_cell_misses_on_few_sends(self):
        """Nor does NetRS steering (a ``pkt-netrs-ilp``-shaped cell): every
        leg is priced by distance.  Per-hop forwarding (here: per-link
        accounting) does look routes up, and warms the table fast."""
        config = ExperimentConfig.small(
            scheme="netrs-ilp", n_clients=32, total_requests=8000, seed=16
        )
        for consulted in (False, True):
            scenario = build_scenario(config)
            if consulted:
                scenario.network.track_links()
            run_experiment(config, scenario=scenario)
            router = scenario.network.router
            sends = _host_sends(scenario)
            assert sends >= 16000
            if consulted:
                assert 0 < router.entries == router.misses < 0.05 * sends
            else:
                assert router.entries == 0 and router.misses == 0


# ---------------------------------------------------------------------------
# Express delivery against hop-by-hop forwarding
# ---------------------------------------------------------------------------
class Recorder:
    """Endpoint that logs what reaches its host, and when."""

    def __init__(self, env, name, log):
        self.env, self.name, self.log = env, name, log

    def handle_packet(self, packet):
        self.log.append((self.env.now, self.name, packet.request_id, packet.hops))


class Double:
    """A device that is no switch: what it would do with a packet is unknown."""

    def receive(self, packet, from_name):
        raise AssertionError("no test routes a packet through the double")


def _wired(trunking, skip=(), doubles=(), topo=None):
    """A fabric (4-ary unless ``topo``) with a recording endpoint on every host:
    nothing attached at ``skip``, a ``Double`` at ``doubles``."""
    env = Environment()
    topo = topo or build_fat_tree(4)
    network = Network(env, topo)
    if not trunking:
        network.disable_trunking()
    for node in topo.switches:
        if node.name in doubles:
            network.attach(node.name, Double())
        elif node.name not in skip:
            ProgrammableSwitch(node.name, network)
    log = []
    hosts = {}
    for node in topo.hosts:
        if node.name in skip:
            continue
        hosts[node.name] = Host(node.name, network)
        hosts[node.name].bind(Recorder(env, node.name, log))
    return env, network, hosts, log


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


def _counters(network):
    return (
        network.transmissions,
        network.bytes_transferred,
        network.netrs_overhead_bytes,
    )


#: ``ExperimentConfig.tiny`` overrides of the whole runs compared with their
#: hop-by-hop selves: every scheme, a plan redeployed mid-run, a plan whose
#: solver degrades the hot groups to DRS, and a server crashed and recovered
#: (a link or RSNode fault would switch trunking off on both sides).
_CRASH = dict(
    fault_schedule="server-down@0.02:server#0;server-up@0.06:server#0",
    request_timeout=20e-3,
    max_retries=4,
)
WHOLE_RUNS = {
    "clirs-r95": dict(scheme="clirs-r95"),
    "netrs-ilp": dict(scheme="netrs-ilp"),
    "netrs-tor": dict(scheme="netrs-tor"),
    "netrs-greedy": dict(scheme="netrs-greedy"),
    "netrs-core": dict(scheme="netrs-core"),
    "netrs-ilp-replan": dict(scheme="netrs-ilp", replan_period=0.05),
    "netrs-ilp-drs": dict(
        scheme="netrs-ilp", max_accelerator_utilization=0.02, demand_skew=0.8
    ),
    "clirs-r95-crash": dict(scheme="clirs-r95", **_CRASH),
    "netrs-ilp-crash": dict(scheme="netrs-ilp", **_CRASH),
    "netrs-tor-crash": dict(scheme="netrs-tor", **_CRASH),
}


#: Plain-traffic cells stopped mid-run: W=2 acks, R=2 digest probes and a
#: migration inside the stop window; R95 duplicates.
PLAIN_STOPPED = {
    "clirs-r95": dict(scheme="clirs-r95"),
    "quorum-churn": dict(
        scheme="clirs",
        write_fraction=0.3,
        write_quorum=2,
        read_quorum=2,
        request_timeout=0.25,
        churn_schedule="node-leave@0.022:server#1;node-join@0.031:server#1",
    ),
}


def _netrs_state(scenario):
    """What the acting switches did, as of the clock: selections, clones,
    monitor counts, the accelerator's books and then its selector's."""
    state = []
    for name, switch in sorted(scenario.switches.items()):
        acc, selector = switch.accelerator, switch.selector
        state.append(
            (
                name,
                switch.requests_selected,
                switch.responses_cloned,
                switch.monitor.counts() if switch.monitor is not None else None,
                acc and (acc.processed, acc.busy_time, acc.queue_length, acc.max_queue_seen),
                selector and (selector.requests_handled, selector.responses_handled),
            )
        )
    return state


class TestExpressDelivery:
    def test_matches_hop_by_hop_to_the_event(self):
        results = []
        for trunking in (True, False):
            env, network, hosts, log = _wired(trunking)
            _inject(env, hosts, _sends())
            env.run()
            network.settle_trunks(env.now)
            results.append((log, _counters(network), env.now))
        express, per_hop = results
        # Arrival times, arrival order among ties, hop counts.
        assert express[0] == per_hop[0]
        assert len(express[0]) == 400
        assert express[1] == per_hop[1]
        assert express[2] == per_hop[2]

    def test_one_event_per_send(self):
        env, _, hosts, _ = _wired(trunking=True)
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
            env, network, hosts, log = _wired(trunking)
            _inject(env, hosts, _sends())
            env.run(until=stop)
            network.settle_trunks(env.now)
            results.append((log, _counters(network)))
        express, per_hop = results
        assert express == per_hop
        assert 0 < len(express[0]) < 400

    def test_unattached_destination_still_raises(self):
        for trunking in (True, False):
            env, _, hosts, _ = _wired(trunking, skip=("host3.1.1",))
            _inject(env, hosts, [(0.0, "host0.0.0", "host3.1.1", 1)])
            with pytest.raises(TopologyError, match="host3.1.1"):
                env.run()

    def test_the_plain_table_never_caches_a_miss(self):
        """Nothing attached, then a host with no endpoint, then a bound one:
        the reference path raises what it raises, then the row is filled."""
        env, network, hosts, log = _wired(trunking=True, skip=("host3.1.1",))

        def send(request_id):
            hosts["host0.0.0"].send(
                Packet(src="host0.0.0", dst="host3.1.1", magic=0, request_id=request_id)
            )
            env.run()

        with pytest.raises(TopologyError, match="host3.1.1"):
            send(1)
        late = Host("host3.1.1", network)
        with pytest.raises(ConfigurationError, match="no endpoint"):
            send(2)
        assert "host3.1.1" not in network._plain_rows
        late.bind(Recorder(env, "host3.1.1", log))
        before = env.events_executed
        send(3)
        assert env.events_executed == before + 1
        assert [(name, rid, hops) for _, name, rid, hops in log] == [("host3.1.1", 3, 4)]
        assert network._plain_rows["host3.1.1"][1:] == ("tor3.1", 3)

    def test_one_flag_follows_every_express_condition(self):
        env, network, _, _ = _wired(trunking=True)
        link = ("tor0.0", "agg0.0")
        assert network._express_ok
        network.fail_link(*link)
        assert not network._express_ok
        network.degrade_link("tor1.0", "agg1.0", 2.0)
        network.restore_link(*link)
        assert not network._express_ok  # one link still degraded
        network.restore_link("tor1.0", "agg1.0")
        assert network._express_ok
        network.disable_trunking()
        assert not network._express_ok
        assert not _wired(trunking=True, doubles=("core3",))[1]._express_ok
        assert not _wired(trunking=True, skip=("core3",))[1]._express_ok
        network = Network(env, build_fat_tree(4), host_link_latency=10e-6)
        for node in network.topology.switches:
            ProgrammableSwitch(node.name, network)
        assert not network._express_ok
        network = _wired(trunking=True)[1]
        network.track_links()
        assert not network._express_ok

    def test_destination_that_is_no_host_still_raises(self):
        for trunking in (True, False):
            env, _, hosts, _ = _wired(trunking)
            hosts["host0.0.0"].send(
                Packet(src="host0.0.0", dst="core0", magic=0, request_id=1)
            )
            with pytest.raises(RoutingError):
                env.run()

    def test_a_test_double_anywhere_turns_express_off(self):
        """Even off the packets' paths: the check is the fabric's, not a route's."""
        sends = [(0.0, "host0.0.0", "host0.0.1", 1), (0.0, "host1.0.0", "host1.1.0", 2)]
        logs = []
        for doubles, hop_events in (((), 1 + 1), (("core3",), 2 + 4)):
            env, _, hosts, log = _wired(trunking=True, doubles=doubles)
            _inject(env, hosts, sends)
            env.run()
            assert env.events_executed == 2 + hop_events
            logs.append(log)
        assert logs[0] == logs[1] and len(logs[0]) == 2

    def test_a_switch_attached_after_the_first_send_turns_express_on(self):
        env, network, hosts, log = _wired(trunking=True, skip=("core3",))

        def send(request_id):
            hosts["host0.0.0"].send(
                Packet(src="host0.0.0", dst="host0.1.0", magic=0, request_id=request_id)
            )
            env.run()
            return env.events_executed

        assert send(1) == 4  # ToR, aggregation switch, ToR, host
        ProgrammableSwitch("core3", network)
        assert send(2) == 4 + 1
        assert [(name, hops) for _, name, _, hops in log] == [("host0.1.0", 2)] * 2
        assert log[1][0] - log[0][0] == log[0][0]  # and as late as the first

    def test_per_link_counts_are_per_hop_along_real_routes(self):
        """Per-switch and per-link load is ``Network.track_links``'s to
        measure: every transmission on the link it crossed, the same links
        whether the table or the reference walk names them, and the run's
        samples and counters those of the run that counts nothing."""
        config = ExperimentConfig.tiny(scheme="clirs-r95", seed=5)
        plain = run_experiment(config)
        counts = []
        for overrides in ({}, {"route_cache_size": 0}):
            scenario = build_scenario(config.replace(**overrides))
            network = scenario.network
            network.track_links()
            result = run_experiment(scenario.config, scenario=scenario)
            assert differences(plain, result) == []
            assert sum(network.link_packets.values()) == network.transmissions
            assert network.transmissions == result.transmissions
            counts.append((network.link_packets, network.link_bytes))
        assert counts[0] == counts[1]
        assert any(a.startswith("agg") and b.startswith("core") for a, b in counts[0][0])

    @pytest.mark.parametrize("cell", sorted(WHOLE_RUNS))
    def test_whole_experiment_matches_hop_by_hop(self, cell):
        """Switch-injected trunks too: NetRS packets ride to the operator
        that intercepts them, rebuilt requests and monitor-labelled
        responses on to the egress ToR or the host."""
        config = ExperimentConfig.tiny(seed=5, **WHOLE_RUNS[cell])
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
                    _counters(scenario.network),
                    _netrs_state(scenario),
                )
            )
        assert outcomes[0] == outcomes[1]
        if cell == "netrs-ilp-replan":
            assert scenario.controller.replans >= 1
        if cell == "netrs-ilp-drs":  # the solver degraded some groups, not all
            assert 0 < result.selector_requests_handled < config.total_requests
        if cell.endswith("-crash"):  # requests were lost to the crash, and retried
            assert result.timeouts > 0 and result.retries > 0

    @pytest.mark.parametrize("cell", sorted(WHOLE_RUNS))
    def test_tracked_links_leave_the_whole_run_unchanged(self, cell):
        """Per-link accounting forwards hop by hop and changes no result:
        samples, clock, fabric counters and switch state are those of the
        run that counts nothing, and every transmission is on some link."""
        config = ExperimentConfig.tiny(seed=5, **WHOLE_RUNS[cell])
        outcomes = []
        for tracked in (False, True):
            scenario = build_scenario(config)
            network = scenario.network
            if tracked:
                network.track_links()
            result = run_experiment(config, scenario=scenario)
            outcomes.append(
                (
                    result.latency.samples,
                    result.sim_duration,
                    _counters(network),
                    _netrs_state(scenario),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert sum(network.link_packets.values()) == network.transmissions
        assert sum(network.link_bytes.values()) == network.bytes_transferred

    @pytest.mark.parametrize(
        "cell", ["netrs-ilp", "netrs-tor", *sorted(PLAIN_STOPPED)]
    )
    def test_tracked_links_leave_a_stopped_run_unchanged(self, cell):
        """Stopped mid-flight, the tracked run owes nothing to unwind and
        counts what the settled express run counts."""
        overrides = PLAIN_STOPPED.get(cell) or WHOLE_RUNS[cell]
        config = ExperimentConfig.tiny(seed=5, **overrides)
        for stop in (3e-3, 11e-3, 23e-3):
            outcomes = []
            for tracked in (False, True):
                scenario = build_scenario(config)
                network = scenario.network
                if tracked:
                    network.track_links()
                scenario.workload.start()
                scenario.env.run(until=stop)
                assert not (tracked and any(network.trunks_in_flight()))
                network.settle_trunks(stop)
                outcomes.append((scenario.recorder.samples, _counters(network)))
            assert outcomes[0] == outcomes[1]
            assert sum(network.link_packets.values()) == network.transmissions

    @pytest.mark.parametrize(
        "fault, express",
        [
            ("server-down@0.02:server#0;server-up@0.06:server#0", True),
            ("server-down@0.02:server#0;rsnode-down@0.03:busiest", False),
            ("link-degrade@0.01:client#2/tor(client#2)*3.0", False),
        ],
    )
    def test_only_a_fault_that_can_change_a_path_or_a_clone_turns_express_off(
        self, fault, express
    ):
        config = ExperimentConfig.tiny(
            scheme="netrs-ilp", fault_schedule=fault, request_timeout=20e-3
        )
        assert build_scenario(config).network._trunking is express

    @pytest.mark.parametrize("scheme", ["netrs-ilp", "netrs-tor"])
    def test_netrs_run_stopped_mid_flight_settles_the_same(self, scheme):
        """A marked response in flight is a two-size trunk (its uplink carried
        no marker): unwound to what hop-by-hop forwarding had counted."""
        config = ExperimentConfig.tiny(scheme=scheme, seed=5)
        unwound = 0
        for stop in [3e-3 + 0.1037e-3 * i for i in range(20)]:
            outcomes = []
            for trunking in (True, False):
                scenario = build_scenario(config)
                network = scenario.network
                if not trunking:
                    network.disable_trunking()
                scenario.workload.start()
                scenario.env.run(until=stop)
                eager = network.transmissions
                if trunking:
                    responses_cut = any(
                        size > config.value_size and when >= stop > base + delay
                        for base, delay, _, size, _, when in network.trunks_in_flight()
                    )
                network.settle_trunks(stop)
                if trunking:
                    unwound += responses_cut and eager > network.transmissions
                else:
                    assert eager == network.transmissions  # nothing to unwind
                outcomes.append(
                    (
                        scenario.recorder.samples,
                        _counters(network),
                        _netrs_state(scenario),
                    )
                )
            assert outcomes[0] == outcomes[1]
        assert unwound >= 3

    @pytest.mark.parametrize("compaction", [True, False])
    @pytest.mark.parametrize("cell", sorted(PLAIN_STOPPED))
    def test_plain_run_stopped_mid_flight_settles_the_same(self, cell, compaction):
        """The plain twin: the ledger of a send ``Host.send`` delivered is its
        schedule entry, so a compaction pass before the stop must keep it."""
        config = ExperimentConfig.tiny(
            seed=5, engine_compaction=compaction, **PLAIN_STOPPED[cell]
        )
        unwound = 0
        for stop in [20e-3 + 1.037e-3 * i for i in range(20)]:
            outcomes = []
            for trunking in (True, False):
                scenario = build_scenario(config)
                network, env = scenario.network, scenario.env
                if not trunking:
                    network.disable_trunking()
                scenario.workload.start()
                env.run(until=stop)
                rows = sorted(network.trunks_in_flight())
                assert trunking or not rows  # per-hop forwarding owes nothing
                if compaction:
                    assert env.pending_cancelled > 0
                    env._compact()
                    assert sorted(network.trunks_in_flight()) == rows
                eager = network.transmissions
                network.settle_trunks(stop)
                unwound += eager - network.transmissions
                writes = scenario.write_recorder
                outcomes.append(
                    (
                        scenario.recorder.samples,
                        None if writes is None else writes.samples,
                        _counters(network),
                    )
                )
            assert outcomes[0] == outcomes[1]
        assert unwound >= 20


#: The benchmark's NetRS cell: 32 clients, 6 000 requests.
_NETRS_CELL = dict(n_clients=32, total_requests=6000)


class TestStampAtSend:
    """The client ToR's stamp rides the host's send while no rule can change
    mid-run: one event a request less, and nothing else moves."""

    @pytest.mark.parametrize(
        "scheme, per_request",
        [
            ("netrs-ilp", 5.02),  # arrival, RSNode, server twice, client
            ("netrs-tor", 5.02),  # the RSNode is the client ToR: that is its wait
        ],
    )
    def test_events_per_request_without_a_replan(self, scheme, per_request):
        config = ExperimentConfig.small(seed=1, scheme=scheme, **_NETRS_CELL)
        scenario = build_scenario(config)
        assert scenario.network.stamp_at_send
        result = run_experiment(config, scenario=scenario)
        assert result.events_executed / config.total_requests == pytest.approx(
            per_request, abs=0.01
        )

    def test_an_armed_replan_keeps_the_stamp_an_event_and_moves_nothing_else(self):
        """A replan armed past the end of the run: the rules could change, so
        the stamp is the ToR's event again -- 6.02 a request, the latencies
        to the bit those of the run that stamps at the send."""
        config = ExperimentConfig.small(seed=1, scheme="netrs-ilp", **_NETRS_CELL)
        sent = run_experiment(config)
        armed = config.replace(replan_period=10.0)
        scenario = build_scenario(armed)
        assert not scenario.network.stamp_at_send
        result = run_experiment(armed, scenario=scenario)
        assert scenario.controller.replans == 0
        assert result.events_executed / config.total_requests == pytest.approx(
            6.02, abs=0.01
        )
        assert result.events_executed - sent.events_executed == config.total_requests
        assert result.latency.samples == sent.latency.samples

    def test_replan_ticks_add_to_the_stamp_events(self):
        """``netrs-ilp-replan``: 6.02 a request plus the ticks, give or take
        the groups a replan hands to their own ToR."""
        config = ExperimentConfig.small(
            seed=1, scheme="netrs-ilp", replan_period=0.05, **_NETRS_CELL
        )
        scenario = build_scenario(config)
        assert not scenario.network.stamp_at_send
        result = run_experiment(config, scenario=scenario)
        ticks = int(result.sim_duration // config.replan_period)
        assert scenario.controller.replans == ticks > 0
        per_request = (result.events_executed - ticks) / config.total_requests
        assert per_request == pytest.approx(6.02, abs=0.05)

    def test_a_mid_run_deploy_clears_the_flag_and_the_run_completes(self):
        """Any rule write makes the stamp the ToR's event again, from the next
        send.  A request already on its uplink keeps the stamp it left with:
        that window is at most one host-link latency, and only an API caller
        (``deploy``, ``degrade_groups``, ``check_overloads``) can open it --
        a config-driven run rewrites rules only on a replan tick, and with
        one armed the flag is never set, or on an RSNode fault, whose
        schedule turns express delivery off.  Re-deploying the same plan
        changes no rule's value, so the latencies are those of the run left
        alone, and only the events after the deploy grow."""
        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=5)
        alone = run_experiment(config)
        scenario = build_scenario(config)
        controller = scenario.controller
        assert scenario.network.stamp_at_send
        scenario.env.call_at(
            alone.sim_duration / 2, controller.deploy, controller.current_plan
        )
        result = run_experiment(config, scenario=scenario)
        assert not scenario.network.stamp_at_send
        assert controller.deployments == 2
        assert result.completed_requests == config.total_requests
        assert result.latency.samples == alone.latency.samples
        assert alone.events_executed < result.events_executed
