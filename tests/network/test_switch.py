"""Tests for the programmable switch's NetRS rules pipeline (paper Fig. 3).

Builds a real 4-ary fat-tree fabric with switches everywhere and scripted
endpoints, then injects packets and observes the pipeline decisions.
"""

import pytest

from repro.errors import ConfigurationError
from repro.network.accelerator import Accelerator
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.host import Host
from repro.network.packet import (
    MAGIC_MONITOR,
    MAGIC_PLAIN,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    RSNODE_ILLEGAL,
    ServerStatus,
    magic_transform,
    make_request,
)
from repro.network.switch import ProgrammableSwitch
from repro.sim import Environment


class RecordingEndpoint:
    """Endpoint that stores everything delivered to its host."""

    def __init__(self):
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


class ScriptedSelector:
    """Minimal selector double: always picks a fixed server.

    Reads follow the rule of the real counters: ``station`` (the accelerator
    the selector runs on, once bound) is brought to the clock first, so a
    clone noted ahead of it is folded by the time anyone looks.
    """

    def __init__(self, env, server):
        self.env = env
        self.server = server
        self.requests = []
        self.station = None
        self._responses = []

    def select(self, rgid, now):
        self.requests.append((rgid, now))
        return self.server

    def fold(self, clone, now):
        self._responses.append((*clone, now))

    @property
    def responses(self):
        if self.station is not None:
            self.station.settle()
        return self._responses


class RecordingMonitor:
    """Monitor double: what was counted at egress, or noted for an instant
    the clock has reached."""

    def __init__(self, env):
        self.env = env
        self._noted = []

    def observe(self, packet):
        self.note_at(self.env.now, packet.dst, packet.source_marker)

    def note_at(self, when, dst, marker):
        self._noted.append((when, dst, marker))

    @property
    def seen(self):
        return [note for note in self._noted if note[0] <= self.env.now]


@pytest.fixture
def fabric():
    """A wired 4-ary fat-tree with accelerated switches and idle hosts."""
    env = Environment()
    topo = build_fat_tree(4)
    network = Network(env, topo)
    switches = {}
    directory = {}
    operator_id = 1
    for node in topo.switches:
        acc = Accelerator(env, f"acc:{node.name}")
        switches[node.name] = ProgrammableSwitch(
            node.name, network, operator_id=operator_id, accelerator=acc
        )
        directory[operator_id] = node.name
        operator_id += 1
    endpoints = {}
    for host in topo.hosts:
        h = Host(host.name, network)
        endpoint = RecordingEndpoint()
        h.bind(endpoint)
        endpoints[host.name] = (h, endpoint)
    for switch in switches.values():
        switch.set_directory(directory)
    return env, topo, network, switches, endpoints, directory


def _netrs_request(client, rgid=0, backup="host1.0.0"):
    return make_request(
        client=client,
        request_id=101,
        key=1,
        rgid=rgid,
        backup_replica=backup,
        issued_at=0.0,
        netrs=True,
    )


class TestPlainForwarding:
    def test_plain_packet_reaches_destination(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        host, _ = endpoints["host0.0.0"]
        packet = make_request(
            client="host0.0.0",
            request_id=1,
            key=1,
            rgid=1,
            backup_replica="host3.1.1",
            issued_at=0.0,
            netrs=False,
            dst="host3.1.1",
        )
        host.send(packet)
        env.run()
        _, endpoint = endpoints["host3.1.1"]
        assert len(endpoint.received) == 1
        assert endpoint.received[0].magic == MAGIC_PLAIN

    def test_plain_latency_matches_hops(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        host, _ = endpoints["host0.0.0"]
        packet = make_request(
            client="host0.0.0",
            request_id=2,
            key=1,
            rgid=1,
            backup_replica="host0.0.1",
            issued_at=0.0,
            netrs=False,
            dst="host0.0.1",
        )
        host.send(packet)
        env.run()
        # host->tor->host: two 30us links.
        assert env.now == pytest.approx(60e-6)


class TestToRStamping:
    def test_request_gets_rsnode_id(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        tor = switches["tor0.0"]
        target_op = switches["core0"].operator_id
        tor.install_group_rule("host0.0.0", 5)
        tor.install_rsnode_rule(5, target_op)
        switches["core0"].bind_operator(
            ScriptedSelector(env, "host2.0.0"), directory
        )
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        env.run()
        _, server_endpoint = endpoints["host2.0.0"]
        assert len(server_endpoint.received) == 1
        delivered = server_endpoint.received[0]
        assert delivered.rsnode_id == target_op
        assert delivered.magic == magic_transform(MAGIC_RESPONSE)

    def test_missing_group_rule_raises(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        with pytest.raises(ConfigurationError):
            env.run()

    def test_missing_rsnode_rule_raises(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        switches["tor0.0"].install_group_rule("host0.0.0", 5)
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        with pytest.raises(ConfigurationError):
            env.run()

    def test_group_rule_for_foreign_host_rejected(self, fabric):
        _, _, _, switches, _, _ = fabric
        with pytest.raises(ConfigurationError):
            switches["tor0.0"].install_group_rule("host1.0.0", 1)

    def test_group_rules_only_on_tor(self, fabric):
        _, _, _, switches, _, _ = fabric
        with pytest.raises(ConfigurationError):
            switches["core0"].install_group_rule("host0.0.0", 1)


class TestSelection:
    def test_rsnode_at_own_tor(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        tor = switches["tor0.0"]
        selector = ScriptedSelector(env, "host3.0.0")
        tor.bind_operator(selector, directory)
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, tor.operator_id)
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        env.run()
        assert len(selector.requests) == 1
        _, server_endpoint = endpoints["host3.0.0"]
        assert len(server_endpoint.received) == 1
        assert tor.requests_selected == 1

    def test_selection_at_aggregation_waypoint(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        agg = switches["agg0.1"]
        selector = ScriptedSelector(env, "host1.1.1")
        agg.bind_operator(selector, directory)
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, agg.operator_id)
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        env.run()
        assert len(selector.requests) == 1
        _, server_endpoint = endpoints["host1.1.1"]
        assert len(server_endpoint.received) == 1


class TestResponsePath:
    def _run_response(self, fabric, rsnode_switch):
        env, topo, network, switches, endpoints, directory = fabric
        rsnode = switches[rsnode_switch]
        selector = ScriptedSelector(env, "host2.0.0")
        rsnode.bind_operator(selector, directory)
        selector.station = rsnode.accelerator
        # Build a response as the server would: copied RID, NetRS magic.
        request = _netrs_request("host0.0.0")
        request.rsnode_id = rsnode.operator_id
        request.magic = magic_transform(MAGIC_RESPONSE)
        request.server = "host2.0.0"
        request.retaining_value = 0.0
        status = ServerStatus(queue_size=1, service_rate=500.0, timestamp=0.0)
        response = request.reply("host2.0.0", status, 1024)
        assert response.magic == MAGIC_RESPONSE
        server_host, _ = endpoints["host2.0.0"]
        server_host.send(response)
        env.run()
        return env, switches, endpoints, selector, rsnode

    def test_response_visits_rsnode_and_updates_selector(self, fabric):
        env, switches, endpoints, selector, rsnode = self._run_response(
            fabric, "agg0.0"
        )
        assert len(selector.responses) == 1
        assert rsnode.responses_cloned == 1
        _, client_endpoint = endpoints["host0.0.0"]
        assert len(client_endpoint.received) == 1
        assert client_endpoint.received[0].magic == MAGIC_MONITOR

    def test_response_source_marker_stamped(self, fabric):
        env, switches, endpoints, selector, _ = self._run_response(
            fabric, "agg0.0"
        )
        _, client_endpoint = endpoints["host0.0.0"]
        delivered = client_endpoint.received[0]
        assert delivered.source_marker is not None
        assert delivered.source_marker.pod == 2  # server host2.0.0

    def test_both_ingress_paths_stamp_the_tor_s_own_marker(self, fabric):
        """One rule: the stamp that rides the send and the one the ToR applies
        hop by hop are the object the monitors compare against."""
        env, topo, network, switches, endpoints, directory = fabric
        stamped = []
        for trunking in (True, False):
            if not trunking:
                network.disable_trunking()
            self._run_response(fabric, "agg0.0")
            _, client_endpoint = endpoints["host0.0.0"]
            stamped.append(client_endpoint.received[-1].source_marker)
        assert stamped[0] is stamped[1] is switches["tor2.0"].marker

    def test_monitor_counts_egress(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        monitor = RecordingMonitor(env)
        switches["tor0.0"].monitor = monitor
        _, _, _, selector, _ = self._run_response(fabric, "agg0.0")
        assert len(monitor.seen) == 1

    def test_monitor_ignores_plain_traffic(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        monitor = RecordingMonitor(env)
        switches["tor0.0"].monitor = monitor
        request = make_request(
            client="host2.0.0",
            request_id=3,
            key=1,
            rgid=1,
            backup_replica="host0.0.0",
            issued_at=0.0,
            netrs=False,
            dst="host0.0.0",
        )
        host, _ = endpoints["host2.0.0"]
        host.send(request)
        env.run()
        assert monitor.seen == []


class TestDegradedReplicaSelection:
    def test_illegal_rsnode_routes_to_backup(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, RSNODE_ILLEGAL)
        host, _ = endpoints["host0.0.0"]
        packet = _netrs_request("host0.0.0", backup="host3.1.0")
        host.send(packet)
        env.run()
        _, backup_endpoint = endpoints["host3.1.0"]
        assert len(backup_endpoint.received) == 1
        delivered = backup_endpoint.received[0]
        assert delivered.magic == magic_transform(MAGIC_MONITOR)
        assert delivered.rsnode_id == RSNODE_ILLEGAL

    def test_drs_response_is_monitor_visible(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        monitor = RecordingMonitor(env)
        switches["tor0.0"].monitor = monitor
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, RSNODE_ILLEGAL)
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0", backup="host3.1.0"))
        env.run()
        # Server-side: reply as the KV server would.
        _, backup_endpoint = endpoints["host3.1.0"]
        request = backup_endpoint.received[0]
        status = ServerStatus(queue_size=0, service_rate=1.0, timestamp=0.0)
        response = request.reply("host3.1.0", status, 1024)
        assert response.magic == MAGIC_MONITOR
        server_host, _ = endpoints["host3.1.0"]
        server_host.send(response)
        env.run()
        assert len(monitor.seen) == 1
        _, client_endpoint = endpoints["host0.0.0"]
        assert len(client_endpoint.received) == 1


class TestOperatorFailure:
    def test_failed_operator_degrades_in_flight_requests(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        agg = switches["agg0.0"]
        selector = ScriptedSelector(env, "host2.0.0")
        agg.bind_operator(selector, directory)
        agg.fail()
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, agg.operator_id)
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0", backup="host1.0.1"))
        env.run()
        assert selector.requests == []
        _, backup_endpoint = endpoints["host1.0.1"]
        assert len(backup_endpoint.received) == 1

    def test_recovered_operator_selects_again(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        agg = switches["agg0.0"]
        selector = ScriptedSelector(env, "host2.0.0")
        agg.bind_operator(selector, directory)
        agg.fail()
        agg.recover()
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, agg.operator_id)
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        env.run()
        assert len(selector.requests) == 1


class TestOperatorBinding:
    def test_bind_without_accelerator_rejected(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        bare = ProgrammableSwitch("core3", Network(Environment(), topo))
        with pytest.raises(ConfigurationError):
            bare.bind_operator(ScriptedSelector(env, "x"), directory)

    def test_rsnode_rule_only_on_tor(self, fabric):
        _, _, _, switches, _, _ = fabric
        with pytest.raises(ConfigurationError):
            switches["agg0.0"].install_rsnode_rule(1, 2)

    def test_rsnode_of_group(self, fabric):
        _, _, _, switches, _, _ = fabric
        tor = switches["tor0.0"]
        assert tor.rsnode_of_group(9) is None
        tor.install_rsnode_rule(9, 4)
        assert tor.rsnode_of_group(9) == 4


class TestErrorPaths:
    def test_unknown_rsnode_id_raises(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_rsnode_rule(1, 9999)  # not in the directory
        host, _ = endpoints["host0.0.0"]
        host.send(_netrs_request("host0.0.0"))
        with pytest.raises(Exception) as excinfo:
            env.run()
        assert "9999" in str(excinfo.value)

    def test_forward_without_destination_raises(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        from repro.errors import RoutingError
        from repro.network.packet import Packet

        broken = Packet(src="host0.0.0", dst=None, magic=0, request_id=1)
        with pytest.raises(RoutingError):
            switches["tor0.0"].receive(broken, "agg0.0")

    def test_monitor_skipped_without_marker(self, fabric):
        env, topo, network, switches, endpoints, _ = fabric
        monitor = RecordingMonitor(env)
        switches["tor0.0"].monitor = monitor
        from repro.network.packet import MAGIC_MONITOR, Packet

        # Monitor-labeled but marker-less (e.g. crafted by a buggy device):
        # the egress rule must not count it.
        packet = Packet(
            src="host2.0.0",
            dst="host0.0.0",
            magic=MAGIC_MONITOR,
            request_id=5,
            client="host0.0.0",
        )
        switches["tor0.0"].receive(packet, "agg0.0")
        env.run()
        assert monitor.seen == []
        _, client_endpoint = endpoints["host0.0.0"]
        assert len(client_endpoint.received) == 1

    def test_two_failed_operators_fall_back_independently(self, fabric):
        env, topo, network, switches, endpoints, directory = fabric
        for name in ("agg0.0", "agg0.1"):
            switches[name].bind_operator(
                ScriptedSelector(env, "host2.0.0"), directory
            )
            switches[name].fail()
        tor = switches["tor0.0"]
        tor.install_group_rule("host0.0.0", 1)
        tor.install_group_rule("host0.0.1", 2)
        tor.install_rsnode_rule(1, switches["agg0.0"].operator_id)
        tor.install_rsnode_rule(2, switches["agg0.1"].operator_id)
        host_a, _ = endpoints["host0.0.0"]
        host_b, _ = endpoints["host0.0.1"]
        host_a.send(_netrs_request("host0.0.0", backup="host3.0.0"))
        packet = _netrs_request("host0.0.1", backup="host3.0.1")
        packet.src = "host0.0.1"
        packet.client = "host0.0.1"
        host_b.send(packet)
        env.run()
        _, backup_a = endpoints["host3.0.0"]
        _, backup_b = endpoints["host3.0.1"]
        assert len(backup_a.received) == 1
        assert len(backup_b.received) == 1
