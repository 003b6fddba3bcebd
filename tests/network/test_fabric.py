"""Tests for the Network fabric and Host glue."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.host import Host
from repro.network.packet import make_request
from repro.sim import Environment


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet, from_name):
        self.packets.append((packet, from_name))

    def handle_packet(self, packet):
        self.packets.append(packet)


@pytest.fixture
def net():
    env = Environment()
    topo = build_fat_tree(4)
    return env, topo, Network(env, topo)


def _plain(dst="host0.0.1"):
    return make_request(
        client="host0.0.0",
        request_id=1,
        key=1,
        rgid=1,
        backup_replica=dst,
        issued_at=0.0,
        netrs=False,
        dst=dst,
    )


class TestNetwork:
    def test_negative_latency_rejected(self, net):
        env, topo, _ = net
        with pytest.raises(ValueError):
            Network(env, topo, switch_link_latency=-1.0)

    def test_attach_unknown_node_rejected(self, net):
        _, _, network = net
        with pytest.raises(TopologyError):
            network.attach("ghost", Sink())

    def test_double_attach_rejected(self, net):
        _, _, network = net
        network.attach("core0", Sink())
        with pytest.raises(TopologyError):
            network.attach("core0", Sink())

    def test_device_lookup_missing(self, net):
        _, _, network = net
        with pytest.raises(TopologyError):
            network.device("core0")

    def test_link_latency_host_vs_switch(self, net):
        env, topo, _ = net
        network = Network(
            env, topo, switch_link_latency=30e-6, host_link_latency=10e-6
        )
        assert network.link_latency("tor0.0", "agg0.0") == 30e-6
        assert network.link_latency("host0.0.0", "tor0.0") == 10e-6

    def test_transmit_delivers_after_latency(self, net):
        env, _, network = net
        sink = Sink()
        network.attach("tor0.0", sink)
        network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        assert env.now == pytest.approx(30e-6)
        assert len(sink.packets) == 1
        assert sink.packets[0][1] == "host0.0.0"

    def test_accounting(self, net):
        env, _, network = net
        network.attach("tor0.0", Sink())
        packet = _plain()
        network.transmit("host0.0.0", "tor0.0", packet)
        env.run()
        assert network.transmissions == 1
        assert network.bytes_transferred == packet.wire_accounting()[0]


class TestHost:
    def test_host_requires_endpoint_for_delivery(self, net):
        env, _, network = net
        host = Host("host0.0.0", network)
        network.transmit("tor0.0", "host0.0.0", _plain("host0.0.0"))
        with pytest.raises(ConfigurationError):
            env.run()

    def test_single_role_per_host(self, net):
        _, _, network = net
        host = Host("host0.0.0", network)
        host.bind(Sink())
        with pytest.raises(ConfigurationError):
            host.bind(Sink())

    def test_send_goes_via_tor(self, net):
        env, _, network = net
        host = Host("host0.0.0", network)
        host.bind(Sink())
        tor_sink = Sink()
        network.attach("tor0.0", tor_sink)
        host.send(_plain())
        env.run()
        assert len(tor_sink.packets) == 1

    def test_receive_hands_to_the_endpoint(self, net):
        env, _, network = net
        host = Host("host0.0.0", network)
        sink = Sink()
        host.bind(sink)
        network.transmit("tor0.0", "host0.0.0", _plain("host0.0.0"))
        env.run()
        assert len(sink.packets) == 1


class TestBandwidthModel:
    def test_bandwidth_validation(self, net):
        env, topo, _ = net
        with pytest.raises(ValueError):
            Network(env, topo, link_bandwidth=0.0)

    def test_serialization_adds_transmission_time(self, net):
        env, topo, _ = net
        network = Network(
            env, topo, switch_link_latency=30e-6, link_bandwidth=10e9
        )
        sink = Sink()
        network.attach("tor0.0", sink)
        packet = _plain()
        network.transmit("host0.0.0", "tor0.0", packet)
        env.run()
        expected = 30e-6 + packet.wire_accounting()[0] * 8 / 10e9
        assert env.now == pytest.approx(expected)

    def test_packets_queue_behind_each_other(self, net):
        env, topo, _ = net
        # 1 Mbit/s: a ~1 KB packet takes ~8 ms to serialize.
        network = Network(
            env,
            topo,
            switch_link_latency=0.0,
            host_link_latency=0.0,
            link_bandwidth=1e6,
        )
        sink = Sink()
        network.attach("tor0.0", sink)
        first, second = _plain(), _plain()
        network.transmit("host0.0.0", "tor0.0", first)
        network.transmit("host0.0.0", "tor0.0", second)
        env.run()
        tx = first.wire_accounting()[0] * 8 / 1e6
        assert len(sink.packets) == 2
        assert env.now == pytest.approx(2 * tx)
        assert network.max_link_backlog == pytest.approx(tx)
        assert network.serialization_delay_total == pytest.approx(3 * tx)

    def test_opposite_directions_do_not_contend(self, net):
        env, topo, _ = net
        network = Network(
            env,
            topo,
            switch_link_latency=0.0,
            host_link_latency=0.0,
            link_bandwidth=1e6,
        )
        up, down = Sink(), Sink()
        network.attach("tor0.0", up)
        network.attach("host0.0.0", down)
        network.transmit("host0.0.0", "tor0.0", _plain())
        network.transmit("tor0.0", "host0.0.0", _plain("host0.0.0"))
        env.run()
        tx = _plain().wire_accounting()[0] * 8 / 1e6
        assert env.now == pytest.approx(tx)

    def test_default_has_no_serialization(self, net):
        env, _, network = net
        network.attach("tor0.0", Sink())
        network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        assert network.serialization_delay_total == 0.0


class TestLinkAccounting:
    def test_off_by_default(self, net):
        _, _, network = net
        with pytest.raises(TopologyError):
            network.top_links()

    def test_counts_per_directed_link(self, net):
        env, topo, _ = net
        network = Network(env, topo, track_links=True)
        network.attach("tor0.0", Sink())
        network.attach("host0.0.0", Sink())
        packet = _plain()
        network.transmit("host0.0.0", "tor0.0", packet)
        network.transmit("host0.0.0", "tor0.0", packet.clone())
        network.transmit("tor0.0", "host0.0.0", packet.clone())
        env.run()
        assert network.link_packets[("host0.0.0", "tor0.0")] == 2
        assert network.link_packets[("tor0.0", "host0.0.0")] == 1
        top = network.top_links(1)
        assert top[0][0] == ("host0.0.0", "tor0.0")
        assert top[0][1] == 2 * packet.wire_accounting()[0]

    def test_experiment_level_hotspots(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig.tiny(
            scheme="netrs-ilp", seed=1, track_link_stats=True
        )
        result = run_experiment(config, keep_scenario=True)
        network = result.scenario.network
        top = network.top_links(5)
        assert len(top) == 5
        assert sum(network.link_bytes.values()) == network.bytes_transferred
