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

    def test_a_negative_route_cache_is_rejected_at_construction(self, net):
        """The router is built only when a walk is needed, but a bad table
        bound still fails where the fabric is made, not at the first fault."""
        env, topo, _ = net
        with pytest.raises(ValueError, match="path_cache_size must be >= 0"):
            Network(env, topo, route_cache_size=-1)

    def test_the_router_is_built_on_first_use_and_kept(self, net):
        env, topo, _ = net
        network = Network(env, topo, route_cache_size=7)
        assert network._router is None
        router = network.router
        assert network.router is router and router.path_cache_size == 7
        assert router.geometry is network.geometry

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


class TestPureDelayLinks:
    """A link is a pure delay (section V-A): no bandwidth, no queue."""

    def test_delay_does_not_depend_on_packet_size(self, net):
        env, _, network = net
        sink = Sink()
        network.attach("tor0.0", sink)
        small, large = _plain(), _plain()
        large.value_size = 64 * 1024
        assert large.wire_accounting()[0] > small.wire_accounting()[0]
        for packet in (small, large):
            start = env.now
            network.transmit("host0.0.0", "tor0.0", packet)
            env.run()
            assert env.now - start == pytest.approx(30e-6)
        assert len(sink.packets) == 2

    def test_packets_on_one_link_do_not_queue(self, net):
        env, _, network = net
        arrivals = []
        sink = Sink()
        sink.receive = lambda packet, from_name: arrivals.append(env.now)
        network.attach("tor0.0", sink)
        for _ in range(3):
            network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        assert arrivals == [pytest.approx(30e-6)] * 3

    def test_opposite_directions_do_not_contend(self, net):
        env, _, network = net
        up, down = Sink(), Sink()
        network.attach("tor0.0", up)
        network.attach("host0.0.0", down)
        network.transmit("host0.0.0", "tor0.0", _plain())
        network.transmit("tor0.0", "host0.0.0", _plain("host0.0.0"))
        env.run()
        assert env.now == pytest.approx(30e-6)
        assert len(up.packets) == len(down.packets) == 1

    @pytest.mark.parametrize(
        "keyword", [dict(link_bandwidth=1e9), dict(track_links=True)],
        ids=["link_bandwidth", "track_links"],
    )
    def test_the_constructor_takes_no_link_model_knob(self, net, keyword):
        env, topo, _ = net
        with pytest.raises(TypeError):
            Network(env, topo, **keyword)


class TestLinkAccounting:
    def test_off_by_default(self, net):
        _, _, network = net
        with pytest.raises(TopologyError):
            network.top_links()

    def test_counts_per_directed_link(self, net):
        env, topo, _ = net
        network = Network(env, topo)
        network.track_links()
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

    def test_counting_starts_at_the_call(self, net):
        env, _, network = net
        network.attach("tor0.0", Sink())
        network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        network.track_links()
        assert network.top_links() == []
        network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        assert network.link_packets == {("host0.0.0", "tor0.0"): 1}
        assert network.transmissions == 2

    def test_turning_it_on_twice_keeps_the_counts(self, net):
        env, _, network = net
        network.attach("tor0.0", Sink())
        network.track_links()
        network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        network.track_links()
        network.transmit("host0.0.0", "tor0.0", _plain())
        env.run()
        assert network.link_packets == {("host0.0.0", "tor0.0"): 2}

    def test_counting_keeps_each_link_s_latency(self, net):
        """Tracking takes the per-link latency path, not the shared delay."""
        env, topo, _ = net
        network = Network(
            env, topo, switch_link_latency=30e-6, host_link_latency=10e-6
        )
        network.track_links()
        arrivals = []
        sink = Sink()
        sink.receive = lambda packet, from_name: arrivals.append((from_name, env.now))
        network.attach("tor0.0", sink)
        network.transmit("host0.0.0", "tor0.0", _plain())
        network.transmit("agg0.0", "tor0.0", _plain())
        env.run()
        assert arrivals == [
            ("host0.0.0", pytest.approx(10e-6)),
            ("agg0.0", pytest.approx(30e-6)),
        ]
        assert sum(network.link_packets.values()) == 2

    def test_experiment_level_hotspots(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        from repro.experiments.scenarios import build_scenario

        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=1)
        scenario = build_scenario(config)
        network = scenario.network
        network.track_links()
        run_experiment(config, scenario=scenario)
        top = network.top_links(5)
        assert len(top) == 5
        assert sum(network.link_bytes.values()) == network.bytes_transferred
