"""FatTreeGeometry built from ``k`` must agree exactly with the one derived
from the materialized packet topology, and with the router's walks."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.network import FatTreeGeometry, build_fat_tree, shared_geometry
from repro.network.topology import NodeKind


def test_host_order_matches_packet_topology():
    geometry = FatTreeGeometry(4)
    topology = build_fat_tree(4)
    assert geometry.hosts == [node.name for node in topology.hosts]


def test_tor_names_match_packet_topology():
    geometry = FatTreeGeometry(4)
    topology = build_fat_tree(4)
    for host in geometry.hosts:
        tor = geometry.tor_of(host)
        assert host in {n.name for n in topology.hosts_under(tor)}


def test_total_hosts_is_k_cubed_over_four():
    assert FatTreeGeometry(4).total_hosts() == 16
    assert FatTreeGeometry(8).total_hosts() == 128
    assert FatTreeGeometry(74).total_hosts() == 101_306


def test_hop_counts_by_locality_class():
    geometry = FatTreeGeometry(4)
    assert geometry.hop_count("host0.0.0", "host0.0.1") == 2  # same rack
    assert geometry.hop_count("host0.0.0", "host0.1.0") == 4  # same pod
    assert geometry.hop_count("host0.0.0", "host3.1.1") == 6  # cross-pod
    assert geometry.hop_count("host2.1.0", "host2.1.0") == 2  # self: via ToR


def test_rack_and_pod_indices():
    geometry = FatTreeGeometry(4)
    assert geometry.rack_index("host0.0.0") == 0
    assert geometry.rack_index("host1.0.0") == 2
    assert geometry.pod_index("host3.1.1") == 3


def test_is_host():
    geometry = FatTreeGeometry(4)
    assert geometry.is_host("host0.1.1")
    assert not geometry.is_host("tor0.1")
    assert not geometry.is_host("host9.9.9")


def test_tor_of_an_unknown_host_raises():
    with pytest.raises(TopologyError, match="unknown host: tor0.1"):
        FatTreeGeometry(4).tor_of("tor0.1")


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_invalid_k_is_rejected(k):
    with pytest.raises(ConfigurationError):
        FatTreeGeometry(k)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_the_geometry_of_k_is_the_fat_tree_s(k):
    """Built from ``k`` (the flow tier) or read off ``build_fat_tree(k)``'s
    links (the packet tier): the same host order, ToRs, racks and pods, the
    same links between every host pair and from every switch to every
    target."""
    topology = build_fat_tree(k)
    counted, derived = FatTreeGeometry(k), FatTreeGeometry.of(topology)
    assert counted.hosts == derived.hosts == [h.name for h in topology.hosts]
    assert counted.cross_pod == derived.cross_pod == 6
    for host in counted.hosts:
        tor = counted.tor_of(host)
        assert tor == derived.tor_of(host) == topology.tor_of(host).name
        assert counted.rack_index(host) == derived.rack_index(host)
        assert counted.pod_index(host) == derived.pod_index(host)
        assert counted.tor_pod[tor] == topology.node(host).pod
    for a in counted.hosts:
        for b in counted.hosts:
            assert counted.hop_count(a, b) == derived.hop_count(a, b)
    targets = list(topology.nodes) + ["nowhere", None]
    for switch in (n.name for n in topology.switches):
        for target in targets:
            assert counted.distance(switch, target) == derived.distance(switch, target)


def test_a_topology_derives_one_geometry_per_wiring():
    topology = build_fat_tree(4)
    geometry = topology.derived(FatTreeGeometry.of)
    assert topology.derived(FatTreeGeometry.of) is geometry
    assert geometry.switch_pod["core0"] is None
    assert {geometry.switch_pod[n.name] for n in topology.by_kind(NodeKind.AGG)} == {
        0, 1, 2, 3
    }


def test_shared_geometry_is_one_per_k_and_bounded():
    shared_geometry.cache_clear()
    geometry = shared_geometry(4)
    assert shared_geometry(4) is geometry and shared_geometry(8) is not geometry
    for k in (2, 4, 6, 8, 10, 12):
        shared_geometry(k)
    assert 0 < shared_geometry.cache_info().currsize <= shared_geometry.cache_info().maxsize
