"""Tests for the generic tree topology."""

import dataclasses

import pytest

from repro.errors import TopologyError
from repro.network.topology import (
    KIND_TIER,
    Node,
    NodeKind,
    Topology,
    build_tree,
    iter_rack_ids,
)


@pytest.fixture
def small_tree():
    return build_tree(
        pods=2, racks_per_pod=2, hosts_per_rack=3, aggs_per_pod=2, cores=4
    )


class TestBuildTree:
    def test_element_counts(self, small_tree):
        assert len(small_tree.by_kind(NodeKind.CORE)) == 4
        assert len(small_tree.by_kind(NodeKind.AGG)) == 4
        assert len(small_tree.by_kind(NodeKind.TOR)) == 4
        assert len(small_tree.hosts) == 12
        assert len(small_tree.switches) == 12

    def test_validates(self, small_tree):
        small_tree.validate()

    def test_dimension_validation(self):
        with pytest.raises(TopologyError):
            build_tree(
                pods=0, racks_per_pod=1, hosts_per_rack=1, aggs_per_pod=1, cores=1
            )

    def test_core_links_bounds(self):
        with pytest.raises(TopologyError):
            build_tree(
                pods=1,
                racks_per_pod=1,
                hosts_per_rack=1,
                aggs_per_pod=1,
                cores=2,
                core_links_per_agg=3,
            )

    def test_every_host_has_one_tor(self, small_tree):
        for host in small_tree.hosts:
            tor = small_tree.tor_of(host.name)
            assert tor.kind is NodeKind.TOR
            assert tor.pod == host.pod and tor.rack == host.rack

    def test_tor_connects_to_all_pod_aggs(self, small_tree):
        for tor in small_tree.by_kind(NodeKind.TOR):
            uplinks = small_tree.uplinks(tor.name)
            assert sorted(uplinks) == sorted(
                a.name for a in small_tree.aggs_in_pod(tor.pod)
            )

    def test_partial_core_wiring(self):
        topo = build_tree(
            pods=2,
            racks_per_pod=1,
            hosts_per_rack=1,
            aggs_per_pod=2,
            cores=4,
            core_links_per_agg=2,
        )
        for agg in topo.by_kind(NodeKind.AGG):
            assert len(topo.uplinks(agg.name)) == 2


class TestTopologyQueries:
    def test_unknown_node_raises(self, small_tree):
        with pytest.raises(TopologyError):
            small_tree.node("nonexistent")

    def test_duplicate_node_raises(self, small_tree):
        with pytest.raises(TopologyError):
            small_tree.add_node(Node(name="core0", kind=NodeKind.CORE))

    def test_duplicate_link_raises(self, small_tree):
        with pytest.raises(TopologyError):
            small_tree.add_link("host0.0.0", "tor0.0")

    def test_link_unknown_node_raises(self, small_tree):
        with pytest.raises(TopologyError):
            small_tree.add_link("core0", "ghost")

    def test_tor_of_non_host_raises(self, small_tree):
        with pytest.raises(TopologyError):
            small_tree.tor_of("core0")

    def test_hosts_under(self, small_tree):
        hosts = small_tree.hosts_under("tor1.0")
        assert len(hosts) == 3
        assert all(h.pod == 1 and h.rack == 0 for h in hosts)

    def test_hosts_under_non_tor_raises(self, small_tree):
        with pytest.raises(TopologyError):
            small_tree.hosts_under("agg0.0")

    def test_tiers(self, small_tree):
        assert small_tree.node("core0").tier == 0
        assert small_tree.node("agg0.0").tier == 1
        assert small_tree.node("tor0.0").tier == 2
        assert small_tree.node("host0.0.0").tier == 3

    def test_downlinks(self, small_tree):
        downs = small_tree.downlinks("agg0.0")
        assert sorted(downs) == ["tor0.0", "tor0.1"]

    def test_iter_rack_ids(self, small_tree):
        assert sorted(iter_rack_ids(small_tree)) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]


class TestValidation:
    def test_tier_skipping_link_detected(self):
        topo = Topology()
        topo.add_node(Node(name="c", kind=NodeKind.CORE))
        topo.add_node(Node(name="t", kind=NodeKind.TOR, pod=0, rack=0))
        topo.add_link("c", "t")
        with pytest.raises(TopologyError):
            topo.validate()

    def test_orphan_host_detected(self):
        topo = Topology()
        topo.add_node(Node(name="h", kind=NodeKind.HOST, pod=0, rack=0))
        with pytest.raises(TopologyError):
            topo.validate()


class TestStoredTierAndDerivedIndexes:
    @pytest.mark.parametrize("kind", list(NodeKind))
    def test_a_node_stores_its_kind_s_tier(self, kind):
        node = Node(name="n", kind=kind, pod=0, rack=0)
        assert node.tier == KIND_TIER[kind]
        assert "tier" in Node.__slots__
        assert dataclasses.replace(node, kind=NodeKind.AGG).tier == 1
        assert node == Node(name="n", kind=kind, pod=0, rack=0)

    def test_a_derived_value_is_built_once_per_wiring(self, small_tree):
        built = []

        def count_hosts(topology):
            built.append(1)
            return len(topology.hosts)

        assert small_tree.derived(count_hosts) == 12
        assert small_tree.derived(count_hosts) == 12
        assert len(built) == 1
        small_tree.add_node(Node(name="host9.9.9", kind=NodeKind.HOST, pod=1, rack=0))
        assert small_tree.derived(count_hosts) == 13
        assert len(built) == 2

    def test_a_frozen_topology_refuses_changes_and_keeps_what_it_derived(
        self, small_tree
    ):
        def count_switches(topology):
            return len(topology.switches)

        derived = small_tree.derived(count_switches)
        assert small_tree.freeze() is small_tree and small_tree.frozen
        with pytest.raises(TopologyError, match="frozen"):
            small_tree.add_node(Node(name="core9", kind=NodeKind.CORE))
        with pytest.raises(TopologyError, match="frozen"):
            small_tree.add_link("tor0.0", "core0")
        assert "core9" not in small_tree.nodes
        assert "core0" not in small_tree.neighbors("tor0.0")
        assert small_tree.derived(count_switches) == derived
        assert small_tree._derived == {count_switches: derived}
