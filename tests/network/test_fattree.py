"""Tests for the k-ary fat-tree builder."""

import pytest

from repro.errors import TopologyError
from repro.network.fattree import build_fat_tree, fat_tree_dimensions, shared_fat_tree
from repro.network.topology import NodeKind


class TestFatTree:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_dimensions(self, k):
        topo = build_fat_tree(k)
        dims = fat_tree_dimensions(k)
        assert len(topo.hosts) == dims["hosts"]
        assert len(topo.by_kind(NodeKind.TOR)) == dims["tor_switches"]
        assert len(topo.by_kind(NodeKind.AGG)) == dims["agg_switches"]
        assert len(topo.by_kind(NodeKind.CORE)) == dims["core_switches"]

    def test_paper_scale(self):
        dims = fat_tree_dimensions(16)
        assert dims["hosts"] == 1024
        assert dims["pods"] == 16
        assert dims["core_switches"] == 64

    def test_odd_arity_rejected(self):
        with pytest.raises(TopologyError):
            build_fat_tree(3)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            build_fat_tree(0)

    def test_structure_validates(self):
        build_fat_tree(4).validate()

    def test_agg_core_degree(self):
        k = 4
        topo = build_fat_tree(k)
        for agg in topo.by_kind(NodeKind.AGG):
            assert len(topo.uplinks(agg.name)) == k // 2

    def test_core_groups_disjoint(self):
        """Aggregation switch a of every pod wires to the same core group."""
        k = 4
        topo = build_fat_tree(k)
        groups = {}
        for agg in topo.by_kind(NodeKind.AGG):
            cores = frozenset(topo.uplinks(agg.name))
            groups.setdefault(agg.index, set()).add(cores)
        # Same index -> same cores across pods; different indexes -> disjoint.
        per_index = {i: next(iter(s)) for i, s in groups.items()}
        assert all(len(s) == 1 for s in groups.values())
        assert per_index[0].isdisjoint(per_index[1])

    def test_every_core_reaches_every_pod(self):
        k = 4
        topo = build_fat_tree(k)
        for core in topo.by_kind(NodeKind.CORE):
            pods = {topo.node(n).pod for n in topo.downlinks(core.name)}
            assert pods == set(range(k))

    def test_hosts_per_rack(self):
        k = 8
        topo = build_fat_tree(k)
        for tor in topo.by_kind(NodeKind.TOR):
            assert len(topo.hosts_under(tor.name)) == k // 2


class TestSharedFatTree:
    def test_one_frozen_tree_per_k(self):
        shared_fat_tree.cache_clear()
        tree = shared_fat_tree(4)
        assert shared_fat_tree(4) is tree and tree.frozen
        assert shared_fat_tree(8) is not tree
        fresh = build_fat_tree(4)
        assert not fresh.frozen
        assert tree.nodes == fresh.nodes
        assert {n: tree.neighbors(n) for n in tree.nodes} == {
            n: fresh.neighbors(n) for n in fresh.nodes
        }

    def test_a_shared_tree_refuses_a_new_link(self):
        shared_fat_tree.cache_clear()
        with pytest.raises(TopologyError, match="frozen"):
            shared_fat_tree(4).add_link("tor0.0", "core0")
        assert "core0" not in shared_fat_tree(4).neighbors("tor0.0")

    def test_the_memo_is_bounded(self):
        shared_fat_tree.cache_clear()
        for k in (2, 4, 6, 8, 10, 12):
            shared_fat_tree(k)
        info = shared_fat_tree.cache_info()
        assert 0 < info.currsize <= info.maxsize
