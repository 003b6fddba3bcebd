"""Tests for deterministic ECMP routing, including waypoint steering."""

import pytest

from repro.errors import RoutingError
from repro.network.fattree import build_fat_tree
from repro.network.routing import Router
from repro.network.topology import NodeKind


@pytest.fixture(scope="module")
def topo():
    return build_fat_tree(4)


@pytest.fixture(scope="module")
def router(topo):
    return Router(topo)


def _assert_valid_path(topo, src, path, dst):
    """Every consecutive pair must be a real link; path ends at dst."""
    previous = src
    for node in path:
        assert node in topo.neighbors(previous), f"{previous} -/-> {node}"
        previous = node
    assert path[-1] == dst


class TestHostToHost:
    def test_same_rack(self, topo, router):
        path = router.path("host0.0.0", "host0.0.1", flow_key=7)
        assert path == ["tor0.0", "host0.0.1"]

    def test_same_pod_other_rack(self, topo, router):
        path = router.path("host0.0.0", "host0.1.0", flow_key=7)
        _assert_valid_path(topo, "host0.0.0", path, "host0.1.0")
        assert len(path) == 4  # tor, agg, tor, host
        assert topo.node(path[1]).kind is NodeKind.AGG

    def test_cross_pod(self, topo, router):
        path = router.path("host0.0.0", "host3.1.1", flow_key=7)
        _assert_valid_path(topo, "host0.0.0", path, "host3.1.1")
        assert len(path) == 6  # tor, agg, core, agg, tor, host
        kinds = [topo.node(n).kind for n in path[:-1]]
        assert kinds == [
            NodeKind.TOR,
            NodeKind.AGG,
            NodeKind.CORE,
            NodeKind.AGG,
            NodeKind.TOR,
        ]

    def test_self_path_empty(self, router):
        assert router.path("host0.0.0", "host0.0.0", flow_key=1) == []

    def test_deterministic_per_flow(self, router):
        a = router.path("host0.0.0", "host3.1.1", flow_key=123)
        b = router.path("host0.0.0", "host3.1.1", flow_key=123)
        assert a == b

    def test_ecmp_uses_multiple_paths(self, router):
        paths = {
            tuple(router.path("host0.0.0", "host3.1.1", flow_key=k))
            for k in range(64)
        }
        assert len(paths) > 1

    def test_all_pairs_valid(self, topo, router):
        hosts = [h.name for h in topo.hosts]
        for src in hosts[:4]:
            for dst in hosts:
                if src == dst:
                    continue
                path = router.path(src, dst, flow_key=11)
                _assert_valid_path(topo, src, path, dst)


class TestWaypoints:
    def test_tor_to_own_pod_agg(self, topo, router):
        path = router.path("tor0.0", "agg0.1", flow_key=5)
        assert path == ["agg0.1"]

    def test_tor_to_core(self, topo, router):
        for core in topo.by_kind(NodeKind.CORE):
            path = router.path("tor0.0", core.name, flow_key=5)
            _assert_valid_path(topo, "tor0.0", path, core.name)
            assert len(path) == 2  # agg, core

    def test_tor_to_remote_tor(self, topo, router):
        path = router.path("tor0.0", "tor3.1", flow_key=5)
        _assert_valid_path(topo, "tor0.0", path, "tor3.1")
        assert len(path) == 4  # agg, core, agg, tor

    def test_tor_to_same_pod_tor(self, topo, router):
        path = router.path("tor0.0", "tor0.1", flow_key=5)
        _assert_valid_path(topo, "tor0.0", path, "tor0.1")
        assert len(path) == 2  # agg, tor

    def test_tor_to_cross_pod_agg(self, topo, router):
        """Responses heading to an RSNode aggregation in another pod."""
        path = router.path("tor2.1", "agg0.1", flow_key=9)
        _assert_valid_path(topo, "tor2.1", path, "agg0.1")
        # Must climb via the same-index aggregation switch (shared core group).
        assert len(path) == 3  # agg, core, agg

    def test_agg_to_host_same_pod(self, topo, router):
        path = router.path("agg0.0", "host0.1.1", flow_key=3)
        _assert_valid_path(topo, "agg0.0", path, "host0.1.1")
        assert len(path) == 2  # tor, host

    def test_agg_to_host_cross_pod(self, topo, router):
        path = router.path("agg0.0", "host2.0.0", flow_key=3)
        _assert_valid_path(topo, "agg0.0", path, "host2.0.0")
        assert len(path) == 4  # core, agg, tor, host

    def test_core_to_host(self, topo, router):
        for core in topo.by_kind(NodeKind.CORE):
            path = router.path(core.name, "host1.0.1", flow_key=3)
            _assert_valid_path(topo, core.name, path, "host1.0.1")
            assert len(path) == 3  # agg, tor, host

    def test_core_to_tor(self, topo, router):
        path = router.path("core0", "tor2.0", flow_key=1)
        _assert_valid_path(topo, "core0", path, "tor2.0")

    def test_agg_to_unconnected_core_raises(self, topo, router):
        # agg0.0 connects to core group 0 (core0, core1) in a 4-ary fat-tree.
        connected = set(topo.uplinks("agg0.0"))
        unconnected = next(
            c.name for c in topo.by_kind(NodeKind.CORE) if c.name not in connected
        )
        with pytest.raises(RoutingError):
            router.path("agg0.0", unconnected, flow_key=0)

    def test_agg_to_agg_raises(self, router):
        with pytest.raises(RoutingError):
            router.path("agg0.0", "agg0.1", flow_key=0)

    def test_core_to_core_raises(self, router):
        with pytest.raises(RoutingError):
            router.path("core0", "core1", flow_key=0)


class TestHopCount:
    def test_paper_worked_example(self, router):
        """Intra-rack default path is 1 forwarding; via a core it is 5."""
        assert router.hop_count("host0.0.0", "host0.0.1") == 1
        via_core = router.path("host0.0.0", "core0", flow_key=0) + router.path(
            "core0", "host0.0.1", flow_key=0
        )
        switch_hops = sum(1 for n in via_core if not n.startswith("host"))
        assert switch_hops == 5  # extra hops = 5 - 1 = 4, as in the paper

    def test_same_pod_hop_count(self, router):
        assert router.hop_count("host0.0.0", "host0.1.0") == 3

    def test_cross_pod_hop_count(self, router):
        assert router.hop_count("host0.0.0", "host1.0.0") == 5

    def test_tor_of_cached(self, router):
        assert router.tor_of("host2.1.0") == "tor2.1"


class TestPathCache:
    def test_cached_vs_uncached_identical(self, topo):
        """The memoized router must return bit-identical ECMP paths."""
        cached = Router(topo)
        uncached = Router(topo, path_cache_size=0)
        hosts = [h.name for h in topo.hosts]
        for src in hosts[:6]:
            for dst in hosts[:6]:
                for flow_key in (0, 7, 12345):
                    assert cached.path(src, dst, flow_key) == uncached.path(
                        src, dst, flow_key
                    )
                    assert cached.hop_count(src, dst, flow_key) == uncached.hop_count(
                        src, dst, flow_key
                    )

    def test_negative_cache_size_rejected(self, topo):
        with pytest.raises(ValueError):
            Router(topo, path_cache_size=-1)

    def test_flow_key_part_of_cache_key(self, topo):
        """Different flows may take different ECMP paths; the cache must
        never conflate them."""
        router = Router(topo)
        uncached = Router(topo, path_cache_size=0)
        for flow_key in range(64):
            assert router.path("host0.0.0", "host3.1.1", flow_key) == uncached.path(
                "host0.0.0", "host3.1.1", flow_key
            )


class TestInvalidationAndLinkFaults:
    """The dynamic-liveness contract: fail_link, reroute, restore_link."""

    def test_failed_link_entries_invalidated_not_bypassed(self, topo):
        """The regression this API exists for: entries cached *before* a
        failure must not keep routing packets into the dead link."""
        router = Router(topo)
        # Warm the cache across every flow-key equivalence class.
        for flow_key in range(64):
            router.path("host0.0.0", "host3.1.1", flow_key)
        dead_agg = router.path("host0.0.0", "host3.1.1", 9)[1]
        router.fail_link("tor0.0", dead_agg)
        for flow_key in range(64):
            path = router.path("host0.0.0", "host3.1.1", flow_key)
            _assert_valid_path(topo, "host0.0.0", path, "host3.1.1")
            assert path[1] != dead_agg, f"flow {flow_key} crossed the cut"

    def test_reroute_matches_uncached(self, topo):
        cached = Router(topo)
        uncached = Router(topo, path_cache_size=0)
        for r in (cached, uncached):
            r.fail_link("tor0.0", "agg0.0")
        for flow_key in range(64):
            assert cached.path("host0.0.0", "host3.1.1", flow_key) == uncached.path(
                "host0.0.0", "host3.1.1", flow_key
            )

    def test_restore_returns_to_canonical_paths(self, topo):
        router = Router(topo)
        pristine = Router(topo)
        canonical = {
            k: pristine.path("host0.0.0", "host3.1.1", k) for k in range(64)
        }
        router.fail_link("tor0.0", "agg0.0")
        for k in range(64):
            router.path("host0.0.0", "host3.1.1", k)
        router.restore_link("tor0.0", "agg0.0")
        assert not router._failed_links
        # Detours were flushed; the canonical masked-key universe rebuilds.
        for k in range(64):
            assert router.path("host0.0.0", "host3.1.1", k) == canonical[k]

    def test_no_alternative_heads_into_dead_link(self, topo):
        """A cut access link has no detour: the path still crosses it and
        the fabric (not the router) is responsible for the drop."""
        router = Router(topo)
        router.fail_link("host3.1.1", "tor3.1")
        path = router.path("host0.0.0", "host3.1.1", flow_key=5)
        assert path[-2:] == ["tor3.1", "host3.1.1"]

    def test_intra_pod_avoids_dead_descent_link(self, topo):
        """The intra-pod agg choice checks both edges (climb and descent),
        so a dead agg->ToR link steers every flow through the other agg."""
        router = Router(topo)
        router.fail_link("agg0.0", "tor0.1")
        for flow_key in range(64):
            path = router.path("host0.0.0", "host0.1.0", flow_key)
            _assert_valid_path(topo, "host0.0.0", path, "host0.1.0")
            assert ("agg0.0", "tor0.1") not in zip(path, path[1:])

    def test_singleton_descent_has_no_detour(self, topo):
        """In a 4-ary fat tree each core reaches a pod through exactly one
        aggregation switch, so a dead agg->ToR link on the descent leaves
        flows pinned to that core heading into the cut (the fabric drops
        them) -- the documented local link-state model, not a bug."""
        router = Router(topo)
        router.fail_link("agg3.0", "tor3.1")
        paths = [router.path("host0.0.0", "host3.1.1", k) for k in range(64)]
        via_dead = [p for p in paths if ("agg3.0", "tor3.1") in zip(p, p[1:])]
        via_live = [p for p in paths if p not in via_dead]
        assert via_dead and via_live  # both core classes still chosen

    def test_fault_free_router_unaffected(self, topo):
        """With no failed links the liveness machinery must be inert."""
        plain = Router(topo)
        exercised = Router(topo)
        exercised.fail_link("tor0.0", "agg0.0")
        exercised.restore_link("tor0.0", "agg0.0")
        hosts = [h.name for h in topo.hosts]
        for src in hosts[:4]:
            for dst in hosts[:4]:
                for flow_key in (0, 7, 12345):
                    assert plain.path(src, dst, flow_key) == exercised.path(
                        src, dst, flow_key
                    )
