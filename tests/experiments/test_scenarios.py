"""Tests for scenario construction."""

import gc

import pytest

from repro.errors import TopologyError
from repro.experiments import scenarios
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.kvstore import hashing
from repro.mesoscale import FlowEngine, VectorFlowEngine
from repro.network import fabric, fattree, geometry
from repro.network.addressing import TIER_TOR
from repro.network.topology import Node, NodeKind
from tests.mesoscale.test_event_budget import SETUP_CEILINGS, _fingerprint


class TestRoles:
    def test_one_role_per_host(self):
        scenario = build_scenario(ExperimentConfig.tiny(seed=1))
        assert not set(scenario.client_hosts) & set(scenario.server_hosts)
        assert len(scenario.client_hosts) == scenario.config.n_clients
        assert len(scenario.server_hosts) == scenario.config.n_servers

    def test_placement_depends_on_seed(self):
        a = build_scenario(ExperimentConfig.tiny(seed=1))
        b = build_scenario(ExperimentConfig.tiny(seed=2))
        assert a.client_hosts != b.client_hosts

    def test_placement_reproducible(self):
        a = build_scenario(ExperimentConfig.tiny(seed=1))
        b = build_scenario(ExperimentConfig.tiny(seed=1))
        assert a.client_hosts == b.client_hosts
        assert a.server_hosts == b.server_hosts


class TestWiring:
    def test_clirs_has_no_accelerators(self):
        scenario = build_scenario(ExperimentConfig.tiny(scheme="clirs"))
        assert scenario.accelerators() == []
        assert scenario.controller is None
        assert scenario.plan is None

    def test_netrs_has_accelerators_everywhere(self):
        scenario = build_scenario(ExperimentConfig.tiny(scheme="netrs-tor"))
        assert len(scenario.accelerators()) == len(scenario.switches)

    def test_netrs_tor_plan_uses_client_tors(self):
        scenario = build_scenario(ExperimentConfig.tiny(scheme="netrs-tor", seed=2))
        plan = scenario.plan
        client_tors = {
            scenario.topology.tor_of(h).name for h in scenario.client_hosts
        }
        rsnode_switches = {
            scenario.controller.operators[oid].spec.switch
            for oid in plan.rsnode_ids
        }
        assert rsnode_switches == client_tors

    def test_netrs_ilp_plan_is_smaller_than_tor(self):
        tor = build_scenario(ExperimentConfig.tiny(scheme="netrs-tor", seed=2))
        ilp = build_scenario(ExperimentConfig.tiny(scheme="netrs-ilp", seed=2))
        assert ilp.plan.rsnode_count <= tor.plan.rsnode_count

    def test_ilp_plan_shape_matches_paper(self):
        """Section V-B's example ILP plan is "6 RSNodes on aggregation
        switches and 1 on a core switch".  On the small profile the plan has
        the same shape: far fewer RSNodes than racks with clients, and not
        all of them on the ToR tier."""
        scenario = build_scenario(
            ExperimentConfig.small(scheme="netrs-ilp", seed=1, total_requests=100)
        )
        operators = scenario.controller.operators
        tiers = [operators[oid].spec.tier for oid in scenario.plan.rsnode_ids]
        client_racks = {
            scenario.topology.tor_of(h).name for h in scenario.client_hosts
        }
        assert scenario.plan.rsnode_count < len(client_racks)
        assert any(tier != TIER_TOR for tier in tiers)

    @pytest.mark.parametrize("granularity", ["rack", 2, "host"], ids=str)
    def test_every_group_granularity_runs(self, granularity):
        config = ExperimentConfig.tiny(
            scheme="netrs-ilp", seed=1, group_granularity=granularity
        )
        result = run_experiment(config, keep_scenario=True)
        assert result.completed_requests == config.total_requests
        assert len(result.scenario.groups) >= result.rsnode_count

    def test_monitors_on_client_tors(self):
        scenario = build_scenario(ExperimentConfig.tiny(scheme="netrs-ilp"))
        client_tors = {
            scenario.topology.tor_of(h).name for h in scenario.client_hosts
        }
        assert set(scenario.controller.monitors) == client_tors
        for name in client_tors:
            assert scenario.switches[name].monitor is not None

    def test_clients_configured_for_scheme(self):
        netrs = build_scenario(ExperimentConfig.tiny(scheme="netrs-ilp"))
        assert all(c.netrs for c in netrs.clients)
        plain = build_scenario(ExperimentConfig.tiny(scheme="clirs-r95"))
        assert all(not c.netrs for c in plain.clients)
        assert all(c.redundancy is not None for c in plain.clients)

    def test_ring_spans_server_hosts(self):
        scenario = build_scenario(ExperimentConfig.tiny(seed=5))
        assert sorted(scenario.ring.servers) == scenario.server_hosts

    def test_host_granularity_makes_per_host_groups(self):
        scenario = build_scenario(
            ExperimentConfig.tiny(scheme="netrs-ilp", group_granularity="host")
        )
        assert len(scenario.groups) == scenario.config.n_clients


def _empty_memos():
    """Empty every process-wide memo a build reads."""
    fattree.shared_fat_tree.cache_clear()
    hashing._shared_ring.cache_clear()
    geometry.shared_geometry.cache_clear()


class TestSharedTree:
    """A process builds a packet scenario's fat tree, its geometry and its
    router index once; what a run changes stays each scenario's own."""

    def test_two_builds_share_the_tree_and_index_but_no_run_state(self):
        _empty_memos()
        config = ExperimentConfig.tiny(seed=2)
        first, second = build_scenario(config), build_scenario(config.replace(seed=3))
        assert first.topology is second.topology and first.topology.frozen
        assert first.network.geometry is second.network.geometry
        a, b = first.network.router, second.network.router
        assert a.index is b.index
        assert a._routes is not b._routes
        assert a._failed_links is not b._failed_links
        first.network.fail_link("tor0.0", "agg0.0")
        assert a._failed_links and not b._failed_links
        assert first.network is not second.network
        assert first.network._distances is not second.network._distances

    def test_a_shared_tree_refuses_a_new_link(self):
        _empty_memos()
        topology = build_scenario(ExperimentConfig.tiny()).topology
        links = {name: topology.neighbors(name) for name in topology.nodes}
        with pytest.raises(TopologyError, match="frozen"):
            topology.add_link("tor0.0", "core0")
        with pytest.raises(TopologyError, match="frozen"):
            topology.add_node(Node(name="spare", kind=NodeKind.CORE))
        assert {name: topology.neighbors(name) for name in topology.nodes} == links

    def test_a_link_fault_leaves_the_next_build_as_if_cold(self):
        """A run that cuts a link of the shared tree, then a fault-free run
        over the same tree, reports what the fault-free run does in a process
        that never built anything.  The fault-free run forwards hop by hop
        (``track_links``), so it walks the router on every send."""
        clean = ExperimentConfig.small(scheme="clirs", seed=0, total_requests=1500)

        def hop_by_hop():
            scenario = build_scenario(clean)
            scenario.network.track_links()
            result = run_experiment(clean, scenario=scenario)
            return _fingerprint(result), scenario.network.link_packets

        _empty_memos()
        cold = hop_by_hop()
        _empty_memos()
        faulty = run_experiment(
            clean.replace(
                fault_schedule="link-down@0.005:tor0.0/agg0.0",
                request_timeout=0.02,
                max_retries=3,
            )
        )
        assert faulty.packets_dropped > 0
        assert hop_by_hop() == cold

    @pytest.mark.parametrize(
        "cell", ["pkt-clirs-r95", "pkt-netrs-ilp", "pkt-quorum-churn"]
    )
    def test_a_warm_build_reports_what_a_cold_one_does(self, cell):
        config = ExperimentConfig.small(seed=0, **SETUP_CEILINGS[cell][0])
        _empty_memos()
        cold = _fingerprint(run_experiment(config))
        assert fattree.shared_fat_tree.cache_info().currsize  # the cold run filled it
        assert _fingerprint(run_experiment(config)) == cold


def _count_routers(monkeypatch):
    """A list that gains an entry for every ``Router`` a fabric builds."""
    built = []
    real = fabric.Router

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fabric, "Router", counted)
    return built


#: The fault-free packet cells: every leg is priced by the geometry.
FAULT_FREE = {
    "clirs": dict(scheme="clirs"),
    "clirs-r95": dict(scheme="clirs-r95"),
    "netrs-tor": dict(scheme="netrs-tor", n_clients=32),
    "netrs-ilp": dict(scheme="netrs-ilp", n_clients=32),
    "pkt-quorum-churn": SETUP_CEILINGS["pkt-quorum-churn"][0],
}

#: The link-cut drill of docs/FAULTS.md and ``make faults-smoke``.
LINK_CUT = dict(
    scheme="netrs-ilp",
    total_requests=4000,
    fault_schedule="link-down@0.02:tor0.0/agg0.0;link-up@0.06:tor0.0/agg0.0",
    request_timeout=0.02,
    max_retries=5,
)


class TestARouterOnlyWhereAPacketIsWalked:
    """A fabric builds its ECMP router the first time something needs a
    walk; a fault-free express fabric prices every leg by the geometry."""

    @pytest.mark.parametrize("cell", sorted(FAULT_FREE))
    def test_a_fault_free_build_and_run_make_no_router(self, cell, monkeypatch):
        built = _count_routers(monkeypatch)
        config = ExperimentConfig.small(
            seed=0, **dict(FAULT_FREE[cell], total_requests=1500)
        )
        scenario = build_scenario(config)
        run_experiment(config, scenario=scenario)
        assert built == [] and scenario.network._router is None

    @pytest.mark.parametrize(
        "faults",
        [
            dict(
                fault_schedule="link-down@0.01:tor0.0/agg0.0",
                request_timeout=0.02,
                max_retries=3,
            ),
            dict(fault_schedule="rsnode-down@0.01:busiest"),
        ],
        ids=["link-down", "rsnode-down"],
    )
    def test_a_faulty_build_makes_one(self, faults, monkeypatch):
        built = _count_routers(monkeypatch)
        config = ExperimentConfig.small(
            scheme="netrs-ilp", n_clients=32, seed=0, total_requests=1500, **faults
        )
        scenario = build_scenario(config)
        assert len(built) == 1
        run_experiment(config, scenario=scenario)
        assert len(built) == 1

    def test_tracking_links_makes_one(self, monkeypatch):
        built = _count_routers(monkeypatch)
        config = ExperimentConfig.small(scheme="clirs", seed=0, total_requests=1500)
        scenario = build_scenario(config)
        assert built == []
        scenario.network.track_links()
        assert len(built) == 1
        run_experiment(config, scenario=scenario)
        assert len(built) == 1 and scenario.network.link_packets

    def test_a_link_cut_with_no_live_climber_loses_nothing(self):
        """A response steered from ``tor0.0`` to an RSNode in another pod
        finds no live climber sharing a core with the RSNode: the walk takes
        the cut link and the fabric drops the packet, and the client's retry
        recovers the request (``make faults-smoke``, docs/FAULTS.md)."""
        result = run_experiment(ExperimentConfig.small(seed=0, **LINK_CUT))
        assert result.faults_injected == 2
        assert result.requests_lost == 0
        assert result.packets_dropped == 59 and result.retries > 0


def test_a_build_parks_the_collector_and_restores_it(monkeypatch):
    """``build_scenario`` and the flow engines' constructors run with the
    cyclic collector off and leave it as they found it."""
    seen = []
    real = scenarios.assign_roles

    def spying(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(scenarios, "assign_roles", spying)
    config = ExperimentConfig.tiny(scheme="clirs", seed=1)
    flow = config.replace(fidelity="flow")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            build_scenario(config)
            FlowEngine(flow).teardown()
            VectorFlowEngine(flow, vector_batch=64).teardown()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False] * 6
