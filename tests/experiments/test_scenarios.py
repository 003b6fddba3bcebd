"""Tests for scenario construction."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.network.addressing import TIER_TOR


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
