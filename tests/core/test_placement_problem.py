"""Tests for the placement-problem model: R matrix, loads, extra hops."""

import pytest

from repro.core.placement.problem import (
    OperatorSpec,
    PlacementProblem,
    build_operator_specs,
    estimate_traffic,
)
from repro.core.plan import make_traffic_groups
from repro.errors import ConfigurationError
from repro.network.fattree import build_fat_tree


@pytest.fixture(scope="module")
def topo():
    return build_fat_tree(4)


@pytest.fixture
def problem(topo):
    groups = make_traffic_groups(topo, ["host0.0.0", "host0.0.1", "host2.0.0"])
    operators = build_operator_specs(
        topo,
        accelerator_cores=1,
        accelerator_service_time=5e-6,
        max_utilization=0.5,
        work_per_request=2.0,
    )
    traffic = {g.group_id: (800.0, 150.0, 50.0) for g in groups}
    return PlacementProblem(
        groups=groups,
        operators=operators,
        traffic=traffic,
        extra_hops_budget=1000.0,
    )


class TestOperatorSpecs:
    def test_capacity_formula(self, topo):
        specs = build_operator_specs(
            topo,
            accelerator_cores=1,
            accelerator_service_time=5e-6,
            max_utilization=0.5,
            work_per_request=2.0,
        )
        # 0.5 * 1 / 5us = 100k packets/s; /2 work units = 50k requests/s.
        assert specs[0].capacity == pytest.approx(50_000.0)

    def test_one_spec_per_switch(self, topo):
        specs = build_operator_specs(
            topo,
            accelerator_cores=1,
            accelerator_service_time=5e-6,
            max_utilization=0.5,
        )
        assert len(specs) == len(topo.switches)
        assert len({s.operator_id for s in specs}) == len(specs)
        assert min(s.operator_id for s in specs) == 1

    def test_invalid_utilization(self, topo):
        with pytest.raises(ConfigurationError):
            build_operator_specs(
                topo,
                accelerator_cores=1,
                accelerator_service_time=5e-6,
                max_utilization=0.0,
            )

    def test_operator_id_positive(self):
        with pytest.raises(ConfigurationError):
            OperatorSpec(operator_id=0, switch="x", tier=0, pod=None, capacity=1.0)


class TestEligibility:
    def test_core_serves_everyone(self, problem):
        cores = [op for op in problem.operators if op.tier == 0]
        for group in problem.groups:
            for core in cores:
                assert problem.eligible(group, core)

    def test_agg_serves_own_pod_only(self, problem):
        group0 = next(g for g in problem.groups if g.pod == 0)
        group2 = next(g for g in problem.groups if g.pod == 2)
        aggs0 = [op for op in problem.operators if op.tier == 1 and op.pod == 0]
        for agg in aggs0:
            assert problem.eligible(group0, agg)
            assert not problem.eligible(group2, agg)

    def test_tor_serves_own_rack_only(self, problem):
        group = next(g for g in problem.groups if g.tor == "tor0.0")
        own = next(op for op in problem.operators if op.switch == "tor0.0")
        other = next(op for op in problem.operators if op.switch == "tor0.1")
        assert problem.eligible(group, own)
        assert not problem.eligible(group, other)

    def test_eligible_operator_count(self, problem):
        """cores + own-pod aggs + own ToR in a 4-ary fat-tree = 4 + 2 + 1."""
        assert problem.arrays.eligible[0].sum() == 7
        assert sum(problem.eligible(problem.groups[0], op) for op in problem.operators) == 7


class TestExtraHops:
    def test_own_tor_costs_nothing(self, problem):
        group = next(g for g in problem.groups if g.tor == "tor0.0")
        tor_op = next(op for op in problem.operators if op.switch == "tor0.0")
        assert problem.extra_hops_rate(group, tor_op) == 0.0

    def test_agg_costs_tier2_detour(self, problem):
        """h=1: only intra-rack traffic detours, 2 hops each."""
        group = next(g for g in problem.groups if g.pod == 0)
        agg = next(
            op for op in problem.operators if op.tier == 1 and op.pod == 0
        )
        # T2 = 50 -> 2 * 1 * 50 = 100 extra hops/s.
        assert problem.extra_hops_rate(group, agg) == pytest.approx(100.0)

    def test_core_costs_tier2_and_tier1_detours(self, problem):
        """h=2: intra-rack costs 4 each, intra-pod costs 2 each (paper ex.)."""
        group = problem.groups[0]
        core = next(op for op in problem.operators if op.tier == 0)
        # 4 * T2 + 2 * T1 = 4*50 + 2*150 = 500 extra hops/s.
        assert problem.extra_hops_rate(group, core) == pytest.approx(500.0)

    def test_tier0_traffic_never_detours(self, topo):
        groups = make_traffic_groups(topo, ["host0.0.0"])
        operators = build_operator_specs(
            topo,
            accelerator_cores=1,
            accelerator_service_time=5e-6,
            max_utilization=0.5,
        )
        traffic = {groups[0].group_id: (1000.0, 0.0, 0.0)}
        problem = PlacementProblem(
            groups=groups,
            operators=operators,
            traffic=traffic,
            extra_hops_budget=0.0,
        )
        core = next(op for op in operators if op.tier == 0)
        assert problem.extra_hops_rate(groups[0], core) == 0.0

    def test_plan_extra_hops_sums(self, problem):
        # host0.0.0 and host0.0.1 share a rack, so 3 clients form 2 groups.
        assert len(problem.groups) == 2
        core_op = next(op for op in problem.operators if op.tier == 0)
        assignments = {g.group_id: core_op.operator_id for g in problem.groups}
        assert problem.plan_extra_hops(assignments) == pytest.approx(1000.0)


class TestAssignmentChecks:
    def test_group_load(self, problem):
        assert problem.group_load(problem.groups[0].group_id) == pytest.approx(
            1000.0
        )
        assert problem.total_load() == pytest.approx(1000.0 * len(problem.groups))

    def test_check_rejects_ineligible(self, problem):
        group2 = next(g for g in problem.groups if g.pod == 2)
        agg0 = next(
            op for op in problem.operators if op.tier == 1 and op.pod == 0
        )
        with pytest.raises(ConfigurationError):
            problem.check_assignment({group2.group_id: agg0.operator_id})

    def test_check_rejects_overload(self, topo):
        groups = make_traffic_groups(topo, ["host0.0.0"])
        operators = build_operator_specs(
            topo,
            accelerator_cores=1,
            accelerator_service_time=5e-6,
            max_utilization=0.5,
        )
        traffic = {groups[0].group_id: (10**9, 0.0, 0.0)}
        problem = PlacementProblem(
            groups=groups,
            operators=operators,
            traffic=traffic,
            extra_hops_budget=10**12,
        )
        core = next(op for op in operators if op.tier == 0)
        with pytest.raises(ConfigurationError):
            problem.check_assignment({groups[0].group_id: core.operator_id})

    def test_check_rejects_hop_budget_violation(self, problem):
        problem.extra_hops_budget = 100.0
        core = next(op for op in problem.operators if op.tier == 0)
        assignments = {g.group_id: core.operator_id for g in problem.groups}
        with pytest.raises(ConfigurationError):
            problem.check_assignment(assignments)

    def test_missing_traffic_rejected(self, problem):
        with pytest.raises(ConfigurationError):
            PlacementProblem(
                groups=problem.groups,
                operators=problem.operators,
                traffic={},
                extra_hops_budget=1.0,
            )


class TestEstimateTraffic:
    def test_tier_mix_follows_server_locations(self, topo):
        groups = make_traffic_groups(topo, ["host0.0.0"])
        # 1 same-rack, 1 same-pod, 2 cross-pod servers.
        servers = ["host0.0.1", "host0.1.0", "host2.0.0", "host3.0.0"]
        traffic = estimate_traffic(
            groups,
            topology=topo,
            server_hosts=servers,
            group_rates={groups[0].group_id: 1000.0},
        )
        t0, t1, t2 = traffic[groups[0].group_id]
        assert t0 == pytest.approx(500.0)
        assert t1 == pytest.approx(250.0)
        assert t2 == pytest.approx(250.0)

    def test_rates_sum_to_group_rate(self, topo):
        groups = make_traffic_groups(topo, ["host0.0.0", "host1.0.0"])
        servers = ["host2.0.0", "host2.0.1", "host3.1.1"]
        rates = {g.group_id: 500.0 for g in groups}
        traffic = estimate_traffic(
            groups, topology=topo, server_hosts=servers, group_rates=rates
        )
        for g in groups:
            assert sum(traffic[g.group_id]) == pytest.approx(500.0)

    def test_requires_servers(self, topo):
        groups = make_traffic_groups(topo, ["host0.0.0"])
        with pytest.raises(ConfigurationError):
            estimate_traffic(
                groups, topology=topo, server_hosts=[], group_rates={}
            )
