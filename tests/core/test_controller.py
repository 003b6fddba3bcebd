"""Tests for the NetRS controller: planning, deployment, DRS, failures.

These use the scenario builder at tiny scale so the controller is exercised
against real switches, monitors and operators.
"""

import dataclasses

import pytest

from repro.core.placement import solve_greedy
from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.network.packet import RSNODE_ILLEGAL


@pytest.fixture
def scenario():
    config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=3)
    return build_scenario(config)


class TestInitialDeployment:
    def test_plan_deployed(self, scenario):
        controller = scenario.controller
        assert controller is not None
        assert controller.current_plan is not None
        assert controller.deployments == 1
        assert scenario.plan.rsnode_count >= 1

    def test_every_group_has_a_rule(self, scenario):
        controller = scenario.controller
        for group in controller.groups:
            tor = scenario.switches[group.tor]
            assert tor.rsnode_of_group(group.group_id) is not None

    def test_active_operators_have_selectors(self, scenario):
        controller = scenario.controller
        active = set(controller.current_plan.assignments.values())
        for op_id, operator in controller.operators.items():
            if op_id in active:
                assert operator.active
                assert operator.selector is not None
            else:
                assert not operator.active

    def test_group_tables_installed(self, scenario):
        controller = scenario.controller
        for group in controller.groups:
            tor = scenario.switches[group.tor]
            for host in group.hosts:
                assert tor._group_of_host[host] == group.group_id

    def test_concurrency_weight_matches_rsnode_count(self, scenario):
        controller = scenario.controller
        n = controller.current_plan.rsnode_count
        for operator in controller.operators.values():
            if operator.active:
                assert operator.selector.algorithm.concurrency_weight == n


class TestRedeployment:
    def test_redeploy_keeps_warm_selectors(self, scenario):
        controller = scenario.controller
        plan = controller.current_plan
        warm = {
            op_id: controller.operators[op_id].selector
            for op_id in plan.assignments.values()
        }
        controller.deploy(plan)
        for op_id, selector in warm.items():
            assert controller.operators[op_id].selector is selector

    def test_plan_change_deactivates_dropped_operators(self, scenario):
        controller = scenario.controller
        plan = controller.current_plan
        active = sorted(set(plan.assignments.values()))
        # Force everything onto the first active operator if it fits; build
        # a synthetic plan reusing the ILP's operator as the single RSNode.
        target = active[0]
        from repro.core.plan import SelectionPlan

        eligible_groups = [
            g
            for g in controller.groups
            if controller.build_problem(
                {x.group_id: (1.0, 0.0, 0.0) for x in controller.groups}
            ).eligible(
                g,
                controller.operators[target].spec,
            )
        ]
        if len(eligible_groups) != len(controller.groups):
            pytest.skip("first operator not eligible for all groups")
        new_plan = SelectionPlan(
            assignments={g.group_id: target for g in controller.groups}
        )
        controller.deploy(new_plan)
        for op_id, operator in controller.operators.items():
            assert operator.active == (op_id == target)


class TestDegradation:
    def test_degrade_groups_installs_illegal_id(self, scenario):
        controller = scenario.controller
        group = controller.groups[0]
        controller.degrade_groups([group.group_id])
        tor = scenario.switches[group.tor]
        assert tor.rsnode_of_group(group.group_id) == RSNODE_ILLEGAL
        assert group.group_id in controller.current_plan.drs_groups

    def test_unknown_group_rejected(self, scenario):
        with pytest.raises(ConfigurationError):
            scenario.controller.degrade_groups([999])

    def test_operator_failure_degrades_its_groups(self, scenario):
        controller = scenario.controller
        plan = controller.current_plan
        victim = plan.rsnode_ids[0]
        groups = plan.groups_of(victim)
        controller.handle_operator_failure(victim)
        assert controller.operators[victim].switch.failed
        assert controller.failures_handled == 1
        for group_id in groups:
            group = controller.groups_by_id[group_id]
            tor = scenario.switches[group.tor]
            assert tor.rsnode_of_group(group_id) == RSNODE_ILLEGAL

    def test_recover_operator(self, scenario):
        controller = scenario.controller
        victim = controller.current_plan.rsnode_ids[0]
        controller.handle_operator_failure(victim)
        controller.recover_operator(victim)
        assert not controller.operators[victim].switch.failed

    def test_overload_check_noop_when_idle(self, scenario):
        controller = scenario.controller
        assert controller.check_overloads(max_utilization=0.5) == []
        assert controller.overloads_handled == 0


class TestPlanningWithDrs:
    def test_infeasible_traffic_degrades_hot_groups(self, scenario):
        controller = scenario.controller
        # Give one group an impossible rate: it must end up degraded.
        traffic = {
            g.group_id: (10.0, 1.0, 1.0) for g in controller.groups
        }
        hot = controller.groups[0].group_id
        traffic[hot] = (10**9, 0.0, 0.0)
        plan = controller.plan(traffic)
        assert hot in plan.drs_groups
        assert set(plan.assignments) == {
            g.group_id for g in controller.groups if g.group_id != hot
        }


    def test_greedy_failing_inside_the_ilp_degrades_no_group(self, scenario):
        """solve_ilp runs greedy first; where greedy cannot place a group and
        HiGHS can, the plan deploys whole."""
        controller = scenario.controller
        first, second = (g for g in controller.groups if g.pod == 2)
        agg = next(
            op.spec for op in controller.operators.values()
            if op.spec.tier == 1 and op.spec.pod == 2
        )
        tor = next(
            op.spec for op in controller.operators.values()
            if op.spec.switch == first.tor
        )
        # Two 40k req/s operators, the rest nearly nothing.  Greedy opens the
        # aggregation (it covers both groups) for the larger group and has no
        # room left for the other; the ILP puts the larger on its ToR.
        for operator in controller.operators.values():
            roomy = operator.spec.operator_id in (agg.operator_id, tor.operator_id)
            operator.spec = dataclasses.replace(
                operator.spec, capacity=40_000.0 if roomy else 1.0
            )
        traffic = {g.group_id: (0.0, 0.0, 0.0) for g in controller.groups}
        traffic[first.group_id] = (40_000.0, 0.0, 0.0)
        traffic[second.group_id] = (30_000.0, 0.0, 0.0)
        with pytest.raises(InfeasiblePlanError):
            solve_greedy(controller.build_problem(traffic))
        plan = controller.plan_and_deploy(traffic)
        assert plan.proof == "milp"
        assert not plan.drs_groups
        assert plan.assignments[first.group_id] == tor.operator_id
        assert plan.assignments[second.group_id] == agg.operator_id
        for group in (first, second):
            rule = scenario.switches[group.tor].rsnode_of_group(group.group_id)
            assert rule == plan.assignments[group.group_id]


class TestMeasuredTraffic:
    def test_monitor_rates_feed_replanning(self):
        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=3)
        result = run_experiment(config, keep_scenario=True)
        scenario = result.scenario
        traffic = scenario.controller.measured_traffic()
        # Monitors saw the whole run: every group has traffic.
        assert set(traffic) == {g.group_id for g in scenario.controller.groups}
        assert all(sum(rates) > 0 for rates in traffic.values())

    def test_replanning_from_measured_traffic_is_deployable(self):
        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=3)
        result = run_experiment(config, keep_scenario=True)
        scenario = result.scenario
        controller = scenario.controller
        plan = controller.plan(controller.measured_traffic())
        controller.deploy(plan)
        assert controller.deployments == 2


class TestPeriodicReplanning:
    def test_replans_during_run(self):
        config = ExperimentConfig.tiny(
            scheme="netrs-ilp", seed=3, replan_period=0.05
        )
        result = run_experiment(config, keep_scenario=True)
        controller = result.scenario.controller
        assert controller.replans >= 1

    def test_replan_period_validated(self, scenario):
        with pytest.raises(ConfigurationError):
            scenario.controller.start_replanning(0.0)


class TestRecoveryRestoresService:
    def test_replan_after_recovery_clears_drs(self):
        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=3)
        result = run_experiment(config, keep_scenario=True)
        scenario = result.scenario
        controller = scenario.controller
        victim = controller.current_plan.rsnode_ids[0]
        controller.handle_operator_failure(victim)
        assert controller.current_plan.drs_groups
        controller.recover_operator(victim)
        # A fresh plan from measured traffic reassigns every group.
        plan = controller.plan(controller.measured_traffic())
        controller.deploy(plan)
        assert not plan.drs_groups
        for group in controller.groups:
            tor = scenario.switches[group.tor]
            assert tor.rsnode_of_group(group.group_id) != -1
