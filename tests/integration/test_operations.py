"""Integration tests for operational scenarios: overload, replans, scale.

Covers the controller's exception handling under live traffic (paper
section III-C cases ii and iii) and deployment transitions with packets in
flight.
"""

import json

import pytest

from repro.core.plan import SelectionPlan
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import METRICS
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.experiments.sweep import run_sweep


class TestOverloadHandling:
    def test_overloaded_accelerator_triggers_drs(self):
        """Section III-C case (ii): slow accelerators get their groups degraded."""
        config = ExperimentConfig.tiny(scheme="netrs-tor", seed=1)
        scenario = build_scenario(config)
        controller = scenario.controller
        # Degrade the hardware *after* planning: the capacity model assumed
        # healthy 5 us accelerators, but e.g. a co-tenant application now
        # eats the device (paper section III-C, exception ii).
        for accelerator in scenario.accelerators():
            accelerator.service_time = 2e-3

        overloaded_log = []

        def check(period):
            overloaded_log.extend(controller.check_overloads(0.5))
            scenario.env.call_in(period, check, period)

        scenario.env.call_in(0.02, check, 0.02)
        result = run_experiment(config, scenario=scenario, keep_scenario=True)
        assert result.completed_requests == config.total_requests
        assert overloaded_log, "no operator was ever flagged overloaded"
        assert controller.overloads_handled >= 1
        assert controller.current_plan.drs_groups

    def test_healthy_accelerators_not_flagged(self):
        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=1)
        scenario = build_scenario(config)
        controller = scenario.controller
        flagged = []
        scenario.env.call_in(
            0.05, lambda: flagged.extend(controller.check_overloads(0.5))
        )
        run_experiment(config, scenario=scenario)
        assert flagged == []


class TestMidRunPlanSwitch:
    def test_switch_to_different_plan_with_packets_in_flight(self):
        """Deploying a new RSP mid-run must not lose or wedge requests.

        Packets already stamped with the old RSNode ID hit an operator that
        may have been deactivated; the data plane degrades them to the
        client's backup replica, exactly like an operator failure.
        """
        config = ExperimentConfig.tiny(scheme="netrs-tor", seed=1)
        scenario = build_scenario(config)
        controller = scenario.controller
        # Build a radically different plan: everything on one core operator.
        core_op = next(
            op
            for op in controller.operators.values()
            if op.spec.tier == 0
        )
        new_plan = SelectionPlan(
            assignments={
                g.group_id: core_op.operator_id for g in controller.groups
            },
            solver="test-core",
        )
        midpoint = config.total_requests / config.arrival_rate() / 2
        scenario.env.call_in(midpoint, controller.deploy, new_plan)
        result = run_experiment(config, scenario=scenario, keep_scenario=True)
        assert result.completed_requests == config.total_requests
        assert controller.deployments == 2
        # The new RSNode actually served traffic after the switch.
        assert core_op.switch.requests_selected > 0

    def test_cold_rsnode_starts_without_state(self):
        config = ExperimentConfig.tiny(scheme="netrs-tor", seed=1)
        scenario = build_scenario(config)
        controller = scenario.controller
        core_op = next(
            op for op in controller.operators.values() if op.spec.tier == 0
        )
        assert core_op.selector is None
        new_plan = SelectionPlan(
            assignments={
                g.group_id: core_op.operator_id for g in controller.groups
            }
        )
        controller.deploy(new_plan)
        assert core_op.selector is not None
        assert core_op.selector.requests_handled == 0  # cold, per section II


class TestHopAccounting:
    def test_request_hop_counts_bounded(self):
        """No packet may exceed the worst-case valley-free detour length."""
        from repro.analysis import attach_probes

        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=2)
        scenario = build_scenario(config)
        probes = attach_probes(scenario, staleness=False, queues=False)
        run_experiment(config, scenario=scenario)
        # Response path: up to 5 switch hops to the RSNode plus up to 5 more
        # down to the client (the request's hops were reset when rebuilt).
        # Zero is legitimate: client and server in the same rack with the
        # rack's own ToR as RSNode -- the only forwarding is ToR egress.
        assert all(0 <= r.hops <= 10 for r in probes.trace)
        assert any(r.hops >= 2 for r in probes.trace)


class TestSweepExport:
    def test_to_json_round_trips(self):
        base = ExperimentConfig.tiny(seed=1, total_requests=300)
        sweep = run_sweep(
            base,
            parameter="utilization",
            values=[0.5],
            schemes=["clirs"],
        )
        payload = json.loads(sweep.to_json())
        assert payload["parameter"] == "utilization"
        assert payload["values"] == [0.5]
        assert set(payload["metrics_ms"]["clirs"]) == set(METRICS)


@pytest.mark.slow
class TestPaperProfileSmoke:
    def test_paper_scale_topology_runs(self):
        """The full 16-ary / 1024-host / 500-client setup works end to end.

        Shortened to 4000 requests; the full 6M-request figure runs are
        ``netrs figure figN --profile paper``.
        """
        config = ExperimentConfig.paper(
            scheme="netrs-ilp", seed=1, total_requests=4000
        )
        result = run_experiment(config)
        assert result.completed_requests == 4000
        assert result.rsnode_count >= 1
        summary = result.summary()
        assert summary["mean"] > 0
