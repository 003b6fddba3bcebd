"""End-to-end fault injection: crashes, failover, and byte-identity."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.faults import FaultInjector, FaultSchedule

#: The crash-and-recover scenario of docs/FAULTS.md: server#0 goes down at
#: 20 ms and comes back at 60 ms, while clients retry on a 20 ms timeout.
CRASH_SPEC = "server-down@0.02:server#0;server-up@0.06:server#0"


def _crash_config(**overrides):
    changes = dict(
        fault_schedule=CRASH_SPEC,
        request_timeout=0.02,
        max_retries=5,
    )
    changes.update(overrides)
    return dataclasses.replace(
        ExperimentConfig.tiny(scheme="clirs", seed=42), **changes
    )


class TestCrashAndRecover:
    def test_retries_happen_and_nothing_is_lost(self):
        result = run_experiment(_crash_config())
        assert result.faults_injected == 2
        assert result.timeouts > 0
        assert result.retries > 0
        assert result.requests_lost == 0
        assert result.completed_requests == result.config.total_requests
        assert result.unavailability == pytest.approx(0.04)

    def test_same_seed_runs_are_identical(self):
        """Fault counters are byte-identical across runs."""
        first = run_experiment(_crash_config())
        second = run_experiment(_crash_config())
        assert first.summary() == second.summary()
        assert first.timeouts == second.timeouts
        assert first.retries == second.retries
        assert first.transmissions == second.transmissions
        assert first.events_executed == second.events_executed
        assert first.faults_injected == second.faults_injected
        assert first.requests_lost == second.requests_lost

    def test_crash_loses_in_flight_work_but_clients_recover(self):
        result = run_experiment(_crash_config(), keep_scenario=True)
        servers = result.scenario.servers.values()
        # The crash wipes the victim's queue and in-service work, and its
        # door stays shut until recovery ...
        assert sum(s.lost_in_service for s in servers) > 0
        assert result.server_dropped_requests > 0
        # ... yet every request still completes, via timeout-driven retry.
        assert result.requests_lost == 0
        assert result.completed_requests == result.config.total_requests

    def test_unavailability_tracks_open_windows(self):
        # No recovery event: the window stays open until the end of the run.
        config = _crash_config(fault_schedule="server-down@0.02:server#0")
        result = run_experiment(config)
        assert result.unavailability == pytest.approx(result.sim_duration - 0.02)


class TestRSNodeFailover:
    def test_all_operators_down_falls_back_to_client_selection(self):
        config = ExperimentConfig.tiny(scheme="netrs-tor", seed=42)
        scenario = build_scenario(config)
        schedule = FaultSchedule()
        for operator_id in sorted(scenario.plan.rsnode_ids):
            schedule.rsnode_down(0.0, operator_id)
        scenario.faults = FaultInjector(
            scenario.env,
            schedule,
            network=scenario.network,
            servers=scenario.servers,
            server_hosts=scenario.server_hosts,
            client_hosts=scenario.client_hosts,
            controller=scenario.controller,
        )
        scenario.faults.arm()
        result = run_experiment(config, scenario=scenario)
        # Every group degraded => no request is ever steered by an operator,
        # and no request needs one: DRS answers from client-side selection.
        assert result.selector_requests_handled == 0
        assert result.drs_group_count == len(scenario.groups)
        assert result.completed_requests == config.total_requests
        assert result.requests_lost == 0

    def test_busiest_operator_failure_completes_without_timeouts(self):
        config = dataclasses.replace(
            ExperimentConfig.tiny(scheme="netrs-tor", seed=42),
            fault_schedule="rsnode-down@0.01:busiest",
        )
        result = run_experiment(config)
        assert result.faults_injected == 1
        assert result.drs_group_count > 0
        assert result.completed_requests == config.total_requests
        assert result.unavailability > 0


class TestByteIdentityWithoutFaults:
    """Arming timeouts that never fire must not change any output bit."""

    @pytest.mark.parametrize("scheme", ["clirs", "netrs-tor"])
    def test_timeout_knobs_alone_change_nothing(self, scheme):
        baseline = run_experiment(ExperimentConfig.tiny(scheme=scheme, seed=42))
        guarded = run_experiment(
            dataclasses.replace(
                ExperimentConfig.tiny(scheme=scheme, seed=42),
                request_timeout=50.0,
                max_retries=3,
            )
        )
        assert guarded.summary() == baseline.summary()
        assert guarded.transmissions == baseline.transmissions
        assert guarded.events_executed == baseline.events_executed
        assert guarded.timeouts == 0
        assert guarded.retries == 0


class TestTargetResolution:
    def _injector(self, scenario, schedule):
        return FaultInjector(
            scenario.env,
            schedule,
            network=scenario.network,
            servers=scenario.servers,
            server_hosts=scenario.server_hosts,
            client_hosts=scenario.client_hosts,
            controller=scenario.controller,
        )

    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ExperimentConfig.tiny(scheme="clirs", seed=42))

    def test_server_index_resolves_to_server_host(self, scenario):
        injector = self._injector(
            scenario, FaultSchedule().server_down(0.1, "server#0")
        )
        resolved = injector._resolved[0]
        assert resolved.server == scenario.server_hosts[0]
        assert resolved.server in scenario.servers

    def test_tor_reference_resolves_recursively(self, scenario):
        tor = scenario.network.tor_of(scenario.server_hosts[0])
        injector = self._injector(
            scenario, FaultSchedule().link_down(0.1, "tor(server#0)", "agg0.0")
        )
        assert injector._resolved[0].a == tor

    @pytest.mark.parametrize(
        "schedule, fragment",
        [
            (FaultSchedule().server_down(0.1, "server#99"), "out of range"),
            (FaultSchedule().server_down(0.1, "server#x"), "bad fault target"),
            (FaultSchedule().server_down(0.1, "nonexistent"), "not a topology"),
            (
                FaultSchedule().server_down(0.1, "client#0"),
                "runs no key-value server",
            ),
            (FaultSchedule().rsnode_down(0.1, 0), "NetRS scheme"),
        ],
    )
    def test_bad_targets_fail_fast(self, scenario, schedule, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            self._injector(scenario, schedule)
        assert fragment in str(excinfo.value)


class TestLinkTargets:
    """A link fault must name a link; a pair that shares none fails the build
    on either tier, before any event runs.  A flow config with a link fault
    runs on the packet engine, so it fails there the same way."""

    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    @pytest.mark.parametrize(
        "pair", ["server#0/client#1", "server#0/tor(client#1)"]
    )
    def test_unlinked_pair_fails_at_build(self, fidelity, pair):
        config = _crash_config(
            fault_schedule=f"link-down@0.01:{pair}", fidelity=fidelity
        )
        config.validate()
        build = run_experiment if fidelity == "flow" else build_scenario
        with pytest.raises(ConfigurationError, match="share no link"):
            build(config)


class TestConfigValidation:
    def test_stranding_schedule_requires_timeout(self):
        config = dataclasses.replace(
            ExperimentConfig.tiny(), fault_schedule=CRASH_SPEC
        )
        with pytest.raises(ConfigurationError, match="request_timeout"):
            config.validate()

    def test_non_stranding_schedule_needs_no_timeout(self):
        dataclasses.replace(
            ExperimentConfig.tiny(scheme="netrs-tor"),
            fault_schedule="rsnode-down@0.01:busiest",
        ).validate()

    def test_bad_spec_rejected_at_validation(self):
        config = dataclasses.replace(
            ExperimentConfig.tiny(), fault_schedule="reboot@0.1:server#0"
        )
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            config.validate()
