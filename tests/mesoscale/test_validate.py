"""The fidelity gate: passes on bit-identical tiers, fails on any difference."""

import copy
import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import COUNTERS, run_experiment
from repro.mesoscale import VALIDATION_SCENARIOS, FlowEngine, flow_models
from repro.mesoscale import validate as validate_mod
from repro.mesoscale.validate import compare_tiers, differences, validate_fidelity
from repro.sim.probes import LatencyRecorder


def _tiny_registry():
    return {"tiny": ExperimentConfig.tiny(scheme="clirs", seed=3)}


@pytest.fixture
def tiny_scenarios(monkeypatch):
    """Swap the committed registry for a cheap one (600 requests/tier)."""
    monkeypatch.setattr(validate_mod, "_scenario_configs", _tiny_registry)


@pytest.fixture
def widened_flow_hop(monkeypatch):
    """Lengthen the last hop of the flow tier's cross-pod path by 1 us."""
    build = FlowEngine.__init__

    def __init__(self, config, **kwargs):
        build(self, config, **kwargs)
        hops = self._full_path[6]
        self._full_path[6] = hops[:-1] + (hops[-1] + 1e-6,)

    monkeypatch.setattr(FlowEngine, "__init__", __init__)


def test_the_default_set_is_the_whole_registry():
    assert VALIDATION_SCENARIOS == tuple(validate_mod._scenario_configs())
    assert "netrs-tor" in VALIDATION_SCENARIOS


@pytest.mark.parametrize("name", VALIDATION_SCENARIOS)
def test_every_registered_scenario_runs_on_the_flow_engine(name):
    """Else ``fidelity="flow"`` would run the packet engine, and the gate
    would compare the packet engine with itself."""
    assert flow_models(validate_mod._scenario_configs()[name])


def test_cli_without_a_scenario_runs_the_whole_registry(tiny_scenarios, capsys):
    assert validate_mod.main([]) == 0
    assert "[PASS] tiny" in capsys.readouterr().out


def test_differences_name_each_counter_and_the_first_sample():
    result = run_experiment(_tiny_registry()["tiny"].replace(fidelity="flow"))
    assert differences(result, result) == []
    samples = list(result.latency.samples)
    samples[5] += 1e-9
    other = copy.copy(result)
    other.transmissions += 1
    other.latency = LatencyRecorder()
    other.latency.extend(samples)
    assert differences(result, other) == [
        f"latency sample #5: expected {result.latency.samples[5]!r}, "
        f"got {samples[5]!r}",
        f"transmissions: expected {result.transmissions}, "
        f"got {result.transmissions + 1}",
    ]
    assert differences(result, other, ignore=("transmissions",)) == (
        differences(result, other)[:1]
    )


def test_differences_compare_every_counter_but_each_tier_s_own_clock():
    """A counter added to the result is compared with no edit here; events
    and micro-events, which count one tier's clock each, only on request."""
    result = run_experiment(_tiny_registry()["tiny"].replace(fidelity="flow"))
    for name in COUNTERS:
        other = copy.copy(result)
        setattr(other, name, getattr(result, name) + 1)
        a, b = getattr(result, name), getattr(other, name)
        breach = f"{name}: expected {a!r}, got {b!r}"
        assert differences(result, other, ignore=()) == [breach]
        clock = name in ("events_executed", "micro_events")
        assert differences(result, other) == ([] if clock else [breach])


def test_report_prints_each_tier_s_cpu_cost_and_never_gates_on_it():
    report = compare_tiers("tiny", _tiny_registry()["tiny"])
    assert report.packet_cpu_s > 0 and report.flow_cpu_s > 0
    lines = [line for line in report.format().splitlines() if "cpu/request" in line]
    assert len(lines) == 1 and "packet/flow=" in lines[0]
    slow = dataclasses.replace(report, packet_cpu_s=100 * report.flow_cpu_s)
    assert "packet/flow=100.00" in slow.format()
    assert "BREACH" not in slow.format()


def test_identical_tiers_pass_the_gate():
    report = compare_tiers("tiny", _tiny_registry()["tiny"])
    assert report.passed
    assert report.breaches == []
    assert report.format().startswith("[PASS] tiny")


def test_a_perturbed_flow_tier_breaches_the_gate(widened_flow_hop):
    report = compare_tiers("tiny", _tiny_registry()["tiny"])
    assert not report.passed
    assert any(b.startswith("latency sample #") for b in report.breaches)
    assert "BREACH: latency sample #" in report.format()


def test_a_config_the_flow_engine_does_not_model_breaches_the_gate(
    monkeypatch, capsys
):
    """``fidelity="flow"`` would run the packet engine on it, and the gate
    would compare that engine with itself: no micro-event is a breach."""
    writes = ExperimentConfig.tiny(scheme="clirs", seed=3).replace(write_fraction=0.1)
    assert not flow_models(writes)
    monkeypatch.setattr(validate_mod, "_scenario_configs", lambda: {"writes": writes})
    assert validate_mod.main([]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] writes" in out
    assert "BREACH: flow leg ran no flow engine (micro_events == 0)" in out


def test_unknown_scenario_is_an_error():
    with pytest.raises(ConfigurationError, match="unknown validation scenario"):
        validate_fidelity(["no-such-scenario"])


def test_cli_exit_zero_when_identical(tiny_scenarios, capsys):
    assert validate_mod.main(["--scenario", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] tiny" in out
    assert "fidelity gate passed" in out


def test_cli_exit_one_when_the_flow_tier_differs(
    tiny_scenarios, widened_flow_hop, capsys
):
    assert validate_mod.main(["--scenario", "tiny"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] tiny" in captured.out
    assert "BREACH: latency sample #" in captured.out
    assert "FAILED" in captured.err


def test_cli_list(tiny_scenarios, capsys):
    assert validate_mod.main(["--list"]) == 0
    assert "tiny" in capsys.readouterr().out


@pytest.mark.slow
def test_committed_scenarios_pass():
    """The acceptance gate itself: every registered scenario, bit for bit."""
    reports = validate_fidelity()
    assert [report.breaches for report in reports] == [[]] * len(reports)
    assert tuple(r.scenario for r in reports) == VALIDATION_SCENARIOS
