"""The fidelity gate: passes when calibrated, fails when mis-calibrated."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.mesoscale import validate as validate_mod
from repro.mesoscale import VALIDATION_SCENARIOS
from repro.mesoscale.validate import (
    DEFAULT_TOLERANCES,
    METRICS,
    compare_tiers,
    ks_distance,
    validate_fidelity,
)


def _tiny_registry():
    return {"tiny": ExperimentConfig.tiny(scheme="clirs", seed=3)}


@pytest.fixture
def tiny_scenarios(monkeypatch):
    """Swap the committed registry for a cheap one (600 requests/tier)."""
    monkeypatch.setattr(validate_mod, "_scenario_configs", _tiny_registry)


def test_ks_distance_basics():
    assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_distance([1.0, 2.0], [10.0, 20.0]) == 1.0
    assert ks_distance([], [1.0]) == 1.0
    assert 0.0 < ks_distance([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 9.0]) < 1.0


def test_committed_scenarios_are_registered():
    registry = validate_mod._scenario_configs()
    for name in VALIDATION_SCENARIOS:
        assert name in registry


def test_calibrated_tiers_pass_the_gate():
    report = compare_tiers("tiny", _tiny_registry()["tiny"])
    assert report.passed
    assert report.breaches == []
    for metric in METRICS:
        assert report.rel_err[metric] == 0.0
    assert report.ks == 0.0


def test_miscalibrated_flow_breaches_the_gate():
    report = compare_tiers(
        "tiny", _tiny_registry()["tiny"], service_time_scale=1.5
    )
    assert not report.passed
    assert report.breaches
    assert any("relative error" in breach for breach in report.breaches)
    assert "BREACH" in report.format()


def test_unknown_scenario_is_an_error():
    with pytest.raises(ConfigurationError, match="unknown validation scenario"):
        validate_fidelity(["no-such-scenario"])


def test_cli_exit_zero_when_calibrated(tiny_scenarios, capsys):
    assert validate_mod.main(["--scenario", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] tiny" in out
    assert "fidelity gate passed" in out


def test_cli_exit_one_on_threshold_breach(tiny_scenarios, capsys):
    code = validate_mod.main(["--scenario", "tiny", "--service-scale", "1.5"])
    assert code == 1
    captured = capsys.readouterr()
    assert "[FAIL] tiny" in captured.out
    assert "BREACH" in captured.out
    assert "FAILED" in captured.err


def test_cli_list(tiny_scenarios, capsys):
    assert validate_mod.main(["--list"]) == 0
    assert "tiny" in capsys.readouterr().out


@pytest.mark.slow
def test_committed_scenarios_pass():
    """The acceptance gate itself: both paper scenarios, default tolerances."""
    reports = validate_fidelity(VALIDATION_SCENARIOS, tolerances=DEFAULT_TOLERANCES)
    assert all(report.passed for report in reports)
    assert {r.scenario for r in reports} == set(VALIDATION_SCENARIOS)
