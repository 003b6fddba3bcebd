"""Every shipped rule fires on its violating fixture and stays silent on a
clean one (ISSUE 3 acceptance criterion)."""

import pathlib

import pytest

from repro.lint import RULES, lint_source
from repro.lint.checkers import SCHEDULING_METHODS
from repro.lint.rules import explain

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule id -> (fixture stem, expected finding count in the bad fixture).
EXPECTED = {
    "DET004": ("det004", 2),
    "DET005": ("det005", 3),
    "SIM001": ("sim001", 2),
    "PERF001": ("perf001", 3),
}

#: Fixture stems whose rule only applies on certain module paths; the
#: fixture is linted under a synthetic path satisfying the gate.
SYNTHETIC_PATHS = {
    "perf001": "src/repro/kvstore",
}


def _lint_fixture(name):
    path = FIXTURES / name
    stem = name.split("_", 1)[0]
    display = SYNTHETIC_PATHS.get(stem)
    display_path = f"{display}/{name}" if display else str(path)
    return lint_source(path.read_text(encoding="utf-8"), path=display_path)


def test_every_registered_rule_has_a_fixture_pair():
    assert set(EXPECTED) == set(RULES)
    for stem, _count in EXPECTED.values():
        assert (FIXTURES / f"{stem}_bad.py").is_file()
        assert (FIXTURES / f"{stem}_clean.py").is_file()


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_rule_fires_on_violating_fixture(rule_id):
    stem, count = EXPECTED[rule_id]
    findings = _lint_fixture(f"{stem}_bad.py")
    assert findings, f"{rule_id} produced no findings on {stem}_bad.py"
    assert {f.rule for f in findings} == {rule_id}
    assert len(findings) == count
    # Locations must be concrete (1-based) so reports are actionable.
    assert all(f.line >= 1 and f.col >= 1 for f in findings)


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_rule_silent_on_clean_fixture(rule_id):
    stem, _count = EXPECTED[rule_id]
    findings = _lint_fixture(f"{stem}_clean.py")
    assert [f for f in findings if f.rule == rule_id] == []


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_clean_fixtures_are_fully_clean(rule_id):
    """Clean fixtures double as cross-rule regression material: no rule at
    all may fire on them (noqa-suppressed lines are allowed)."""
    stem, _count = EXPECTED[rule_id]
    assert _lint_fixture(f"{stem}_clean.py") == []


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_rule_is_documented(rule_id):
    rule = RULES[rule_id]
    assert rule.title
    assert len(rule.rationale) > 40
    text = explain(rule_id)
    assert rule_id in text and "Bad:" in text and "Fix:" in text


def _schedules_in_loop(method):
    """One SIM001 violation feeding ``env.<method>``."""
    return (
        "def f(env, hosts, delay):\n"
        "    for host in hosts:\n"
        f"        env.{method}(delay, lambda: host.poll())\n"
    )


@pytest.mark.parametrize("method", sorted(SCHEDULING_METHODS))
def test_every_scheduling_method_is_policed(method):
    findings = lint_source(_schedules_in_loop(method), path="module.py")
    assert [f.rule for f in findings] == ["SIM001"]


@pytest.mark.parametrize(
    "method",
    ["timeout", "process", "succeed", "fail", "add_callback", "_schedule_event"],
)
def test_names_outside_the_engine_api_are_not_scheduling(method):
    """The engine schedules through ``call_*``/``post_*`` only; a loop
    lambda feeding any other method is not simulation work."""
    assert method not in SCHEDULING_METHODS
    assert lint_source(_schedules_in_loop(method), path="module.py") == []


def test_perf001_only_applies_to_hot_modules():
    source = (FIXTURES / "perf001_bad.py").read_text(encoding="utf-8")
    assert lint_source(source, path="src/repro/experiments/setup.py") == []
    assert lint_source(source, path="src/repro/analysis/loads.py") == []
    hot = lint_source(source, path="src/repro/network/server.py")
    assert {f.rule for f in hot} == {"PERF001"}


def test_perf001_covers_the_mesoscale_tier():
    """The flow tier draws inside the per-request loop, so PERF001 gates
    repro.mesoscale exactly like kvstore/network (ISSUE 8 satellite)."""
    source = (FIXTURES / "perf001_bad.py").read_text(encoding="utf-8")
    findings = lint_source(source, path="src/repro/mesoscale/flow.py")
    assert {f.rule for f in findings} == {"PERF001"}


def test_perf001_matches_role_named_generators():
    """`self._arrival_rng` and friends are Generators by convention; the
    `_rng` suffix must match so hot-path draws cannot hide behind a role
    prefix."""
    source = (
        "class E:\n"
        "    def f(self):\n"
        "        return self._arrival_rng.exponential(1.0)\n"
    )
    findings = lint_source(source, path="src/repro/mesoscale/flow.py")
    assert [f.rule for f in findings] == ["PERF001"]
    assert lint_source(source, path="src/repro/analysis/loads.py") == []


def test_perf001_ignores_draws_attribute_and_vector_draws():
    source = (
        "class S:\n"
        "    def f(self):\n"
        "        a = self._draws.exponential(1.0)\n"
        "        b = self.rng.exponential(1.0, size=64)\n"
        "        return a, b\n"
    )
    assert lint_source(source, path="src/repro/kvstore/server.py") == []
