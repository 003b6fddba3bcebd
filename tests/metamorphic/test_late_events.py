"""Late-event relation: a fault, a churn event or a replan tick scheduled
after the run's last completion changes no sample and no endpoint counter.

Nothing the run reports can depend on what was due after it ended.  A
schedule that is merely *present* must not reroute traffic, reseed a stream,
rebuild the ring differently or arm timers the plain run does not, and the
run must not wait for the event.  Counters that name the event may differ;
so may the two engine-work counters when the schedule itself decides the
engine (the flow engine models no churn, so a churn schedule runs a
``fidelity="flow"`` config on the packet engine).
"""

from array import array

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

SCHEMES = ("clirs", "clirs-r95", "netrs-tor", "netrs-ilp")

#: The packet engine, and ``fidelity="flow"`` with and without the SoA engine.
ENGINES = {
    "packet": {},
    "flow": {"fidelity": "flow"},
    "soa": {"fidelity": "flow", "vector_batch": 256},
}

#: Per event: the schedule field, the event at time ``t``, and what the plain
#: run needs for that schedule to be valid (a crash needs a timeout to retry).
EVENTS = {
    "server-down": (
        "fault_schedule", "server-down@{t!r}:server#0", {"request_timeout": 0.05}
    ),
    "node-leave": ("churn_schedule", "node-leave@{t!r}:server#1", {}),
}

#: Counters that name a fault or a churn event.
NAMES_THE_EVENT = frozenset(
    {
        "faults_injected",
        "unavailability",
        "churn_events",
        "migrated_keys",
        "migration_bytes",
    }
)

#: What the engine that ran did, not what the endpoints saw.
ENGINE_WORK = frozenset({"events_executed", "micro_events"})


def _bytes(result):
    return array("d", result.latency.samples).tobytes()


@pytest.mark.parametrize("event", sorted(EVENTS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_event_after_the_last_completion_changes_nothing(scheme, engine, event):
    field, spelling, needs = EVENTS[event]
    config = ExperimentConfig.tiny(seed=3, scheme=scheme, **ENGINES[engine], **needs)
    plain = run_experiment(config)
    late = plain.sim_duration + 1e-9  # the last completion is the run's end
    result = run_experiment(config.replace(**{field: spelling.format(t=late)}))

    assert _bytes(result) == _bytes(plain)
    skip = set(NAMES_THE_EVENT)
    if (result.micro_events > 0) != (plain.micro_events > 0):
        skip |= ENGINE_WORK  # the schedule chose the engine
    got, want = result.counters(), plain.counters()
    differing = sorted(
        name for name in want if name not in skip and got[name] != want[name]
    )
    assert differing == []


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("scheme", ["netrs-ilp", "netrs-tor"])
def test_a_replan_after_the_last_completion_changes_nothing(scheme, seed):
    """A ``replan_period`` whose first tick is due after the run: with none
    armed the client ToR's stamp rides the host's send, with one armed it is
    the ToR's event.  The two paths must give one answer; only the events
    the armed run spends on the stamp may differ."""
    config = ExperimentConfig.small(seed=seed, scheme=scheme, total_requests=2000)
    plain = run_experiment(config, keep_scenario=True)
    late = plain.sim_duration + 1e-9  # the last completion is the run's end
    result = run_experiment(config.replace(replan_period=late), keep_scenario=True)

    assert plain.scenario.network.stamp_at_send
    assert not result.scenario.network.stamp_at_send
    assert result.scenario.controller.replans == 0
    assert _bytes(result) == _bytes(plain)
    got, want = result.counters(), plain.counters()
    differing = sorted(
        name for name in want if name not in ENGINE_WORK and got[name] != want[name]
    )
    assert differing == []
