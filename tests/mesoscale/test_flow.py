"""The flow tier's contract: deterministic, and bit-identical to the packet
engine on the supported schemes (the property the validation gate relies on).
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mesoscale import FLOW_SCHEMES, FlowEngine
from repro.mesoscale.validate import differences

FAULT_SCHEDULE = (
    "server-down@0.02:server#0;server-up@0.06:server#0;"
    "server-down@0.03:server#2;server-up@0.05:server#2"
)

#: A crash whose retries are still travelling at the stop on some seeds.
LATE_CRASH = "server-down@0.01:server#0;server-up@0.03:server#0"


def _tiny(scheme, **overrides):
    return ExperimentConfig.tiny(scheme=scheme, seed=5).replace(**overrides)


def _assert_identical(packet, flow):
    """Equal results, and each came from its own tier's engine."""
    assert packet.events_executed > 0 and packet.micro_events == 0
    assert flow.micro_events > 0 and flow.events_executed == 0
    assert differences(packet, flow) == []


def test_same_seed_is_bit_identical():
    config = _tiny("clirs", fidelity="flow")
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.latency.samples == second.latency.samples
    assert first.summary() == second.summary()
    assert first.transmissions == second.transmissions
    assert first.micro_events == second.micro_events


#: (scheme, vector_batch, overrides).  The skewed rows are the only ones that
#: draw the ``workload.skew`` stream, so a family renamed on one tier fails
#: here even though the plain rows never create it.
BIT_EXACT_ROWS = [
    pytest.param(scheme, batch, {}, id=f"{scheme}-{batch}")
    for scheme in FLOW_SCHEMES
    for batch in (0, 64)
] + [
    pytest.param(scheme, 0, {"demand_skew": 0.8}, id=f"{scheme}-skew")
    for scheme in FLOW_SCHEMES
] + [
    pytest.param(scheme, 64, {"demand_skew": 0.8}, id=f"{scheme}-64-skew")
    for scheme in FLOW_SCHEMES
] + [
    # Late copies still on the wire when the last request completes (an R95
    # duplicate, a retry, or the reply to either): the hops they never made
    # are not counted, on either tier.
    pytest.param("clirs-r95", 0, {"seed": seed}, id=f"clirs-r95-late-s{seed}")
    for seed in (7, 11)
] + [
    pytest.param(
        "clirs",
        0,
        dict(seed=seed, fault_schedule=LATE_CRASH, request_timeout=0.01, max_retries=3),
        id=f"clirs-crash-late-s{seed}",
    )
    for seed in (30, 35)
]


@pytest.mark.parametrize("scheme, vector_batch, overrides", BIT_EXACT_ROWS)
def test_flow_matches_packet_bit_exactly(scheme, vector_batch, overrides):
    """``vector_batch > 0`` routes the flow side through the SoA fast
    path, which must change nothing."""
    config = _tiny(scheme, **overrides)
    packet = run_experiment(config)
    flow = run_experiment(config.replace(fidelity="flow", vector_batch=vector_batch))
    _assert_identical(packet, flow)


@pytest.mark.parametrize("vector_batch", [0, 7])
def test_flow_matches_packet_under_faults(vector_batch):
    config = _tiny(
        "clirs",
        fault_schedule=FAULT_SCHEDULE,
        request_timeout=20e-3,
        max_retries=4,
    )
    packet = run_experiment(config)
    flow = run_experiment(config.replace(fidelity="flow", vector_batch=vector_batch))
    _assert_identical(packet, flow)
    assert packet.timeouts > 0  # the schedule actually bites


def test_fidelity_dispatch_through_run_experiment():
    """``run_experiment`` runs the flow engine, and reports what an engine
    driven by hand does."""
    config = _tiny("clirs", fidelity="flow")
    via_dispatch = run_experiment(config, keep_scenario=True)
    assert type(via_dispatch.scenario) is FlowEngine
    via_dispatch.scenario.teardown()
    direct = FlowEngine(config)
    direct.run()
    assert via_dispatch.latency.samples == direct.recorder.samples
    assert via_dispatch.micro_events == direct.micro_events
    direct.teardown()
    assert "FLOW" not in run_experiment(_tiny("clirs")).plan_description


def test_flow_runs_on_its_own_heap_only():
    """No Environment runs under the flow tier: every entry, fault
    transitions included, is on the engine's heap."""
    config = _tiny(
        "clirs", fault_schedule=FAULT_SCHEDULE, request_timeout=20e-3, max_retries=4
    )
    flow = run_experiment(config.replace(fidelity="flow"))
    assert flow.events_executed == 0
    assert flow.micro_events > 0
    assert flow.faults_injected == 4


def test_describe_reports_flow_tier():
    config = _tiny("clirs", fidelity="flow")
    result = run_experiment(config)
    text = result.describe()
    assert "fidelity=flow" in text
    assert "micro_events" in text


def test_describe_reports_the_engine_that_ran():
    """A ``fidelity="flow"`` config the flow engine does not model runs on the
    packet engine, and its report says so: no flow line, packet events."""
    text = run_experiment(_tiny("netrs-ilp", fidelity="flow")).describe()
    assert "fidelity=flow" not in text
    assert "events=0" not in text
