"""What a NetRS request costs the scheduler, as exact counts (no timing).

An RSNode's accelerator is a closed-form station: selection and the state
update run when the packet is admitted, so a crossing costs the flow tier one
event (the arrival) and the packet tier one (the hand-back).  With no link
fault scheduled the flow tier also does a ToR's work for it at send time.
The measured per-scheme figures are in docs/MESOSCALE.md; the ceilings here
sit a few per cent above them, so a reintroduced event per request fails.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from tests.mesoscale.test_flow import FAULT_SCHEDULE, _assert_identical


def test_flow_netrs_request_costs_seven_micro_events():
    """The ``flow-tor-faults`` benchmark shape: arrival, accelerator, server
    arrival and completion, clone into the accelerator, client delivery, the
    stale timeout -- 7.13 here with the retries (11.1 before the station)."""
    config = ExperimentConfig.small(
        scheme="netrs-tor",
        total_requests=4000,
        fidelity="flow",
        fault_schedule="server-down@0.02:server#0;server-up@0.06:server#0",
        request_timeout=0.02,
        max_retries=5,
    )
    result = run_experiment(config)
    assert result.retries > 0
    assert result.micro_events / config.total_requests < 7.5


def test_packet_netrs_request_costs_ten_events():
    """``netrs-ilp`` on the packet tier: 10.02 events a request (14.02 before)."""
    config = ExperimentConfig.small(scheme="netrs-ilp", n_clients=32, total_requests=2000)
    result = run_experiment(config)
    assert result.selector_requests_handled == config.total_requests
    assert result.events_executed / config.total_requests < 10.5


def test_guarded_netrs_flow_still_matches_the_packet_tier():
    """Link faults keep one event per ToR crossing, where the link is checked;
    that path must stay what the packet tier does hop by hop."""
    config = ExperimentConfig.tiny(
        scheme="netrs-tor",
        seed=5,
        fault_schedule=FAULT_SCHEDULE,
        request_timeout=20e-3,
        max_retries=4,
    )
    packet = run_experiment(config)
    flow = run_experiment(config.replace(fidelity="flow"))
    _assert_identical(packet, flow)
    assert packet.packets_dropped > 0 and packet.timeouts > 0  # the links do fail
    unguarded = run_experiment(config.replace(fidelity="flow", fault_schedule=""))
    assert flow.micro_events / config.total_requests > 9  # one event per hand-off
    assert unguarded.micro_events / config.total_requests < 7.5
