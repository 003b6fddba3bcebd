"""Engine choice: ``fidelity="flow"`` runs a config the flow engine does not
model on the packet engine, with the packet engine's result."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mesoscale import FLOW_SCHEMES, FlowEngine, flow_models
from repro.mesoscale.validate import differences

_TIMEOUT = dict(request_timeout=20e-3)

#: What keeps a config off the flow engine, one row per reason.
_PACKET_ONLY = {
    "scheme": ("netrs-ilp", {}),
    "writes": ("clirs", dict(write_fraction=0.1)),
    "quorum-reads": ("clirs", dict(read_quorum=2)),
    "churn": (
        "clirs", dict(churn_schedule="node-leave@0.04:server#1;node-join@0.1:server#1")
    ),
    "replanning": ("netrs-tor", dict(replan_period=0.05)),
    "granularity": ("netrs-tor", dict(group_granularity="host")),
    # Per-ToR demand above the accelerator budget: the packet tier engages DRS.
    "drs": ("netrs-tor", dict(accelerator_service_time=1e-3)),
    "rsnode-fault": (
        "netrs-tor", dict(fault_schedule="rsnode-down@0.01:busiest", **_TIMEOUT)
    ),
    "fabric-link-down": (
        "clirs", dict(fault_schedule="link-down@0.01:tor0.0/agg0.0", **_TIMEOUT)
    ),
    "host-link-down": (
        "clirs",
        dict(
            fault_schedule=(
                "link-down@0.03:client#1/tor(client#1);"
                "link-up@0.05:client#1/tor(client#1)"
            ),
            **_TIMEOUT,
        ),
    ),
    "host-link-degrade": (
        "netrs-tor",
        dict(fault_schedule="link-degrade@0.01:client#2/tor(client#2)*3.0", **_TIMEOUT),
    ),
}


def _flow(scheme="clirs", **overrides):
    config = ExperimentConfig.tiny(scheme=scheme, seed=5)
    return config.replace(fidelity="flow", **overrides)


@pytest.mark.parametrize("reason", sorted(_PACKET_ONLY))
def test_a_config_the_flow_engine_does_not_model_runs_on_the_packet_engine(reason):
    scheme, overrides = _PACKET_ONLY[reason]
    config = _flow(scheme, **overrides)
    assert not flow_models(config)
    with pytest.raises(ConfigurationError, match="does not model"):
        FlowEngine(config)
    flow = run_experiment(config)
    assert flow.micro_events == 0
    assert differences(run_experiment(config.replace(fidelity="packet")), flow) == []


@pytest.mark.parametrize("scheme", FLOW_SCHEMES)
def test_the_flow_engine_models_its_schemes_with_server_faults(scheme):
    assert flow_models(_flow(scheme))
    assert flow_models(
        _flow(
            scheme,
            fault_schedule="server-down@0.01:server#0;server-up@0.05:server#0",
            **_TIMEOUT,
        )
    )
