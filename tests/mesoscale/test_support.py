"""Feature gating: unsupported configs must fail at validation time."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.mesoscale import FLOW_SCHEMES, ensure_flow_supported


def _flow(scheme="clirs", **overrides):
    return ExperimentConfig.tiny(scheme=scheme).replace(
        fidelity="flow", **overrides
    )


def test_supported_schemes_pass():
    for scheme in FLOW_SCHEMES:
        ensure_flow_supported(_flow(scheme=scheme))


def test_unsupported_scheme_is_rejected_at_config_time():
    with pytest.raises(ConfigurationError, match="packet"):
        _flow(scheme="netrs-ilp")


def test_closed_loop_is_rejected():
    with pytest.raises(ConfigurationError, match="closed-loop"):
        _flow(workload_mode="closed")


def test_writes_are_rejected():
    with pytest.raises(ConfigurationError, match="read/write"):
        _flow(write_fraction=0.1)


def test_background_traffic_is_rejected():
    with pytest.raises(ConfigurationError, match="background"):
        _flow(background_traffic_rate=100.0)


def test_link_stats_are_rejected():
    with pytest.raises(ConfigurationError, match="per-link"):
        _flow(track_link_stats=True)


def test_replanning_is_rejected():
    with pytest.raises(ConfigurationError, match="replanning"):
        _flow(scheme="netrs-tor", replan_period=0.5)


def test_rsnode_faults_are_rejected():
    with pytest.raises(ConfigurationError, match="RSNode"):
        _flow(
            scheme="netrs-tor",
            fault_schedule="rsnode-down@0.01:0",
            request_timeout=20e-3,
        )


def test_fabric_link_faults_are_rejected():
    with pytest.raises(ConfigurationError, match="host-access"):
        _flow(
            fault_schedule="link-down@0.01:tor0.0/agg0.0",
            request_timeout=20e-3,
        )


def test_host_access_link_faults_are_accepted():
    config = _flow(
        fault_schedule=(
            "link-down@0.01:client#0/tor(client#0);"
            "link-up@0.05:client#0/tor(client#0)"
        ),
        request_timeout=20e-3,
    )
    ensure_flow_supported(config)


def test_server_faults_are_accepted():
    ensure_flow_supported(
        _flow(
            fault_schedule="server-down@0.01:server#0;server-up@0.05:server#0",
            request_timeout=20e-3,
        )
    )


def test_link_bandwidth_is_rejected():
    """Flow-tier links are pure delays; bandwidth needs the packet tier's queues."""
    with pytest.raises(ConfigurationError, match="link_bandwidth.*packet"):
        _flow(link_bandwidth=1e9)
