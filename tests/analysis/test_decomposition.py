"""Tests for latency decomposition and protocol-overhead accounting."""

import pytest

from repro.analysis import attach_probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.network.packet import (
    MAGIC_PLAIN,
    make_request,
)


def _measure(scheme, **overrides):
    config = ExperimentConfig.tiny(scheme=scheme, seed=3, **overrides)
    scenario = build_scenario(config)
    probes = attach_probes(scenario, staleness=False, queues=False)
    result = run_experiment(config, scenario=scenario, keep_scenario=True)
    return config, result, probes


class TestDecomposition:
    def test_components_sum_to_latency(self):
        _, _, probes = _measure("netrs-ilp")
        for record in probes.trace:
            total = (
                record.selection_path_time
                + record.server_queue_delay
                + record.server_service_time
                + record.network_and_other
            )
            assert total == pytest.approx(record.latency, rel=1e-9)

    def test_means_sum_to_total(self):
        _, _, probes = _measure("netrs-ilp")
        means = probes.trace.decomposition_means()
        parts = (
            means["selection"]
            + means["server_queue"]
            + means["server_service"]
            + means["network"]
        )
        assert parts == pytest.approx(means["total"], rel=1e-9)

    def test_clirs_has_no_selection_component(self):
        _, _, probes = _measure("clirs")
        assert probes.trace.decomposition_means()["selection"] == 0.0

    def test_netrs_selection_component_positive(self):
        config, _, probes = _measure("netrs-ilp")
        means = probes.trace.decomposition_means()
        # At least one client->ToR link plus the accelerator round trip.
        floor = (
            config.host_link_latency
            + 2 * config.accelerator_link_delay
            + config.accelerator_service_time
        )
        assert means["selection"] >= floor

    def test_service_component_tracks_config(self):
        _, _, fast = _measure("clirs", mean_service_time=1e-3)
        _, _, slow = _measure("clirs", mean_service_time=4e-3)
        assert (
            slow.trace.decomposition_means()["server_service"]
            > fast.trace.decomposition_means()["server_service"]
        )
        # Load-aware selection prefers servers in their fast mode, so the
        # served mean sits between the fast-mode mean (t/d) and the slow
        # one (t), below the unconditional average.
        served = slow.trace.decomposition_means()["server_service"]
        assert 4e-3 / 3 * 0.8 < served < 4e-3

    def test_network_component_positive(self):
        _, _, probes = _measure("netrs-tor")
        assert probes.trace.decomposition_means()["network"] > 0

    def test_empty_decomposition_nan(self):
        from math import isnan

        from repro.analysis.trace import TraceCollector

        means = TraceCollector().decomposition_means()
        assert all(isnan(v) for v in means.values())


class TestProtocolOverhead:
    def test_plain_packets_have_zero_overhead(self):
        packet = make_request(
            client="c",
            request_id=1,
            key=1,
            rgid=1,
            backup_replica="s",
            issued_at=0.0,
            netrs=False,
            dst="s",
        )
        assert packet.magic == MAGIC_PLAIN
        assert packet.wire_accounting()[1] == 0

    def test_netrs_request_overhead_small(self):
        packet = make_request(
            client="c",
            request_id=1,
            key=1,
            rgid=1,
            backup_replica="s",
            issued_at=0.0,
            netrs=True,
        )
        # RID(2) + MF(6) + RV(2) + RGID(3) = 13 bytes.
        assert packet.wire_accounting()[1] == 13

    def test_clirs_fabric_carries_no_netrs_bytes(self):
        _, result, _ = _measure("clirs")
        assert result.scenario.network.netrs_overhead_bytes == 0

    def test_netrs_overhead_fraction_is_small(self):
        """Design goal (ii), section IV-A: keep protocol overheads low."""
        _, result, _ = _measure("netrs-ilp")
        network = result.scenario.network
        assert network.netrs_overhead_bytes > 0
        fraction = network.netrs_overhead_bytes / network.bytes_transferred
        assert fraction < 0.05
