"""Tests for the experiment runner and result accounting."""

import math

import pytest

from repro.experiments.config import SCHEMES, ExperimentConfig
from repro.experiments.runner import run_experiment


class TestRunExperiment:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes_complete(self, scheme):
        config = ExperimentConfig.tiny(scheme=scheme, seed=1)
        result = run_experiment(config)
        assert result.completed_requests == config.total_requests
        recorded = config.total_requests - config.warmup_requests()
        assert len(result.latency) == recorded

    @pytest.mark.parametrize(
        "algorithm",
        ["c3", "least-outstanding", "two-choices", "random", "ewma-snitch", "c3-rate"],
    )
    @pytest.mark.parametrize("scheme", ["clirs", "netrs-ilp"])
    def test_every_selection_algorithm_completes(self, scheme, algorithm):
        """NetRS is algorithm-agnostic (section IV-C): each algorithm of the
        ``netrs sweep algorithm`` ablation runs at the client and in-network."""
        config = ExperimentConfig.tiny(scheme=scheme, seed=1, algorithm=algorithm)
        assert run_experiment(config).completed_requests == config.total_requests

    def test_latency_metrics_ordered(self):
        result = run_experiment(ExperimentConfig.tiny(seed=2))
        summary = result.summary()
        assert 0 < summary["mean"]
        assert summary["mean"] <= summary["p95"] <= summary["p99"] <= summary["p999"]

    def test_latency_floor_is_service_plus_network(self):
        """No response can beat one network round trip."""
        config = ExperimentConfig.tiny(seed=2)
        result = run_experiment(config)
        floor_seconds = 2 * 2 * config.host_link_latency  # >= 2 hops each way
        assert min(result.latency.samples) >= floor_seconds

    def test_deterministic_given_seed(self):
        a = run_experiment(ExperimentConfig.tiny(scheme="netrs-ilp", seed=7))
        b = run_experiment(ExperimentConfig.tiny(scheme="netrs-ilp", seed=7))
        assert a.summary() == b.summary()
        assert a.transmissions == b.transmissions

    def test_seeds_differ(self):
        a = run_experiment(ExperimentConfig.tiny(seed=1))
        b = run_experiment(ExperimentConfig.tiny(seed=2))
        assert a.summary() != b.summary()

    def test_fabric_accounting_positive(self):
        result = run_experiment(ExperimentConfig.tiny(seed=1))
        assert result.transmissions > 0
        assert result.bytes_transferred > 0
        # Trunk collapse delivers a whole mechanical switch run as one
        # event, so transmissions (per-hop accounting) now exceed engine
        # events; each request still needs several events end to end.
        assert result.events_executed > result.completed_requests

    def test_netrs_records_plan_stats(self):
        result = run_experiment(ExperimentConfig.tiny(scheme="netrs-ilp", seed=1))
        assert result.rsnode_count >= 1
        assert result.plan_description
        assert result.selector_requests_handled == result.config.total_requests
        assert 0 <= result.accelerator_max_utilization <= 1

    def test_r95_sends_redundant_requests(self):
        config = ExperimentConfig.tiny(
            scheme="clirs-r95", seed=1, total_requests=900, utilization=1.2
        )
        result = run_experiment(config)
        assert result.redundant_requests > 0

    def test_describe_readable(self):
        result = run_experiment(ExperimentConfig.tiny(scheme="netrs-ilp", seed=1))
        text = result.describe()
        assert "netrs-ilp" in text
        assert "rsnodes=" in text

    def test_sim_duration_close_to_expected(self):
        config = ExperimentConfig.tiny(seed=1)
        result = run_experiment(config)
        expected = config.total_requests / config.arrival_rate()
        assert result.sim_duration == pytest.approx(expected, rel=0.5)

    def test_keep_scenario(self):
        result = run_experiment(
            ExperimentConfig.tiny(seed=1), keep_scenario=True
        )
        assert result.scenario.tracker.completed == result.completed_requests

    def test_no_nan_metrics(self):
        result = run_experiment(ExperimentConfig.tiny(seed=4))
        assert not any(math.isnan(v) for v in result.summary().values())
