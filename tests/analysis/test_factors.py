"""Tests for the staleness and herd probes, including end-to-end use."""

import math

import numpy as np
import pytest

from repro.analysis import (
    InstrumentedSelector,
    QueueSampler,
    StalenessProbe,
    attach_probes,
    jain_fairness,
    server_load_shares,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import build_scenario
from repro.kvstore.fluctuation import StableService
from repro.kvstore.server import KVServer
from repro.network.packet import ServerStatus
from repro.selection.simple import LeastOutstandingSelector
from repro.sim import Environment


def _status():
    return ServerStatus(queue_size=1, service_rate=100.0, timestamp=0.0)


class TestStalenessProbe:
    def test_empty_probe_nan(self):
        probe = StalenessProbe()
        assert math.isnan(probe.mean_age())
        assert math.isnan(probe.max_age())

    def test_observe_filters_infinite(self):
        probe = StalenessProbe()
        probe.observe([math.inf, math.inf])
        assert probe.selections_without_any_feedback == 1
        probe.observe([1.0, math.inf, 3.0])
        assert probe.mean_age() == pytest.approx(2.0)
        assert probe.max_age() == 3.0

    def test_summary_keys(self):
        probe = StalenessProbe()
        probe.observe([0.5])
        summary = probe.summary()
        assert set(summary) == {"mean_age", "max_age", "samples", "cold_selections"}


class TestInstrumentedSelector:
    def test_ages_recorded_at_selection(self):
        env = Environment()
        probe = StalenessProbe()
        wrapped = InstrumentedSelector(
            LeastOutstandingSelector(), probe, clock=lambda: env.now
        )
        wrapped.note_response("a", 0.001, _status(), now=1.0)
        choice = wrapped.select(["a", "b"], now=3.0)
        assert choice in ("a", "b")
        # Only 'a' had feedback: a single age sample of 2 seconds.
        assert len(probe) == 1
        assert probe.mean_age() == pytest.approx(2.0)

    def test_delegation(self):
        probe = StalenessProbe()
        inner = LeastOutstandingSelector()
        wrapped = InstrumentedSelector(inner, probe, clock=lambda: 0.0)
        wrapped.note_sent("a", 0.0)
        wrapped.note_sent("a", 0.0)
        assert wrapped.select(["a", "b"], 0.0) == "b"

    def test_concurrency_weight_passthrough(self):
        from repro.selection.c3 import C3Selector

        inner = C3Selector(concurrency_weight=3, prior_service_rate=10.0)
        wrapped = InstrumentedSelector(
            inner, StalenessProbe(), clock=lambda: 0.0
        )
        assert wrapped.concurrency_weight == 3
        wrapped.concurrency_weight = 9
        assert inner.concurrency_weight == 9


class StubHost:
    def __init__(self, name):
        self.name = name
        self.endpoint = None

    def bind(self, endpoint):
        self.endpoint = endpoint

    def send(self, packet):
        pass


class TestQueueSampler:
    def _servers(self, env, n=3):
        return {
            f"s{i}": KVServer(
                env,
                StubHost(f"s{i}"),
                service_model=StableService(1e-3),
                parallelism=2,
                rng=np.random.default_rng(i),
            )
            for i in range(n)
        }

    def test_validation(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            QueueSampler(env, {}, period=1e-3)
        servers = self._servers(env)
        with pytest.raises(ConfigurationError):
            QueueSampler(env, servers, period=0.0)
        with pytest.raises(ConfigurationError):
            QueueSampler(env, servers, hot_multiplier=1.0)

    def test_samples_on_period(self):
        env = Environment()
        sampler = QueueSampler(env, self._servers(env), period=1e-3)
        sampler.start()
        env.run(until=10.5e-3)
        assert len(sampler) == 10

    def test_double_start_rejected(self):
        env = Environment()
        sampler = QueueSampler(env, self._servers(env), period=1e-3)
        sampler.start()
        with pytest.raises(ConfigurationError):
            sampler.start()

    def test_summary_of_idle_system(self):
        env = Environment()
        sampler = QueueSampler(env, self._servers(env), period=1e-3)
        sampler.start()
        env.run(until=5e-3)
        summary = sampler.summary()
        assert summary.mean_queue == 0.0
        assert summary.mean_cv == 0.0
        assert summary.oscillation_fraction == 0.0

    def test_imbalance_detected(self):
        env = Environment()
        servers = self._servers(env, n=5)
        from tests.kvstore.test_server import _request

        # Pile 12 requests onto one server only.
        for i in range(12):
            servers["s0"].handle_packet(_request(i))
        sampler = QueueSampler(env, servers, period=0.1e-3)
        sampler.start()
        env.run(until=1e-3)
        summary = sampler.summary()
        assert summary.max_queue >= 2
        assert summary.mean_cv > 0.5
        assert summary.oscillation_fraction > 0.0

    def test_empty_summary_is_nan(self):
        env = Environment()
        sampler = QueueSampler(env, self._servers(env))
        assert math.isnan(sampler.summary().mean_queue)


class TestLoadHelpers:
    def test_shares_sum_to_one(self):
        shares = server_load_shares({"a": 3, "b": 1})
        assert shares == {"a": 0.75, "b": 0.25}

    def test_jain_even(self):
        assert jain_fairness({"a": 5, "b": 5, "c": 5}) == pytest.approx(1.0)

    def test_jain_single_hot(self):
        assert jain_fairness({"a": 9, "b": 0, "c": 0}) == pytest.approx(1 / 3)

    def test_empty_inputs_nan(self):
        assert math.isnan(jain_fairness({}))
        assert math.isnan(jain_fairness({"a": 0}))
        assert all(math.isnan(v) for v in server_load_shares({"a": 0}).values())


class TestAttachProbes:
    def test_end_to_end_clirs(self):
        config = ExperimentConfig.tiny(scheme="clirs", seed=1)
        scenario = build_scenario(config)
        probes = attach_probes(scenario)
        result = run_experiment(config, scenario=scenario)
        assert len(probes.trace) == config.total_requests
        assert probes.staleness is not None and len(probes.staleness) > 0
        assert len(probes.queues) > 0
        # Trace latencies agree with the recorder on recorded requests.
        assert sorted(probes.trace.latencies()) == sorted(
            result.latency.samples
        )

    def test_end_to_end_netrs(self):
        config = ExperimentConfig.tiny(scheme="netrs-ilp", seed=1)
        scenario = build_scenario(config)
        probes = attach_probes(scenario)
        run_experiment(config, scenario=scenario)
        # Every traced request carries the RSNode that selected it.
        rsnodes = set(probes.trace.per_rsnode_counts())
        assert rsnodes <= set(scenario.plan.rsnode_ids)
        assert len(probes.staleness) > 0

    def test_netrs_fresher_than_clirs(self):
        """The paper's factor (i): in-network RSNodes see fresher feedback."""
        ages = {}
        for scheme in ("clirs", "netrs-ilp"):
            config = ExperimentConfig.tiny(scheme=scheme, seed=1)
            scenario = build_scenario(config)
            probes = attach_probes(scenario, trace=False, queues=False)
            run_experiment(config, scenario=scenario)
            ages[scheme] = probes.staleness.mean_age()
        assert ages["netrs-ilp"] < ages["clirs"]

    def test_netrs_herds_less_than_clirs(self):
        """The paper's factor (ii): few traffic-aggregating RSNodes spread
        load more evenly, so server queues are less imbalanced over time.
        Same cell as ``netrs factors --seed 1 --requests 6000``."""
        cvs = {}
        for scheme in ("clirs", "netrs-ilp"):
            config = ExperimentConfig.small(
                scheme=scheme, seed=1, total_requests=6000
            )
            scenario = build_scenario(config)
            probes = attach_probes(scenario)
            run_experiment(config, scenario=scenario)
            cvs[scheme] = probes.queues.summary().mean_cv
        assert cvs["netrs-ilp"] < cvs["clirs"]

    def test_attach_after_start_rejected(self):
        config = ExperimentConfig.tiny(scheme="clirs", seed=1)
        scenario = build_scenario(config)
        scenario.workload.start()
        scenario.env.run(until=0.01)
        with pytest.raises(ConfigurationError):
            attach_probes(scenario)

    def test_trace_capacity_respected(self):
        config = ExperimentConfig.tiny(scheme="clirs", seed=1)
        scenario = build_scenario(config)
        probes = attach_probes(scenario, trace_capacity=50)
        run_experiment(config, scenario=scenario)
        assert len(probes.trace) == 50
        assert probes.trace.dropped == config.total_requests - 50

    @pytest.mark.parametrize("probe", ["trace", "staleness", "queues"])
    def test_only_the_requested_probe_attaches(self, probe):
        scenario = build_scenario(ExperimentConfig.tiny(scheme="clirs", seed=1))
        flags = {name: name == probe for name in ("trace", "staleness", "queues")}
        probes = attach_probes(scenario, **flags)
        for name, wanted in flags.items():
            assert (getattr(probes, name) is not None) == wanted
        for client in scenario.clients:
            assert (client.trace_sink is not None) == flags["trace"]
            wrapped = isinstance(client.selector, InstrumentedSelector)
            assert wrapped == flags["staleness"]
